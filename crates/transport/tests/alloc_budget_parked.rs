//! Pins the allocation budget of a *parked* blocking receive: a
//! counting global allocator asserts that a cross-thread ping-pong over
//! `LocalTransport`, in which every receiver finds its mailbox empty
//! and parks until the peer's deposit wakes it, stays within the same
//! one-allocation-per-message budget as the same-thread hot path in
//! `alloc_budget.rs`.
//!
//! The one allocation is the shared payload buffer. Registering the
//! receiver's waker, parking, and the sender's wake must allocate
//! nothing: the waker that unparks a thread is built once per thread
//! and handed out as a reference-count bump.
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counter.

use chorus_core::{
    ChoreographyLocation, Endpoint, LocationSet, MailboxWaker, SessionId, SessionTransport,
    TransportError,
};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use chorus_wire::Envelope;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

chorus_core::locations! { Alice, Bob }
type System2 = chorus_core::LocationSet!(Alice, Bob);

/// Counts the receives that really parked: a `register_waker` that
/// stored the waker (`Ok(false)`) is followed by a park. Only the three
/// primitives are forwarded, so the blocking receive under test is the
/// provided one, running over these counters.
struct CountingParks<T> {
    inner: T,
    parks: Arc<AtomicUsize>,
}

impl<L, Target, T> SessionTransport<L, Target> for CountingParks<T>
where
    L: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<L, Target>,
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        self.inner.send_frame(to, frame)
    }

    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<Envelope>, TransportError> {
        self.inner.try_receive_frame(session, from)
    }

    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError> {
        let ready = self.inner.register_waker(session, from, waker)?;
        if !ready {
            self.parks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ready)
    }
}

#[test]
fn parked_local_receive_stays_within_one_allocation_per_message() {
    const WARM_UP: u64 = 64;
    const ROUND_TRIPS: u64 = 100;
    let channel = LocalTransportChannel::<System2>::new();
    let parks = Arc::new(AtomicUsize::new(0));
    let alice = Endpoint::new(CountingParks {
        inner: LocalTransport::new(Alice, channel.clone()),
        parks: Arc::clone(&parks),
    });
    let bob = Endpoint::new(CountingParks {
        inner: LocalTransport::new(Bob, channel),
        parks: Arc::clone(&parks),
    });

    // Bob echoes every ping from his own thread; each of his receives
    // waits for a ping Alice has not sent yet, so he parks.
    let echo = std::thread::spawn(move || {
        let session = bob.session_with_id(1);
        for _ in 0..WARM_UP + ROUND_TRIPS {
            let ping = session.receive_payload("Alice").unwrap();
            session.send_value("Alice", &ping.len()).unwrap();
        }
    });

    let session = alice.session_with_id(1);
    let round_trip = |i: u64| {
        session.send_value("Bob", &i).unwrap();
        let pong = session.receive_payload("Bob").unwrap();
        assert_eq!(pong.len(), 8);
    };
    // Warm-up: both threads build their wakers, and the scratch
    // buffers, sequence trackers, mailbox and waker maps reach
    // steady-state capacity.
    (0..WARM_UP).for_each(round_trip);

    let parks_before = parks.load(Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    (0..ROUND_TRIPS).for_each(round_trip);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let parked = parks.load(Ordering::Relaxed) - parks_before;
    echo.join().unwrap();

    // A ping and a pong per round trip, each with its one payload
    // buffer. The slack absorbs the harness's own threads allocating
    // while the loop runs, as in `alloc_budget.rs`.
    const SLACK: usize = 8;
    let messages = 2 * ROUND_TRIPS as usize;
    assert!(
        parked >= ROUND_TRIPS as usize,
        "receivers must really park for this budget to mean anything: {parked} parks \
         over {messages} receives"
    );
    assert!(
        spent <= messages + SLACK,
        "parked cross-thread receive allocated {spent} times for {messages} messages \
         (budget: 1 per message + {SLACK} constant slack)"
    );
}
