//! Bench-owned probes around the program's public surfaces: a counting
//! global allocator, process counters, a message-counting [`Layer`], a
//! [`SessionTransport`] wrapper and a [`RoleProgram`] wrapper.
//!
//! The wrappers take a `const ON: bool`: with `ON = false` every hook
//! compiles away and the wrapper is a plain pass-through, which is what
//! the untraced (end-to-end) runs use.

use crate::trace::{self, Histo, Name};
use chorus_core::{
    ChoreographyLocation, Layer, LocationSet, MailboxWaker, MessageCtx, RoleProgram, SessionCx,
    SessionId, SessionTransport, Step, TransportError,
};
use chorus_wire::Envelope;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counts heap allocations while [`count_allocs`] is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process.
pub fn cpu_time() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (two
    // timevals and fourteen longs on 64-bit Linux); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// A field of `/proc/self/status` (e.g. `VmHWM`), as text.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// A `kB` field of `/proc/self/status`, in bytes.
pub fn proc_kib(field: &str) -> u64 {
    proc_status(field)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

/// CPU time the hypervisor spent running other guests while this
/// machine's CPUs were runnable (`steal` in `/proc/stat`), in clock
/// ticks (1/100 s) summed over CPUs; 0 where unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Message and byte counts one endpoint's sessions put on the wire,
/// plus (traced) the send-to-receive delivery time of each message.
#[derive(Default)]
pub struct MsgLayer {
    pub msgs: AtomicU64,
    pub bytes: AtomicU64,
    deliver: Option<Arc<DeliverClock>>,
}

impl MsgLayer {
    pub fn new(deliver: Option<Arc<DeliverClock>>) -> Arc<Self> {
        Arc::new(MsgLayer { deliver, ..MsgLayer::default() })
    }
}

/// Matches `on_send` with the `on_receive` of the same
/// (session, seq, edge) across endpoints.
#[derive(Default)]
pub struct DeliverClock {
    sent: Mutex<HashMap<(SessionId, u64, u64), u64>>,
    pub histo: Histo,
}

fn edge_key(from: &str, to: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    (from, to).hash(&mut hasher);
    hasher.finish()
}

impl Layer for MsgLayer {
    fn on_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if let Some(clock) = &self.deliver {
            let key = (ctx.session, ctx.seq, edge_key(ctx.from, ctx.to));
            clock.sent.lock().expect("deliver clock poisoned").insert(key, trace::now_ns());
        }
    }

    fn on_receive(&self, ctx: &MessageCtx<'_>, _payload: &[u8]) {
        if let Some(clock) = &self.deliver {
            let key = (ctx.session, ctx.seq, edge_key(ctx.from, ctx.to));
            let sent = clock.sent.lock().expect("deliver clock poisoned").remove(&key);
            if let Some(sent) = sent {
                clock.histo.record(trace::now_ns().saturating_sub(sent));
            }
        }
    }
}

/// Counters of one transport wrapper.
#[derive(Default)]
pub struct TransportStats {
    pub send: Histo,
    pub recv_block: Histo,
    pub try_calls: AtomicU64,
    pub try_hits: AtomicU64,
    pub register_calls: AtomicU64,
    pub register_ready: AtomicU64,
}

/// Per-session wake stamps: the transport wrapper's waker sets one when
/// it fires; the program wrapper consumes it at its next resume.
pub type WakeStamps = Arc<Mutex<HashMap<SessionId, Arc<AtomicU64>>>>;

/// A [`SessionTransport`] wrapper timing every call into the inner
/// transport (when `ON`).
pub struct Probed<T, const ON: bool> {
    inner: T,
    pub stats: Arc<TransportStats>,
    pub stamps: WakeStamps,
}

impl<T, const ON: bool> Probed<T, ON> {
    pub fn new(inner: T) -> Self {
        Probed { inner, stats: Arc::default(), stamps: Arc::default() }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<L, Target, T, const ON: bool> SessionTransport<L, Target> for Probed<T, ON>
where
    L: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<L, Target>,
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        if !ON {
            return self.inner.send_frame(to, frame);
        }
        let _span = trace::span(Name::Send, frame.session);
        let start = trace::now_ns();
        let result = self.inner.send_frame(to, frame);
        self.stats.send.record(trace::now_ns() - start);
        result
    }

    fn receive_frame(&self, session: SessionId, from: &str) -> Result<Envelope, TransportError> {
        if !ON {
            return self.inner.receive_frame(session, from);
        }
        let _span = trace::span(Name::RecvBlock, session);
        let start = trace::now_ns();
        let result = self.inner.receive_frame(session, from);
        self.stats.recv_block.record(trace::now_ns() - start);
        result
    }

    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<Envelope>, TransportError> {
        if !ON {
            return self.inner.try_receive_frame(session, from);
        }
        let _span = trace::span(Name::TryRecv, session);
        let result = self.inner.try_receive_frame(session, from);
        self.stats.try_calls.fetch_add(1, Ordering::Relaxed);
        if matches!(result, Ok(Some(_))) {
            self.stats.try_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError> {
        if !ON {
            return self.inner.register_waker(session, from, waker);
        }
        let _span = trace::span(Name::Register, session);
        let stamp = self.stamps.lock().expect("wake stamps poisoned").get(&session).cloned();
        let waker = match stamp {
            Some(stamp) => Arc::new(move || {
                stamp.store(trace::now_ns(), Ordering::Relaxed);
                waker();
            }) as MailboxWaker,
            None => waker,
        };
        let ready = self.inner.register_waker(session, from, waker);
        self.stats.register_calls.fetch_add(1, Ordering::Relaxed);
        if matches!(ready, Ok(true)) {
            self.stats.register_ready.fetch_add(1, Ordering::Relaxed);
        }
        ready
    }
}

/// Counters of the program wrappers of one run.
#[derive(Default)]
pub struct RuntimeStats {
    pub spawn: Histo,
    pub resume: Histo,
    pub wake_to_resume: Histo,
    pub resumes: AtomicU64,
    pub sessions: AtomicU64,
}

/// A [`RoleProgram`] wrapper: times each `resume` and the wake that
/// preceded it (when `ON`), and reports completion to the load thread.
pub struct Traced<P, const ON: bool> {
    inner: P,
    session: SessionId,
    stats: Arc<RuntimeStats>,
    stamp: Option<(Arc<AtomicU64>, WakeStamps)>,
    done: Option<(usize, std::sync::mpsc::Sender<usize>)>,
}

impl<P: RoleProgram, const ON: bool> Traced<P, ON> {
    /// Wraps `inner` for `session`; `stamps` is the registry of the
    /// transport wrapper the session runs over, and `done` (slot,
    /// channel) is told when the program finishes.
    pub fn new(
        inner: P,
        session: SessionId,
        stats: &Arc<RuntimeStats>,
        stamps: &WakeStamps,
        done: Option<(usize, std::sync::mpsc::Sender<usize>)>,
    ) -> Self {
        let stamp = ON.then(|| {
            let cell = Arc::new(AtomicU64::new(0));
            stamps.lock().expect("wake stamps poisoned").insert(session, Arc::clone(&cell));
            (cell, Arc::clone(stamps))
        });
        Traced { inner, session, stats: Arc::clone(stats), stamp, done }
    }

    fn finish(&mut self) {
        if let Some((_, stamps)) = &self.stamp {
            stamps.lock().expect("wake stamps poisoned").remove(&self.session);
        }
        if let Some((slot, tx)) = self.done.take() {
            // The load thread outlives every program it waits for.
            let _ = tx.send(slot);
        }
    }
}

impl<P: RoleProgram, const ON: bool> RoleProgram for Traced<P, ON> {
    type Output = P::Output;

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        let step = if ON {
            let start = trace::now_ns();
            if let Some((stamp, _)) = &self.stamp {
                let woke = stamp.swap(0, Ordering::Relaxed);
                if woke != 0 {
                    self.stats.wake_to_resume.record(start.saturating_sub(woke));
                }
            }
            let span = trace::span(Name::Resume, self.session);
            let step = self.inner.resume(cx);
            drop(span);
            self.stats.resume.record(trace::now_ns() - start);
            self.stats.resumes.fetch_add(1, Ordering::Relaxed);
            step
        } else {
            self.inner.resume(cx)
        };
        if !matches!(step, Ok(Step::Pending)) {
            if ON {
                self.stats.sessions.fetch_add(1, Ordering::Relaxed);
            }
            self.finish();
        }
        step
    }
}
