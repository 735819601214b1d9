//! Pins the encode-once fan-out property: a multicast (blocking or
//! fallible) and a broadcast serialize their value **exactly once**, no matter how many
//! destinations receive it — every recipient, including the sender's
//! own keep-copy, observes the same encoded bytes.
//!
//! The probes are values whose `Serialize` impls count their
//! invocations (one counter per test, so the tests can run on the
//! harness's concurrent threads without interfering).

use chorus_core::{ChoreoOp, Choreography, Endpoint, Located, LocationSet as _, MultiplyLocated};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

macro_rules! counted_probe {
    ($name:ident, $counter:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug, Clone, PartialEq, Eq)]
        struct $name(u64);

        impl Serialize for $name {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                $counter.fetch_add(1, Ordering::SeqCst);
                self.0.serialize(serializer)
            }
        }

        impl<'de> Deserialize<'de> for $name {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                u64::deserialize(deserializer).map($name)
            }
        }
    };
}

counted_probe!(MulticastProbe, MULTICAST_SERIALIZATIONS);
counted_probe!(TryMulticastProbe, TRY_MULTICAST_SERIALIZATIONS);
counted_probe!(BroadcastProbe, BROADCAST_SERIALIZATIONS);
counted_probe!(TcpBatchProbe, TCP_BATCH_SERIALIZATIONS);

chorus_core::locations! { A, B, C, D }
type Census = chorus_core::LocationSet!(A, B, C, D);

/// A multicasts to the whole census (itself included) and everyone
/// returns the value they observed.
#[derive(Clone)]
struct FanOut;

impl Choreography<u64> for FanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<MulticastProbe, A> = op.locally(A, |_| MulticastProbe(41));
        let shared: MultiplyLocated<MulticastProbe, Census> = op.multicast(A, Census::new(), &at_a);
        op.naked(shared).0
    }
}

/// The fallible fan-out: A `try_multicast`s to the whole census (itself
/// included) and everyone returns the value they observed.
#[derive(Clone)]
struct TryFanOut;

impl Choreography<u64> for TryFanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<TryMulticastProbe, A> = op.locally(A, |_| TryMulticastProbe(29));
        let shared: MultiplyLocated<TryMulticastProbe, Census> =
            op.try_multicast(A, Census::new(), &at_a).expect("an honest local census");
        op.naked(shared).0
    }
}

/// A broadcasts; every location returns what it heard.
#[derive(Clone)]
struct Shout;

impl Choreography<u64> for Shout {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<BroadcastProbe, A> = op.locally(A, |_| BroadcastProbe(17));
        op.broadcast(A, at_a).0
    }
}

fn run_everywhere<C: Choreography<u64, L = Census> + Clone + Send + 'static>(
    choreo: C,
) -> Vec<u64> {
    let channel = LocalTransportChannel::<Census>::new();
    let mut handles = Vec::new();
    macro_rules! spawn_at {
        ($loc:ident) => {{
            let ch = channel.clone();
            let c = choreo.clone();
            handles.push(std::thread::spawn(move || {
                let endpoint = Endpoint::new(LocalTransport::new($loc, ch));
                endpoint.session_with_id(7).epp_and_run(c)
            }));
        }};
    }
    spawn_at!(A);
    spawn_at!(B);
    spawn_at!(C);
    spawn_at!(D);
    handles.into_iter().map(|h| h.join().expect("participant")).collect()
}

#[test]
fn multicast_serializes_exactly_once_regardless_of_census_size() {
    let results = run_everywhere(FanOut);
    assert_eq!(results, vec![41, 41, 41, 41]);
    // One fan-out to 3 remote destinations plus the sender's keep-copy:
    // one serialization total. (The counter also proves the keep-copy
    // decodes the shared bytes instead of re-encoding.)
    assert_eq!(
        MULTICAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "multicast must serialize once, not once per destination"
    );
}

#[test]
fn try_multicast_serializes_exactly_once() {
    let results = run_everywhere(TryFanOut);
    assert_eq!(results, vec![29, 29, 29, 29]);
    // The robust path keeps per-destination failure attribution without
    // re-encoding per destination or for the keep-copy.
    assert_eq!(
        TRY_MULTICAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "try_multicast must serialize once, not once per destination"
    );
}

/// A multicasts over the batched TCP data plane; the census returns
/// what it observed.
#[derive(Clone)]
struct TcpFanOut;

impl Choreography<u64> for TcpFanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<TcpBatchProbe, A> = op.locally(A, |_| TcpBatchProbe(23));
        let shared: MultiplyLocated<TcpBatchProbe, Census> = op.multicast(A, Census::new(), &at_a);
        op.naked(shared).0
    }
}

/// The encode-once property must survive the batched TCP path: the
/// coalescing window queues all three remote copies before one vectored
/// flush, and every queued frame shares the single encoded payload
/// buffer — so the probe still serializes exactly once.
#[test]
fn tcp_batched_multicast_serializes_exactly_once() {
    use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
    use std::time::Duration;

    let addrs = free_local_addrs(4).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(A, addrs[0])
        .location(B, addrs[1])
        .location(C, addrs[2])
        .location(D, addrs[3])
        .flush_delay(Duration::from_micros(200))
        .build::<Census>()
        .unwrap();
    let mut handles = Vec::new();
    macro_rules! spawn_at {
        ($loc:ident) => {{
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                let endpoint = Endpoint::new(TcpTransport::bind($loc, cfg).unwrap());
                endpoint.session_with_id(7).epp_and_run(TcpFanOut)
            }));
        }};
    }
    spawn_at!(A);
    spawn_at!(B);
    spawn_at!(C);
    spawn_at!(D);
    let results: Vec<u64> = handles.into_iter().map(|h| h.join().expect("participant")).collect();
    assert_eq!(results, vec![23, 23, 23, 23]);
    assert_eq!(
        TCP_BATCH_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "a batched TCP multicast must serialize once, not once per socket"
    );
}

#[test]
fn broadcast_serializes_exactly_once() {
    let results = run_everywhere(Shout);
    assert_eq!(results, vec![17, 17, 17, 17]);
    assert_eq!(
        BROADCAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "broadcast must serialize once, not once per listener"
    );
}
