//! The four workloads. Each exposes
//! `phase::<ON>(plan, seconds, setup_batches)`: set the workload up in
//! timed batches (build the topology, complete a first op, warm up for a
//! fixed number of ops; the last setup kept), then drive a closed loop
//! from the calling thread for `seconds`, verifying every result and
//! sampling VmHWM after the workload's `RSS_AT_OPS` ops. With `ON` the
//! bench-owned probes record per-layer figures.

pub mod cluster;
pub mod lottery;
pub mod pooled;
pub mod tcp;

use crate::gen::KvsPlan;
use chorus_protocols::kvs_simple::handle_request;
use chorus_protocols::store::{Request, Response, SharedStore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long the load thread waits for one op before declaring the run
/// stalled.
pub const STALL: Duration = Duration::from_secs(40);

/// Rung 0 and rung 1 of the ladder, measured from outside on the run's
/// own messages: the requests the plan issued (first `per_slot` ops of
/// every slot) and the responses the handler gives them. Returns
/// (encode ns per message, decode ns per message, handler ns per
/// request).
pub fn kvs_codec_and_handler(plan: &KvsPlan, per_slot: u64) -> (f64, f64, f64) {
    let requests: Vec<Request> = (0..plan.ops.len())
        .flat_map(|slot| (0..per_slot).map(move |n| (slot, n)))
        .map(|(slot, n)| plan.request(slot, n).1)
        .collect();
    let store = SharedStore::new();
    let responses: Vec<Response> = requests.iter().map(|r| handle_request(r, &store)).collect();
    let rounds = 5;

    // Handler alone, on a store that replays the same history.
    let mut handler_ns = Vec::new();
    for _ in 0..rounds {
        let store = SharedStore::new();
        let start = Instant::now();
        for request in &requests {
            black_box(handle_request(black_box(request), &store));
        }
        handler_ns.push(start.elapsed().as_nanos() as f64 / requests.len() as f64);
    }

    let messages = (requests.len() + responses.len()) as f64;
    let mut encode_ns = Vec::new();
    let mut decode_ns = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        let req_bytes: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| chorus_wire::to_bytes(black_box(r)).expect("requests encode"))
            .collect();
        let resp_bytes: Vec<Vec<u8>> = responses
            .iter()
            .map(|r| chorus_wire::to_bytes(black_box(r)).expect("responses encode"))
            .collect();
        encode_ns.push(start.elapsed().as_nanos() as f64 / messages);

        let start = Instant::now();
        for (bytes, original) in req_bytes.iter().zip(&requests) {
            let decoded: Request = chorus_wire::from_bytes(black_box(bytes)).expect("decodes");
            debug_assert_eq!(&decoded, original);
            black_box(decoded);
        }
        for bytes in &resp_bytes {
            let decoded: Response = chorus_wire::from_bytes(black_box(bytes)).expect("decodes");
            black_box(decoded);
        }
        decode_ns.push(start.elapsed().as_nanos() as f64 / messages);
    }
    (
        crate::trace::median(&encode_ns),
        crate::trace::median(&decode_ns),
        crate::trace::median(&handler_ns),
    )
}

/// A panic payload as text.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
