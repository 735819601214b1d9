//! Ad-hoc profiling harness for the saturated-link shape.
//! `cargo run --release -p chorus-transport --example saturate -- <msgs> <sessions> <flush_us> [send_only]`
//!
//! A zero `flush_us` flushes frame-at-a-time; a nonzero one coalesces
//! sends into vectored batches behind that window.

use chorus_core::SessionTransport as _;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;
use std::sync::Arc;
use std::time::{Duration, Instant};

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let msgs: u64 = args[0].parse().unwrap();
    let sessions: u64 = args[1].parse().unwrap();
    let flush_us: u64 = args[2].parse().unwrap();
    let send_only = args.get(3).map(|s| s == "send_only").unwrap_or(false);

    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .flush_delay(Duration::from_micros(flush_us))
        .build::<Duo>()
        .unwrap();
    let a = Arc::new(TcpTransport::<Duo, _>::bind(LA, config.clone()).unwrap());
    let b = Arc::new(TcpTransport::<Duo, _>::bind(LB, config).unwrap());
    let per_session = msgs / sessions;
    let start = Instant::now();
    let senders: Vec<_> = (0..sessions)
        .map(|session| {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                for seq in 0..per_session {
                    a.send_frame("LB", Envelope::new(session + 1, seq, vec![0xB7u8; 32])).unwrap();
                }
            })
        })
        .collect();
    let receivers: Vec<_> = if send_only {
        Vec::new()
    } else {
        (0..sessions)
            .map(|session| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..per_session {
                        b.receive_frame(session + 1, "LA").unwrap();
                    }
                })
            })
            .collect()
    };
    for t in senders {
        t.join().unwrap();
    }
    let send_done = start.elapsed();
    for t in receivers {
        t.join().unwrap();
    }
    let all_done = start.elapsed();
    println!(
        "sessions={} flush={}us send_only={}: senders done {:.1}ms ({:.0} msgs/s), all done {:.1}ms ({:.0} msgs/s)",
        sessions,
        flush_us,
        send_only,
        send_done.as_secs_f64() * 1e3,
        msgs as f64 / send_done.as_secs_f64(),
        all_done.as_secs_f64() * 1e3,
        msgs as f64 / all_done.as_secs_f64(),
    );
}
