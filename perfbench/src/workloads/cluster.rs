//! `kvs_cluster_reshard`: a closed loop with one client on `SimCluster`
//! over an ideal `SimNet` (no injected delay, so latency is processor
//! time). Three nodes at replication factor 3; every few dozen ops a
//! seeded `join("N4")` / `leave("N4")` cycle runs through
//! `plan_transfers`, `precopy` (with client ops interleaved) and
//! `finalize`.

use super::panic_text;
use crate::gen::ClusterPlan;
use crate::trace::{self, median, Histo, Name};
use crate::{measure, repeat_setup, Meter, Phase};
use chorus_kvs::SimCluster;
use chorus_transport::FaultPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Ops run before measuring: caches fill and lazy set-up ends.
const WARMUP_OPS: u64 = 600;
/// `peak_rss_mib` is VmHWM once this many measured ops have completed:
/// equal work on every commit, whatever its speed.
pub const RSS_AT_OPS: u64 = 8_000;

const SHARDS: u32 = 4;
const JOINER: &str = "N4";

#[derive(Default)]
struct ClusterStats {
    /// Steady-phase latencies by op kind, and pre-copy-phase latencies.
    put: Histo,
    get: Histo,
    steady: Histo,
    migrating: Histo,
    frames: u64,
    vticks: u64,
    data_ops: u64,
    precopy_ms: Vec<f64>,
    finalize_ms: Vec<f64>,
    freeze_frames: Vec<f64>,
    reconfig_ms: Vec<f64>,
}

struct Rig {
    cluster: SimCluster,
    cycles: u64,
}

impl Rig {
    fn build() -> Self {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], SHARDS);
        let probe = cluster.get("setup-probe").expect("setup op completes");
        assert!(probe.is_none(), "setup probe answered wrongly");
        Rig { cluster, cycles: 0 }
    }
}

/// One client op, recorded in `meter` (and, traced, in `stats`).
fn client_op<const ON: bool>(
    rig: &mut Rig,
    plan: &ClusterPlan,
    n: u64,
    migrating: bool,
    meter: &mut Meter,
    stats: &mut ClusterStats,
) {
    let op = plan.op(n);
    let key = &plan.keys[op.key as usize];
    let (frames0, vticks0) = if ON {
        (rig.cluster.net().messages_received(), rig.cluster.net().virtual_now())
    } else {
        (0, 0)
    };
    let issued = Instant::now();
    let span = trace::span(Name::ClusterOp, n);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if op.put {
            rig.cluster.put(key, &op.value).map(|_| op.value.len() as u64)
        } else {
            // `get` checks the answer against the cluster's per-key
            // consistency model and panics on a violation.
            rig.cluster.get(key).map(|found| found.map_or(0, |v| v.value.len() as u64))
        }
    }));
    drop(span);
    let now = Instant::now();
    match outcome {
        Ok(Ok(value_bytes)) => {
            meter.ok(issued, now, key.len() as u64 + value_bytes);
            if ON {
                let ns = now.duration_since(issued).as_nanos() as u64;
                if migrating {
                    stats.migrating.record(ns);
                } else {
                    stats.steady.record(ns);
                    if op.put { &stats.put } else { &stats.get }.record(ns);
                }
                stats.frames += rig.cluster.net().messages_received() - frames0;
                stats.vticks += rig.cluster.net().virtual_now() - vticks0;
                stats.data_ops += 1;
            }
        }
        Ok(Err(_)) => meter.fail(),
        Err(panic) => meter.wrong(panic_text(&*panic)),
    }
}

/// One join or leave of N4: plan, pre-copy with `interleave` client ops
/// after each transfer, finalize. The reconfiguration time excludes the
/// interleaved ops, which are timed as ops.
fn reconfigure<const ON: bool>(
    rig: &mut Rig,
    plan: &ClusterPlan,
    n: &mut u64,
    interleave: u32,
    meter: &mut Meter,
    stats: &mut ClusterStats,
) {
    let start = Instant::now();
    let mut in_ops = Duration::ZERO;
    rig.cluster.refresh_config();
    let config = rig.cluster.config();
    let next = if config.census.iter().any(|m| m == JOINER) {
        config.with_leave(JOINER)
    } else {
        config.with_join(JOINER)
    };
    let transfers = rig.cluster.plan_transfers(&next);
    let mut precopy = Duration::ZERO;
    for transfer in &transfers {
        let t = Instant::now();
        {
            let _span = trace::span(Name::Precopy, rig.cycles);
            rig.cluster.precopy(transfer);
        }
        precopy += t.elapsed();
        let t = Instant::now();
        for _ in 0..interleave {
            client_op::<ON>(rig, plan, *n, true, meter, stats);
            *n += 1;
        }
        in_ops += t.elapsed();
    }
    let t = Instant::now();
    let committed = {
        let _span = trace::span(Name::Finalize, rig.cycles);
        rig.cluster.finalize(&next, &transfers)
    };
    let finalize = t.elapsed();
    let total = start.elapsed() - in_ops;
    rig.cycles += 1;
    if !committed {
        meter.wrong(format!("reconfiguration to epoch {} did not commit", next.epoch));
        return;
    }
    stats.reconfig_ms.push(total.as_secs_f64() * 1e3);
    stats.precopy_ms.push(precopy.as_secs_f64() * 1e3);
    stats.finalize_ms.push(finalize.as_secs_f64() * 1e3);
    if let Some(window) = rig.cluster.last_freeze_window() {
        stats.freeze_frames.push(window.frames as f64);
    }
}

fn drive<const ON: bool>(
    rig: &mut Rig,
    plan: &ClusterPlan,
    n: &mut u64,
    meter: &mut Meter,
    stats: &mut ClusterStats,
) {
    loop {
        let (steady, interleave) = plan.reconfig(rig.cycles);
        for _ in 0..steady {
            client_op::<ON>(rig, plan, *n, false, meter, stats);
            *n += 1;
            if meter.done(Instant::now()) {
                return;
            }
        }
        reconfigure::<ON>(rig, plan, n, interleave, meter, stats);
        if meter.done(Instant::now()) {
            return;
        }
    }
}

pub fn phase<const ON: bool>(plan: &ClusterPlan, seconds: f64, setup_batches: usize) -> Phase {
    let (setup_times, (mut rig, mut n), warm) = repeat_setup(setup_batches, WARMUP_OPS, |warm| {
        let mut rig = Rig::build();
        let mut n = 0u64;
        drive::<ON>(&mut rig, plan, &mut n, warm, &mut ClusterStats::default());
        (rig, n)
    });

    let mut stats = ClusterStats::default();
    let meter = measure(seconds, RSS_AT_OPS, &warm, |meter| {
        drive::<ON>(&mut rig, plan, &mut n, meter, &mut stats)
    });

    let mut phase = Phase::new(setup_times, meter);
    phase.notes.push(("reconfig_cycles", stats.reconfig_ms.len().to_string()));
    phase.notes.push(("model_checked_gets", rig.cluster.model.checked().to_string()));
    phase.reconfig_ms = stats.reconfig_ms.clone();
    if ON {
        let ops = stats.data_ops.max(1) as f64;
        let steady = stats.steady.quantile(0.5);
        phase.layers.extend([
            ("sim.frames_per_op", stats.frames as f64 / ops),
            ("sim.vticks_per_op", stats.vticks as f64 / ops),
            ("kvs.put_p50_us", stats.put.quantile(0.5) / 1e3),
            ("kvs.get_p50_us", stats.get.quantile(0.5) / 1e3),
            ("kvs.migrating_over_steady", stats.migrating.quantile(0.5) / steady.max(1.0)),
            ("kvs.precopy_ms", median(&stats.precopy_ms)),
            ("kvs.finalize_ms", median(&stats.finalize_ms)),
            ("kvs.freeze_frames", median(&stats.freeze_frames)),
        ]);
    }
    phase
}
