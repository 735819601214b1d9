//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `kvs_pooled_local`, `kvs_tcp_sizes`, `lottery_local`,
//! `kvs_cluster_reshard`. Inputs are generated from `--seed` before any
//! timing starts.
//!
//! Standard output carries two JSON lines: a record of the host, the
//! build and the run (`{"record": …}`), then the result
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics, measured over `--seconds`; with
//! `--trace 1` the run is split in two halves, untraced then traced, and
//! the metrics are the per-layer metrics. The traced run also writes its
//! span log under `.bench_build/perfbench/` and prints the span table
//! and the layer ladder on standard error.
//!
//! The run refuses to start when a `CHORUS_*` variable is set: they
//! change TCP flushing, retention, heartbeats and watchdogs, so figures
//! taken under them would not compare with the benchmark's.

use perfbench::gen::{ClusterPlan, KvsPlan, LotteryPlan};
use perfbench::trace::{self, median, Name};
use perfbench::workloads::{cluster, lottery, pooled, tcp};
use perfbench::{json, probe, Phase, END_TO_END, PER_LAYER, SETUP_BATCHES};
use std::process::ExitCode;

const WORKLOADS: [(&str, &str); 4] = [
    ("kvs_pooled_local", "closed loop, 64 logical clients (sessions in flight)"),
    ("kvs_tcp_sizes", "closed loop, 1 client"),
    ("lottery_local", "closed loop, 1 draw in flight"),
    ("kvs_cluster_reshard", "closed loop, 1 client"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload {workload}; one of {}", names.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The seeded inputs of one workload, generated before timing.
enum Plan {
    Pooled(KvsPlan),
    Tcp(KvsPlan),
    Lottery(LotteryPlan),
    Cluster(ClusterPlan),
}

impl Plan {
    fn new(workload: &str, seed: u64) -> Plan {
        match workload {
            "kvs_pooled_local" => Plan::Pooled(KvsPlan::pooled(seed)),
            "kvs_tcp_sizes" => Plan::Tcp(KvsPlan::tcp_sizes(seed)),
            "lottery_local" => Plan::Lottery(LotteryPlan::new(seed)),
            "kvs_cluster_reshard" => Plan::Cluster(ClusterPlan::new(seed)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn rss_at_ops(&self) -> u64 {
        match self {
            Plan::Pooled(_) => pooled::RSS_AT_OPS,
            Plan::Tcp(_) => tcp::RSS_AT_OPS,
            Plan::Lottery(_) => lottery::RSS_AT_OPS,
            Plan::Cluster(_) => cluster::RSS_AT_OPS,
        }
    }

    fn phase<const ON: bool>(&self, seconds: f64, setup_batches: usize) -> Phase {
        match self {
            Plan::Pooled(plan) => pooled::phase::<ON>(plan, seconds, setup_batches),
            Plan::Tcp(plan) => tcp::phase::<ON>(plan, seconds, setup_batches),
            Plan::Lottery(plan) => lottery::phase::<ON>(plan, seconds, setup_batches),
            Plan::Cluster(plan) => cluster::phase::<ON>(plan, seconds, setup_batches),
        }
    }

    /// Spans of every n-th session are recorded, to keep the log within
    /// its preallocated capacity.
    fn sample_every(&self) -> u64 {
        match self {
            Plan::Pooled(_) => 16,
            Plan::Lottery(_) => 4,
            Plan::Tcp(_) => 2,
            Plan::Cluster(_) => 1,
        }
    }
}

const SPAN_CAPACITY: usize = 1 << 19;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = perfbench::chorus_env();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: CHORUS_* variables change link and watchdog \
             behaviour, so the figures would not compare with the benchmark's",
            overrides.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        );
        return ExitCode::from(2);
    }

    let plan = Plan::new(&args.workload, args.seed);
    let mut record: Vec<(String, String)> = Vec::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed, wrong);

    if args.trace {
        probe::count_allocs(true);
        let base = plan.phase::<false>(args.seconds / 2.0, 1);
        trace::enable(SPAN_CAPACITY, plan.sample_every());
        let traced = plan.phase::<true>(args.seconds / 2.0, 1);
        trace::disable();
        probe::count_allocs(false);

        let (spans, dropped) = trace::collect();
        let selfs = trace::self_times(&spans);
        let path = std::path::PathBuf::from(".bench_build/perfbench")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_spans(&path, &spans, &selfs) {
            Ok(()) => record.push(("span_file".into(), json::string(&path.display().to_string()))),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let table = trace::by_name(&spans, &selfs);
        eprintln!(
            "spans ({} recorded, {dropped} dropped, every {}th session):",
            spans.len(),
            plan.sample_every()
        );
        eprintln!("  {:<30} {:>9} {:>12} {:>12}", "name", "count", "mean ns", "self ns");
        for (name, s) in &table {
            eprintln!(
                "  {:<30} {:>9} {:>12.0} {:>12.0}",
                name.as_str(),
                s.count,
                s.total_ns as f64 / s.count as f64,
                s.self_ns as f64 / s.count as f64
            );
        }

        let mut layers: Vec<(&str, f64)> = traced.layers.clone();
        let (cpu_us, util, allocs, rss) = base.meter.proc_per_op();
        let overhead =
            1.0 - traced.meter.ops_per_s() / base.meter.ops_per_s().max(f64::MIN_POSITIVE);
        let tried = base.meter.attempted + traced.meter.attempted;
        let lost = base.meter.failed + traced.meter.failed;
        let mut reconfigs = base.reconfig_ms.clone();
        reconfigs.extend(&traced.reconfig_ms);
        layers.extend([
            ("latency_p99_us", base.meter.latency_us(0.99)),
            ("error_rate", lost as f64 / tried.max(1) as f64),
            ("reconfig_p50_ms", median(&reconfigs)),
            ("proc.cpu_us_per_op", cpu_us),
            ("proc.cpu_util", util),
            ("proc.allocs_per_op", allocs),
            ("proc.rss_growth_bytes_per_op", rss),
            ("trace.overhead_frac", overhead),
        ]);
        let mut not_applicable = Vec::new();
        for (name, unit) in PER_LAYER {
            let value = layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            if value.is_none() {
                not_applicable.push(json::string(name));
            }
            metrics.push((name, value.unwrap_or(0.0), unit));
        }
        record.push(("not_applicable".into(), format!("[{}]", not_applicable.join(", "))));
        record.push(("spans_recorded".into(), spans.len().to_string()));
        record.push(("spans_dropped".into(), dropped.to_string()));
        record.push(("untraced_ops_per_s".into(), json::number(base.meter.ops_per_s())));
        record.push(("traced_ops_per_s".into(), json::number(traced.meter.ops_per_s())));
        print_ladder(&args.workload, &metrics, &table, &traced);
        notes(&mut record, &base);
        attempted = tried;
        failed = lost;
        wrong = [base.meter.wrong.clone(), traced.meter.wrong.clone()].concat();
    } else {
        let phase = plan.phase::<false>(args.seconds, SETUP_BATCHES);
        let m = &phase.meter;
        let values = [
            median(&phase.setups),
            m.ops_per_s(),
            m.latency_us(0.5),
            m.goodput_mib_per_s(),
            m.rss_at_ops.unwrap_or_else(|| probe::proc_kib("VmHWM")) as f64 / (1024.0 * 1024.0),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
        let setups: Vec<String> = phase.setups.iter().map(|s| json::number(*s)).collect();
        record.push(("setup_batch_means_s".into(), format!("[{}]", setups.join(", "))));
        record
            .push(("error_rate".into(), json::number(m.failed as f64 / m.attempted.max(1) as f64)));
        record.push(("reconfig_p50_ms".into(), json::number(median(&phase.reconfig_ms))));
        let rss_point = match m.rss_at_ops {
            Some(_) => format!("VmHWM after {} measured ops", plan.rss_at_ops()),
            None => format!("VmHWM at the end: fewer than {} ops completed", plan.rss_at_ops()),
        };
        record.push(("peak_rss_sampled".into(), json::string(&rss_point)));
        let end = probe::proc_kib("VmHWM") as f64 / (1024.0 * 1024.0);
        record.push(("vmhwm_at_end_mib".into(), json::number(end)));
        let windows: Vec<String> = m.windows_ops_per_s().into_iter().map(json::number).collect();
        record.push(("window_ops_per_s".into(), format!("[{}]", windows.join(", "))));
        let windows: Vec<String> =
            m.windows_latency_us(0.99).into_iter().map(json::number).collect();
        record.push(("window_latency_p99_us".into(), format!("[{}]", windows.join(", "))));
        let (cpu_us, util, _, _) = m.proc_per_op();
        record.push(("cpu_us_per_op".into(), json::number(cpu_us)));
        record.push(("cpu_util".into(), json::number(util)));
        record.push(("latency_p99_us".into(), json::number(m.latency_us(0.99))));
        let steal: Vec<String> = m.windows.iter().map(|w| json::number(w.steal)).collect();
        record.push(("window_steal".into(), format!("[{}]", steal.join(", "))));
        record.push(("latency_samples".into(), m.samples().to_string()));
        record.push(("latency_min_window_samples".into(), m.min_window_samples().to_string()));
        notes(&mut record, &phase);
        attempted = m.attempted;
        failed = m.failed;
        wrong = m.wrong.clone();
    }

    let correct = wrong.is_empty();
    let wrong_json: Vec<String> = wrong.iter().map(|w| json::string(w)).collect();
    record.push(("wrong_answers".into(), format!("[{}]", wrong_json.join(", "))));
    let mut head = host_record(&args);
    head.extend(record);
    println!("{}", json::object(&[("record".to_string(), json::object(&head))]));

    let metric_fields: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                json::object(&[
                    ("value".into(), json::number(*value)),
                    ("unit".into(), json::string(unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), attempted.max(1).to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), json::object(&metric_fields)),
        ])
    );
    ExitCode::SUCCESS
}

fn notes(record: &mut Vec<(String, String)>, phase: &Phase) {
    for (key, value) in &phase.notes {
        record.push((key.to_string(), json::string(value)));
    }
}

/// Host, build and configuration facts every result carries.
fn host_record(args: &Args) -> Vec<(String, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let (_, loop_kind) =
        WORKLOADS.iter().find(|(name, _)| *name == args.workload).expect("validated workload");
    vec![
        ("workload".into(), json::string(&args.workload)),
        ("loop".into(), json::string(loop_kind)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json::number(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), perfbench::host_cores().to_string()),
        (
            "pool_size".into(),
            if args.workload == "kvs_pooled_local" {
                pooled::pool_size().to_string()
            } else {
                json::string("none: no SessionRuntime")
            },
        ),
        (
            "cpu_affinity".into(),
            json::string(
                &probe::proc_status("Cpus_allowed_list").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("git_rev".into(), json::string(&env("PERFBENCH_GIT_REV"))),
        ("source_digest".into(), json::string(&env("PERFBENCH_SOURCE_DIGEST"))),
        ("rustc".into(), json::string(&env("PERFBENCH_RUSTC"))),
        ("profile".into(), json::string(if cfg!(debug_assertions) { "debug" } else { "release" })),
        // The run refuses to start under any CHORUS_* override.
        ("chorus_env_overrides".into(), "{}".into()),
    ]
}

/// The ROADMAP item-1 rungs from the traced half: handler → wire →
/// session plumbing → transport send → deliver/wake → scheduler hop →
/// socket. A rung the workload does not exercise prints as n/a.
fn print_ladder(
    workload: &str,
    metrics: &[(&str, f64, &str)],
    table: &[(Name, trace::NameStats)],
    traced: &Phase,
) {
    let get = |name: &str| metrics.iter().find(|(n, _, _)| *n == name).map_or(0.0, |(_, v, _)| *v);
    let self_ns = |name: Name| {
        table.iter().find(|(n, _)| *n == name).map(|(_, s)| s.self_ns as f64 / s.count as f64)
    };
    let plumbing = self_ns(Name::Resume)
        .map(|v| (v, "self ns per runtime.resume"))
        .or_else(|| self_ns(Name::Session).map(|v| (v, "self ns per session.epp_and_run")));
    let rows: Vec<(&str, Option<f64>, &str)> = vec![
        ("0 handler", Some(get("handler.ns")), "ns per request (handler.ns)"),
        (
            "1 wire codec",
            Some(get("wire.encode_ns") + get("wire.decode_ns")),
            "ns per message, encode + decode",
        ),
        ("2 session plumbing", plumbing.map(|(v, _)| v), plumbing.map_or("", |(_, s)| s)),
        (
            "3 transport send",
            Some(get("transport.send_ns")),
            "ns per send_frame (transport.send_ns)",
        ),
        ("4 deliver", Some(get("session.deliver_p50_us") * 1e3), "ns p50 on_send -> on_receive"),
        (
            "5 scheduler hop",
            Some(get("runtime.wake_to_resume_p50_us") * 1e3),
            "ns p50 waker fired -> resume",
        ),
        (
            "6 socket",
            Some(get("transport.recv_block_us") * 1e3).filter(|_| workload == "kvs_tcp_sizes"),
            "ns per receive_frame blocked on the link",
        ),
    ];
    eprintln!(
        "ladder ({workload}, traced half: {:.0} ops/s, p50 {:.1} us):",
        traced.meter.ops_per_s(),
        traced.meter.latency_us(0.5)
    );
    for (rung, value, source) in rows {
        match value.filter(|v| *v > 0.0) {
            Some(v) => eprintln!("  {rung:<20} {v:>12.0}  {source}"),
            None => eprintln!("  {rung:<20} {:>12}", "n/a"),
        }
    }
}
