//! The repository benchmark: seeded closed-loop workloads over the
//! chorus crates, end-to-end metrics with tracing off, and a traced run
//! that attributes time to the layers (wire codec, KVS handler, session,
//! runtime, transports, cluster).
//!
//! `perfbench/run.py` builds this package and runs it; see `main.rs` for
//! the command line and the output format.

pub mod gen;
pub mod probe;
pub mod trace;
pub mod workloads;

use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// End-to-end metrics, printed with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("goodput_mib_per_s", "MiB/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("latency_p99_us", "us"),
    ("error_rate", "ratio"),
    ("reconfig_p50_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("handler.ns", "ns"),
    ("session.msgs_per_op", "count"),
    ("session.bytes_per_op", "B"),
    ("session.deliver_p50_us", "us"),
    ("session.deliver_p99_us", "us"),
    ("transport.send_ns", "ns"),
    ("transport.recv_block_us", "us"),
    ("transport.try_recv_hit_ratio", "ratio"),
    ("transport.waker_ready_ratio", "ratio"),
    ("runtime.spawn_ns", "ns"),
    ("runtime.resume_ns", "ns"),
    ("runtime.resumes_per_session", "count"),
    ("runtime.wake_to_resume_p50_us", "us"),
    ("runtime.wake_to_resume_p99_us", "us"),
    ("tcp.frames_per_batch", "count"),
    ("tcp.batches_per_op", "count"),
    ("tcp.replayed_frames", "count"),
    ("tcp.reconnects", "count"),
    ("sim.frames_per_op", "count"),
    ("sim.vticks_per_op", "count"),
    ("kvs.put_p50_us", "us"),
    ("kvs.get_p50_us", "us"),
    ("kvs.migrating_over_steady", "ratio"),
    ("kvs.precopy_ms", "ms"),
    ("kvs.finalize_ms", "ms"),
    ("kvs.freeze_frames", "count"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.cpu_util", "ratio"),
    ("proc.allocs_per_op", "count"),
    ("proc.rss_growth_bytes_per_op", "B"),
    ("trace.overhead_frac", "ratio"),
];

/// Setup batches timed in an end-to-end run; `setup_s` is the median of
/// the batches' mean setup time.
pub const SETUP_BATCHES: usize = 3;

/// Setups per batch. A setup that connects over TCP takes one of two
/// durations (its handshake lands before or after a link poll tick,
/// about 100 ms apart); averaging within a batch keeps the median over
/// batches from flipping between them.
pub const SETUP_BATCH: usize = 5;

/// Windows a measured phase is cut into; rates and latency quantiles
/// are reported as the median over windows, so a burst of host noise
/// shorter than half the run moves them little.
pub const WINDOWS: usize = 20;

/// One window of a measured phase: the ops that completed in it.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub bytes: u64,
    pub latencies_ns: Vec<u64>,
    /// The window's length.
    pub secs: f64,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the window.
    pub steal: f64,
}

/// Process counters sampled at the edges of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub at: Instant,
    pub cpu: Duration,
    pub allocs: u64,
    pub rss: u64,
}

impl ProcSample {
    pub fn now() -> Self {
        ProcSample {
            at: Instant::now(),
            cpu: probe::cpu_time(),
            allocs: probe::allocs(),
            rss: probe::proc_kib("VmRSS"),
        }
    }
}

/// Records one closed-loop phase: verified ops with their latency and
/// application bytes, failures, and wrong answers, cut into windows of
/// completion time.
#[derive(Debug)]
pub struct Meter {
    end: Instant,
    window: Duration,
    current: Window,
    current_end: Instant,
    steal_mark: u64,
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few wrong answers (each also counts as failed).
    pub wrong: Vec<String>,
    pub begin: ProcSample,
    pub finish: Option<ProcSample>,
    /// Stop after this many attempted ops (warm-ups), if set.
    op_limit: Option<u64>,
    /// Sample VmHWM when this many ops have been attempted.
    rss_at: u64,
    /// VmHWM (bytes) sampled at `rss_at` ops.
    pub rss_at_ops: Option<u64>,
}

impl Meter {
    fn new(seconds: f64, rss_at: u64) -> Self {
        let begin = ProcSample::now();
        let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
        Meter {
            end: begin.at + Duration::from_secs_f64(seconds),
            window,
            current: Window::default(),
            current_end: begin.at + window,
            steal_mark: probe::steal_ticks(),
            windows: Vec::with_capacity(WINDOWS),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            begin,
            finish: None,
            op_limit: None,
            rss_at,
            rss_at_ops: None,
        }
    }

    /// A warm-up phase: `ops` ops, however long they take.
    pub fn warmup(ops: u64) -> Self {
        let mut meter = Meter::new(3600.0, u64::MAX);
        meter.op_limit = Some(ops);
        meter
    }

    /// Whether the phase's time (or op budget) is up: the load thread stops
    /// issuing and drains what is in flight.
    pub fn done(&self, now: Instant) -> bool {
        now >= self.end || self.op_limit.is_some_and(|limit| self.attempted >= limit)
    }

    fn roll(&mut self, now: Instant) {
        while now >= self.current_end && self.windows.len() < WINDOWS {
            self.current.secs = self.window.as_secs_f64();
            let steal = probe::steal_ticks();
            let cpu_ticks = self.current.secs * 100.0 * host_cores() as f64;
            self.current.steal = steal.saturating_sub(self.steal_mark) as f64 / cpu_ticks;
            self.steal_mark = steal;
            self.windows.push(std::mem::take(&mut self.current));
            self.current_end += self.window;
        }
    }

    /// A verified op issued at `issued` completed at `now`.
    pub fn ok(&mut self, issued: Instant, now: Instant, bytes: u64) {
        self.roll(now);
        self.attempted += 1;
        if self.attempted == self.rss_at {
            self.rss_at_ops = Some(probe::proc_kib("VmHWM"));
        }
        if self.windows.len() < WINDOWS {
            self.current.ops += 1;
            self.current.bytes += bytes;
            self.current.latencies_ns.push(now.duration_since(issued).as_nanos() as u64);
        }
    }

    /// An op failed with a typed error (or a watchdog trip).
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Takes over the failures and wrong answers of `other` (a warm-up),
    /// so none goes unreported.
    fn absorb(&mut self, other: &Meter) {
        self.attempted += other.failed;
        self.failed += other.failed;
        self.wrong.extend(other.wrong.iter().cloned());
        self.wrong.truncate(5);
    }

    /// An op returned a wrong answer: it fails, and so does the run.
    pub fn wrong(&mut self, what: String) {
        self.fail();
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        trace::median(&self.windows_ops_per_s())
    }

    pub fn windows_ops_per_s(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.ops as f64 / w.secs).collect()
    }

    pub fn goodput_mib_per_s(&self) -> f64 {
        let values: Vec<f64> =
            self.windows.iter().map(|w| w.bytes as f64 / w.secs / (1024.0 * 1024.0)).collect();
        trace::median(&values)
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        trace::median(&self.windows_latency_us(q))
    }

    pub fn windows_latency_us(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| {
                let mut sorted = w.latencies_ns.clone();
                sorted.sort_unstable();
                trace::quantile_sorted(&sorted, q) / 1e3
            })
            .collect()
    }

    /// Latency samples across all windows.
    pub fn samples(&self) -> u64 {
        self.windows.iter().map(|w| w.latencies_ns.len() as u64).sum()
    }

    pub fn min_window_samples(&self) -> u64 {
        self.windows.iter().map(|w| w.latencies_ns.len() as u64).min().unwrap_or(0)
    }

    /// Process counters over the phase: (cpu µs per op, cpu utilization
    /// over wall time × nproc, allocations per op, RSS growth per op).
    pub fn proc_per_op(&self) -> (f64, f64, f64, f64) {
        let finish = self.finish.expect("phase closed");
        let ops = self.attempted.max(1) as f64;
        let cpu = (finish.cpu - self.begin.cpu).as_secs_f64();
        let wall = finish.at.duration_since(self.begin.at).as_secs_f64();
        let cores = host_cores() as f64;
        (
            cpu * 1e6 / ops,
            cpu / (wall * cores),
            (finish.allocs - self.begin.allocs) as f64 / ops,
            (finish.rss as f64 - self.begin.rss as f64) / ops,
        )
    }
}

/// Measures a closed loop for `seconds`: `drive` runs it until
/// [`Meter::done`] and drains it. Failures of the warm-ups carry over;
/// VmHWM is sampled once `rss_at` ops have been attempted.
pub fn measure(seconds: f64, rss_at: u64, warm: &Meter, drive: impl FnOnce(&mut Meter)) -> Meter {
    let mut meter = Meter::new(seconds, rss_at);
    meter.absorb(warm);
    drive(&mut meter);
    meter.roll(Instant::now());
    meter.finish = Some(ProcSample::now());
    meter
}

/// Everything one workload phase produced.
#[derive(Debug)]
pub struct Phase {
    /// Mean wall time of one setup (build the topology, complete a first
    /// verified op, warm up), per batch.
    pub setups: Vec<f64>,
    pub meter: Meter,
    /// Per-layer figures the workload measured (traced phases; some
    /// counts are measured untraced too).
    pub layers: Vec<(&'static str, f64)>,
    /// Reconfiguration times (ms), cluster workload only.
    pub reconfig_ms: Vec<f64>,
    /// Free-form facts for the record line.
    pub notes: Vec<(&'static str, String)>,
}

impl Phase {
    pub fn new(setups: Vec<f64>, meter: Meter) -> Self {
        Phase { setups, meter, layers: Vec::new(), reconfig_ms: Vec::new(), notes: Vec::new() }
    }
}

/// Sets a workload up in `batches` batches of [`SETUP_BATCH`] setups,
/// keeping the last, and returns each batch's mean setup time in
/// seconds, the kept rig, and the warm-ups' failures. A setup is
/// everything before measuring: `f` builds the topology, completes its
/// first verified op, and warms it up with `warmup_ops` ops recorded in
/// the meter it is given, so caches fill and lazy set-up ends before
/// timing. Tearing a setup down is not timed.
pub fn repeat_setup<R>(
    batches: usize,
    warmup_ops: u64,
    mut f: impl FnMut(&mut Meter) -> R,
) -> (Vec<f64>, R, Meter) {
    let mut times = Vec::with_capacity(batches);
    let mut failures = Meter::warmup(0);
    let mut last = None;
    for _ in 0..batches.max(1) {
        let mut spent = Duration::ZERO;
        for _ in 0..SETUP_BATCH {
            drop(last.take());
            let start = Instant::now();
            let mut warm = Meter::warmup(warmup_ops);
            let rig = f(&mut warm);
            spent += start.elapsed();
            failures.absorb(&warm);
            last = Some(rig);
        }
        times.push(spent.as_secs_f64() / SETUP_BATCH as f64);
    }
    (times, last.expect("at least one setup"), failures)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `CHORUS_*` environment overrides in effect.
pub fn chorus_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("CHORUS_")).collect();
    vars.sort();
    vars
}

/// Minimal JSON writing for the output lines.
pub mod json {
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A finite number with all its digits.
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    pub fn object(fields: &[(String, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}
