//! Spans, self time and lock-free histograms for the traced run.
//!
//! Spans live in one preallocated log: a fixed array of slots claimed by
//! an atomic cursor, so recording a span never allocates. Each span
//! carries its name, start, end, the span that was open on the same
//! thread when it started (its parent), and the session id as the
//! request id. The log is written out when the run ends; self times are
//! computed from it afterwards.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span names the benchmark's wrappers record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Name {
    /// One op issued by the load thread, from issue to verified result.
    Op,
    /// A blocking `Session::epp_and_run`.
    Session,
    /// `SessionRuntime::spawn`.
    Spawn,
    /// One `RoleProgram::resume`.
    Resume,
    /// `SessionTransport::send_frame`.
    Send,
    /// `SessionTransport::receive_frame`.
    RecvBlock,
    /// `SessionTransport::try_receive_frame`.
    TryRecv,
    /// `SessionTransport::register_waker`.
    Register,
    /// `SimCluster::put` / `get`.
    ClusterOp,
    /// `SimCluster::precopy`.
    Precopy,
    /// `SimCluster::finalize`.
    Finalize,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::Op,
        Name::Session,
        Name::Spawn,
        Name::Resume,
        Name::Send,
        Name::RecvBlock,
        Name::TryRecv,
        Name::Register,
        Name::ClusterOp,
        Name::Precopy,
        Name::Finalize,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Session => "session.epp_and_run",
            Name::Spawn => "runtime.spawn",
            Name::Resume => "runtime.resume",
            Name::Send => "transport.send_frame",
            Name::RecvBlock => "transport.receive_frame",
            Name::TryRecv => "transport.try_receive_frame",
            Name::Register => "transport.register_waker",
            Name::ClusterOp => "kvs.cluster_op",
            Name::Precopy => "kvs.precopy",
            Name::Finalize => "kvs.finalize",
        }
    }

    fn from_u32(raw: u32) -> Name {
        Name::ALL[raw as usize]
    }
}

/// Marks "no parent".
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the log.
    pub parent: Option<u32>,
    /// The session id of the op the span served.
    pub request: u64,
}

#[derive(Default)]
struct Slot {
    name: AtomicU32,
    parent: AtomicU32,
    start: AtomicU64,
    end: AtomicU64,
    request: AtomicU64,
}

/// The preallocated span log.
pub struct SpanLog {
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    /// Record spans of sessions whose id is a multiple of this.
    sample_every: AtomicU64,
    on: AtomicBool,
}

static LOG: OnceLock<SpanLog> = OnceLock::new();

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(NO_PARENT) };
}

/// Allocates the log (once per process) and starts recording spans of
/// every `sample_every`-th session.
pub fn enable(capacity: usize, sample_every: u64) {
    let log = LOG.get_or_init(|| SpanLog {
        slots: (0..capacity).map(|_| Slot::default()).collect(),
        cursor: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
        sample_every: AtomicU64::new(1),
        on: AtomicBool::new(false),
    });
    log.sample_every.store(sample_every.max(1), Ordering::Relaxed);
    log.on.store(true, Ordering::Release);
}

/// Stops recording; spans already open still close.
pub fn disable() {
    if let Some(log) = LOG.get() {
        log.on.store(false, Ordering::Release);
    }
}

fn sampled(request: u64) -> Option<&'static SpanLog> {
    let log = LOG.get()?;
    (log.on.load(Ordering::Acquire)
        && request.is_multiple_of(log.sample_every.load(Ordering::Relaxed)))
    .then_some(log)
}

/// An open span; closing it (drop) stamps the end.
pub struct Guard {
    log: &'static SpanLog,
    index: u32,
    prev: u32,
}

/// Opens a span for `request` if tracing is on and the request is
/// sampled. Its parent is the innermost span open on this thread.
pub fn span(name: Name, request: u64) -> Option<Guard> {
    span_under(name, request, None)
}

/// Like [`span`], but a span opened with no span open on this thread
/// takes `cause` (a span on another thread, e.g. the load thread's op) as its
/// parent.
pub fn span_under(name: Name, request: u64, cause: Option<u32>) -> Option<Guard> {
    let log = sampled(request)?;
    let index = log.cursor.fetch_add(1, Ordering::Relaxed);
    if index >= log.slots.len() {
        log.dropped.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let slot = &log.slots[index];
    let prev = CURRENT.with(|c| c.replace(index as u32));
    slot.name.store(name as u32, Ordering::Relaxed);
    let parent = if prev == NO_PARENT { cause.unwrap_or(NO_PARENT) } else { prev };
    slot.parent.store(parent, Ordering::Relaxed);
    slot.request.store(request, Ordering::Relaxed);
    slot.start.store(now_ns(), Ordering::Relaxed);
    Some(Guard { log, index: index as u32, prev })
}

impl Guard {
    /// The span's index in the log, for [`span_under`].
    pub fn index(&self) -> u32 {
        self.index
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.log.slots[self.index as usize].end.store(now_ns(), Ordering::Relaxed);
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Every span recorded so far, in claim order, plus the number dropped
/// because the log was full. Call after all recording threads joined.
pub fn collect() -> (Vec<Span>, u64) {
    let Some(log) = LOG.get() else { return (Vec::new(), 0) };
    let used = log.cursor.load(Ordering::Acquire).min(log.slots.len());
    let spans = log.slots[..used]
        .iter()
        .map(|slot| {
            let parent = slot.parent.load(Ordering::Relaxed);
            Span {
                name: Name::from_u32(slot.name.load(Ordering::Relaxed)),
                start: slot.start.load(Ordering::Relaxed),
                end: slot.end.load(Ordering::Relaxed),
                parent: (parent != NO_PARENT).then_some(parent),
                request: slot.request.load(Ordering::Relaxed),
            }
        })
        .collect();
    (spans, log.dropped.load(Ordering::Relaxed))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may nest (a grandchild is
/// accounted to its own parent, not here) and may overlap each other
/// (the covered part is their union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if let Some(list) = children.get_mut(parent as usize) {
                list.push((span.start, span.end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end.saturating_sub(span.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Writes the span log as tab-separated rows with a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns")?;
    for (id, (span, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            span.name.as_str(),
            span.request,
            span.start,
            span.end
        )?;
    }
    out.flush()
}

/// Per-name aggregate of the span log.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span], selfs: &[u64]) -> Vec<(Name, NameStats)> {
    let mut stats: Vec<NameStats> = vec![NameStats::default(); Name::ALL.len()];
    for (span, own) in spans.iter().zip(selfs) {
        let s = &mut stats[span.name as usize];
        s.count += 1;
        s.total_ns += span.end.saturating_sub(span.start);
        s.self_ns += own;
    }
    Name::ALL.iter().copied().zip(stats).filter(|(_, s)| s.count > 0).collect()
}

/// A lock-free log-linear histogram of nanosecond values, plus an exact
/// sum and count.
pub struct Histo {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Mantissa bits per power of two: 32 sub-buckets, about 3% wide.
const SUB_BITS: u32 = 5;
const SUB: u32 = 1 << SUB_BITS;

impl Default for Histo {
    fn default() -> Self {
        Histo {
            buckets: (0..64 * SUB).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histo {
    fn bucket(value: u64) -> usize {
        if value < u64::from(SUB) {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let mantissa = (value >> (exp - SUB_BITS)) & u64::from(SUB - 1);
        ((exp - SUB_BITS + 1) * SUB) as usize + mantissa as usize
    }

    fn lower_bound(bucket: usize) -> f64 {
        if bucket < SUB as usize {
            return bucket as f64;
        }
        let exp = bucket as i32 / SUB as i32 + SUB_BITS as i32 - 1;
        let mantissa = (bucket % SUB as usize) as f64;
        (f64::from(SUB) + mantissa) * 2f64.powi(exp - SUB_BITS as i32)
    }

    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        self.sum.load(Ordering::Relaxed) as f64 / self.count().max(1) as f64
    }

    /// The `q`-quantile, as the midpoint of its bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let lo = Self::lower_bound(i);
                let hi = Self::lower_bound(i + 1);
                return (lo + hi) / 2.0;
            }
        }
        0.0
    }
}

/// The mean of all values recorded in `histos` together.
pub fn mean_of<'a>(histos: impl IntoIterator<Item = &'a Histo>) -> f64 {
    let (sum, count) = histos
        .into_iter()
        .fold((0, 0), |(sum, count), h| (sum + h.sum.load(Ordering::Relaxed), count + h.count()));
    sum as f64 / count.max(1) as f64
}

/// The `q`-quantile of `sorted` (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name: Name::Op, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0, 100) root; 1: [10, 40) child; 2: [20, 30) grandchild
        // under 1; 3: [50, 60) second child of the root.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10, 50) and [30, 70) overlap on [30, 50): together
        // they cover [10, 70), 60 ns of the root's 100.
        let spans = [span(0, 100, None), span(10, 50, Some(0)), span(30, 70, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in a sibling adds nothing.
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // Children that start before or end after their parent only
        // cover the parent's own interval: [10, 30) and [80, 100).
        let spans = [span(10, 100, None), span(80, 150, Some(0)), span(0, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = Histo::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((485_000.0..=515_000.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((960_000.0..=1_020_000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.count(), 1000);
        for v in [0u64, 1, 31, 32, 33, 1023, 1024, 1_000_003, (1 << 40) + 12_345] {
            let b = Histo::bucket(v);
            let (lo, hi) = (Histo::lower_bound(b), Histo::lower_bound(b + 1));
            assert!(lo <= v as f64 && (v as f64) < hi.max(lo + 1.0), "{v}: [{lo}, {hi})");
            assert!(hi - lo <= (lo * 0.04).max(1.0), "{v}: bucket [{lo}, {hi}) too wide");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
