//! The live metrics plane: deterministic counters, gauges and log-scale
//! histograms sampled into ring-buffered time-series, plus the per-job
//! flight recorder and its postmortem bundles.
//!
//! Where the tracer (`trace`) records *individual* events for offline
//! timeline inspection, this module keeps *live* aggregates cheap enough
//! to read while a run is in flight: stream queue depths, pen buildup,
//! fault counts, cache traffic — the production-shaped signals that only
//! show up mid-run. Design rules, in the same spirit as the tracer:
//!
//! * **Zero-cost when disabled.** Every handle ([`Counter`], [`Gauge`],
//!   [`Histogram`]) is an `Option<Arc<..>>`; a disabled handle is `None`
//!   and every operation is one branch. A build that never calls
//!   [`Metrics::new`] pays nothing.
//! * **Allocation-free hot path.** Handles are interned once at
//!   registration ([`MetricId`]); increments are single relaxed atomic
//!   ops on pre-allocated cells. Histogram buckets are fixed-size arrays
//!   allocated at registration.
//! * **Deterministic.** Sampling runs on the *simulated* clock at a fixed
//!   cadence — no wall clocks — so identical seeds produce byte-identical
//!   time-series, Prometheus and JSON exports (single-threaded runs; a
//!   multi-threaded fabric interleaves samples nondeterministically, like
//!   any shared counter).

use crate::faults::FaultLedger;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sub-buckets per power of two in a [`LogHistogram`] (log-linear layout:
/// 16 sub-buckets bound the relative quantile error by 1/16 ≈ 6%).
const SUBS: usize = 16;
/// Bucket count: values below [`SUBS`] get exact unit buckets, larger
/// values get [`SUBS`] sub-buckets per power of two up to `u64::MAX`.
const NBUCKETS: usize = SUBS * 61;

/// Index of the bucket holding `v` (nanoseconds).
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 4
    let decade = msb - 3;
    let sub = ((v >> (msb - 4)) & (SUBS as u64 - 1)) as usize;
    (decade * SUBS + sub).min(NBUCKETS - 1)
}

/// Inclusive upper bound of bucket `idx` — the value percentiles report.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let decade = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    let msb = decade + 3;
    let step = 1u64 << (msb - 4);
    let lower = (1u64 << msb) + sub * step;
    lower.saturating_add(step - 1)
}

/// A fixed-bucket log-linear histogram over integer nanoseconds.
///
/// Buckets are allocated lazily on the first `record` (one allocation per
/// histogram lifetime, amortized off the steady state) and never resized,
/// so recording is pure index arithmetic. Percentiles are *exact over the
/// bucket layout*: deterministic bucket upper bounds, clamped to the true
/// observed maximum — two identical runs report identical p50/p95/p99.
/// Count, sum, minimum and maximum are exact. This is the type for
/// per-`GWork` data, whose volume rules out keeping every value
/// ([`crate::Samples`] keeps the low-volume ones exactly).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Option<Box<[u64; NBUCKETS]>>,
}

impl LogHistogram {
    /// An empty histogram (no bucket storage until the first record).
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimTime) {
        self.record_nanos(d.as_nanos());
    }

    /// Record one raw nanosecond value.
    pub fn record_nanos(&mut self, v: u64) {
        let buckets = self
            .buckets
            .get_or_insert_with(|| Box::new([0u64; NBUCKETS]));
        buckets[bucket_of(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values (saturating), in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (zero when empty).
    pub fn min(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.min })
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.max })
    }

    /// Mean of recorded values in seconds (zero when empty): the exact
    /// sum over the count.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / 1e9 / self.count as f64
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        let buckets = self
            .buckets
            .get_or_insert_with(|| Box::new([0u64; NBUCKETS]));
        if let Some(theirs) = &other.buckets {
            for (b, t) in buckets.iter_mut().zip(theirs.iter()) {
                *b += t;
            }
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a deterministic bucket upper
    /// bound, clamped to the observed extrema. Zero when empty.
    pub fn quantile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        if let Some(buckets) = &self.buckets {
            for (idx, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return SimTime::from_nanos(bucket_upper(idx).clamp(self.min, self.max));
                }
            }
        }
        SimTime::from_nanos(self.max)
    }

    /// Median (p50).
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimTime {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }
}

/// Interned identity of a registered metric: its index in registration
/// order. Stable for the life of the [`Metrics`] plane, so hot paths hold
/// the id (or the cell handle itself) and never touch the name again.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(pub u32);

/// What a registered metric is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing count.
    Counter,
    /// Point-in-time level (queue depth, live devices).
    Gauge,
    /// Log-linear duration histogram (exported as quantiles).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

/// A counter handle: one relaxed atomic add per increment, one branch
/// when the plane is disabled. Cheap to clone (it is an `Arc`).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (the disabled plane hands these out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (zero when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A [`Counter`] fed by one owner through `&mut self`, for per-work feeds:
/// an increment is a plain add to a pending count, and
/// [`Tally::publish`] moves the pending count to the shared cell in one
/// atomic add. The owner publishes before every sample it triggers and at
/// quiescence (a drain's end), so every sample and export reads exactly
/// what a per-increment `Counter` would have shown, for the price of a
/// plain add per increment instead of a locked one.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    cell: Counter,
    pending: u64,
}

impl Tally {
    /// A tally feeding `cell` (a disabled cell makes publishing a no-op).
    pub fn new(cell: Counter) -> Self {
        Tally { cell, pending: 0 }
    }

    /// Add `n`, pending until the next publish.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending = self.pending.wrapping_add(n);
    }

    /// Add one, pending until the next publish.
    #[inline]
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Move the pending count to the shared cell.
    #[inline]
    pub fn publish(&mut self) {
        let n = std::mem::take(&mut self.pending);
        if n != 0 {
            self.cell.add(n);
        }
    }
}

/// A gauge handle: a settable level. Same cost model as [`Counter`].
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge (the disabled plane hands these out).
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Current level (zero when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A shared histogram handle. Records take a short mutex on the cell —
/// histogram feeds are event-scoped (pen releases, breaches), not
/// per-work, so contention is negligible.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<Mutex<LogHistogram>>>);

impl Histogram {
    /// A no-op histogram (the disabled plane hands these out).
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: SimTime) {
        if let Some(h) = &self.0 {
            lock(h).record(d);
        }
    }

    /// A snapshot of the histogram (empty when disabled).
    pub fn snapshot(&self) -> LogHistogram {
        self.0
            .as_ref()
            .map_or_else(LogHistogram::new, |h| lock(h).clone())
    }
}

/// Poison-tolerant lock: metrics must keep working after a panicking
/// thread held the mutex (same policy as the tracer).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<LogHistogram>>),
}

struct Series {
    name: String,
    help: String,
    kind: MetricKind,
    cell: Cell,
}

struct RegState {
    series: Vec<Series>,
    by_name: BTreeMap<String, u32>,
    /// Ring of time-series samples: `(tick nanos, counter/gauge values in
    /// registration order)`.
    samples: VecDeque<(u64, Vec<u64>)>,
}

struct MetricsInner {
    state: Mutex<RegState>,
    /// Next sampling tick in nanoseconds (fast-path check, no lock).
    next_due: AtomicU64,
    cadence: u64,
    sample_cap: usize,
}

/// The shared metrics plane. Mirrors [`crate::Tracer`]'s cost model: an
/// `Option<Arc<..>>` cloned into every layer, `None` (disabled) by
/// default so instrumentation compiles to a single branch.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl Metrics {
    /// Default sampling cadence on the simulated clock.
    pub const DEFAULT_CADENCE: SimTime = SimTime(1_000_000); // 1 ms
    /// Default time-series ring capacity (samples retained).
    pub const DEFAULT_SAMPLES: usize = 4096;

    /// An enabled plane sampling every `cadence` of simulated time,
    /// retaining the most recent [`Metrics::DEFAULT_SAMPLES`] ticks.
    pub fn new(cadence: SimTime) -> Self {
        let cadence = cadence.as_nanos().max(1);
        Metrics {
            inner: Some(Arc::new(MetricsInner {
                state: Mutex::new(RegState {
                    series: Vec::new(),
                    by_name: BTreeMap::new(),
                    samples: VecDeque::new(),
                }),
                next_due: AtomicU64::new(cadence),
                cadence,
                sample_cap: Self::DEFAULT_SAMPLES,
            })),
        }
    }

    /// The disabled plane: every handle it mints is a no-op.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// Whether the plane records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(&self, name: &str, help: &str, kind: MetricKind) -> Option<(MetricId, usize)> {
        let inner = self.inner.as_ref()?;
        let mut st = lock(&inner.state);
        if let Some(&id) = st.by_name.get(name) {
            return Some((MetricId(id), id as usize));
        }
        let id = st.series.len() as u32;
        let cell = match kind {
            MetricKind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Cell::Gauge(Arc::new(AtomicU64::new(0))),
            MetricKind::Histogram => Cell::Histogram(Arc::new(Mutex::new(LogHistogram::new()))),
        };
        st.series.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            cell,
        });
        st.by_name.insert(name.to_string(), id);
        Some((MetricId(id), id as usize))
    }

    /// Register (or look up) a counter. Idempotent by full series name, so
    /// layers re-attached after a membership change get the same cell.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, MetricKind::Counter) {
            None => Counter(None),
            Some((_, idx)) => {
                let inner = self.inner.as_ref().expect("registered");
                let st = lock(&inner.state);
                match &st.series[idx].cell {
                    Cell::Counter(c) => Counter(Some(Arc::clone(c))),
                    _ => Counter(None), // name re-registered under another kind
                }
            }
        }
    }

    /// Register (or look up) a gauge. Idempotent by full series name.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, MetricKind::Gauge) {
            None => Gauge(None),
            Some((_, idx)) => {
                let inner = self.inner.as_ref().expect("registered");
                let st = lock(&inner.state);
                match &st.series[idx].cell {
                    Cell::Gauge(c) => Gauge(Some(Arc::clone(c))),
                    _ => Gauge(None),
                }
            }
        }
    }

    /// Register (or look up) a histogram. Idempotent by full series name.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, MetricKind::Histogram) {
            None => Histogram(None),
            Some((_, idx)) => {
                let inner = self.inner.as_ref().expect("registered");
                let st = lock(&inner.state);
                match &st.series[idx].cell {
                    Cell::Histogram(h) => Histogram(Some(Arc::clone(h))),
                    _ => Histogram(None),
                }
            }
        }
    }

    /// Sample the plane if the simulated clock crossed the next cadence
    /// tick. The fast path — the one the hot loop pays — is a single
    /// relaxed load and compare; the slow path snapshots every counter and
    /// gauge into the time-series ring, one sample per crossed tick.
    #[inline]
    pub fn maybe_sample(&self, t: SimTime) {
        let Some(inner) = &self.inner else { return };
        if t.as_nanos() < inner.next_due.load(Ordering::Relaxed) {
            return;
        }
        self.sample_slow(inner, t);
    }

    /// Whether [`maybe_sample`](Self::maybe_sample) at `t` would take a
    /// sample: the cue for [`Tally`] owners to publish first.
    #[inline]
    pub fn sample_due(&self, t: SimTime) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| t.as_nanos() >= inner.next_due.load(Ordering::Relaxed))
    }

    fn sample_slow(&self, inner: &MetricsInner, t: SimTime) {
        let mut st = lock(&inner.state);
        // Re-check under the lock: another thread may have sampled past t.
        let mut due = inner.next_due.load(Ordering::Relaxed);
        if t.as_nanos() < due {
            return;
        }
        // A long simulated-time jump crosses many ticks: emit only the
        // ticks that would survive the ring anyway.
        let crossed = (t.as_nanos() - due) / inner.cadence + 1;
        if crossed as usize > inner.sample_cap {
            due += (crossed as usize - inner.sample_cap) as u64 * inner.cadence;
        }
        while due <= t.as_nanos() {
            let values: Vec<u64> = st
                .series
                .iter()
                .map(|s| match &s.cell {
                    Cell::Counter(c) | Cell::Gauge(c) => c.load(Ordering::Relaxed),
                    Cell::Histogram(h) => lock(h).count(),
                })
                .collect();
            if st.samples.len() >= inner.sample_cap {
                st.samples.pop_front();
            }
            st.samples.push_back((due, values));
            due += inner.cadence;
        }
        inner.next_due.store(due, Ordering::Relaxed);
    }

    /// Number of time-series samples currently retained.
    pub fn sample_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| lock(&i.state).samples.len())
    }

    /// Prometheus text-exposition export: `# HELP` / `# TYPE` headers and
    /// one line per series, sorted by name. Histograms are exported
    /// summary-style (`{quantile=..}` plus `_sum`/`_count`), with
    /// durations as integer nanoseconds so the export is byte-stable.
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else { return out };
        let st = lock(&inner.state);
        let mut order: Vec<usize> = (0..st.series.len()).collect();
        order.sort_by(|&a, &b| st.series[a].name.cmp(&st.series[b].name));
        for idx in order {
            let s = &st.series[idx];
            // The metric family is the name up to the label block.
            let family = s.name.split('{').next().unwrap_or(&s.name);
            out.push_str(&format!("# HELP {} {}\n", family, s.help));
            out.push_str(&format!("# TYPE {} {}\n", family, s.kind.as_str()));
            match &s.cell {
                Cell::Counter(c) | Cell::Gauge(c) => {
                    out.push_str(&format!("{} {}\n", s.name, c.load(Ordering::Relaxed)));
                }
                Cell::Histogram(h) => {
                    let h = lock(h);
                    let (base, labels) = split_labels(&s.name);
                    for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                        out.push_str(&format!(
                            "{base}{{{}quantile=\"{q}\"}} {}\n",
                            labels,
                            v.as_nanos()
                        ));
                    }
                    out.push_str(&format!("{base}_sum{} {}\n", brace(&labels), h.sum_nanos()));
                    out.push_str(&format!("{base}_count{} {}\n", brace(&labels), h.count()));
                }
            }
        }
        out
    }

    /// Deterministic JSON export: the registry (name, kind, value or
    /// quantiles per metric, registration order) plus the ring-buffered
    /// time-series (`ticks` of `[t_ns, v0, v1, ..]` rows, column names in
    /// `columns`).
    pub fn export_json(&self) -> String {
        let mut out = String::from("{");
        let Some(inner) = &self.inner else {
            out.push('}');
            return out;
        };
        let st = lock(&inner.state);
        out.push_str(&format!("\"cadence_ns\":{},\"metrics\":[", inner.cadence));
        for (i, s) in st.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"kind\":\"{}\",",
                json_str(&s.name),
                s.kind.as_str()
            ));
            match &s.cell {
                Cell::Counter(c) | Cell::Gauge(c) => {
                    out.push_str(&format!("\"value\":{}}}", c.load(Ordering::Relaxed)));
                }
                Cell::Histogram(h) => {
                    let h = lock(h);
                    out.push_str(&format!(
                        "\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                        h.count(),
                        h.sum_nanos(),
                        h.p50().as_nanos(),
                        h.p95().as_nanos(),
                        h.p99().as_nanos()
                    ));
                }
            }
        }
        out.push_str("],\"columns\":[");
        for (i, s) in st.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(&s.name));
        }
        out.push_str("],\"ticks\":[");
        for (i, (at, values)) in st.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{at}"));
            // Older samples may predate later registrations; pad with 0 so
            // every row has one column per registered series.
            for c in 0..st.series.len() {
                out.push_str(&format!(",{}", values.get(c).copied().unwrap_or(0)));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Split `name{labels}` into `(name, "label=..,")` for summary suffixes.
fn split_labels(name: &str) -> (&str, String) {
    match name.find('{') {
        Some(at) => {
            let base = &name[..at];
            let inner = name[at + 1..].trim_end_matches('}');
            (base, format!("{inner},"))
        }
        None => (name, String::new()),
    }
}

/// Re-brace a label prefix for `_sum`/`_count` lines (empty when no labels).
fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.trim_end_matches(','))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The service-level objective the flight recorder watches: a work whose
/// end-to-end latency exceeds `max_total` is an SLO breach and arms a
/// postmortem dump.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloPolicy {
    /// Breach threshold on a work's submission-to-completion latency.
    pub max_total: SimTime,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            max_total: SimTime::MAX, // never breaches unless configured
        }
    }
}

impl SloPolicy {
    /// A policy breaching when any work's total latency exceeds `max`.
    pub fn max_latency(max: SimTime) -> Self {
        SloPolicy { max_total: max }
    }

    /// Whether `total` breaches the objective.
    #[inline]
    pub fn breached(&self, total: SimTime) -> bool {
        total > self.max_total
    }
}

/// What a flight-recorder event records. Compact by design (`Copy`, no
/// strings): pushing one is ring-index arithmetic, safe at event rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecKind {
    /// A scripted or random fault fired on a device.
    FaultInjected,
    /// A transient kernel failure was absorbed.
    TransientFault,
    /// The watchdog declared a kernel hung.
    HangDetected,
    /// A work was resubmitted after a recoverable failure.
    Retry,
    /// A device fell off the bus permanently.
    DeviceLost,
    /// A device entered the degraded-throughput regime.
    DeviceDegraded,
    /// Queued work was evacuated off a dead device.
    StealOnDrain,
    /// A device node joined the live complement.
    MemberJoined,
    /// A device node left the complement gracefully.
    MemberLeft,
    /// A work was abandoned permanently.
    WorkFailed,
    /// A work ran on the host CPU because no GPU was usable.
    CpuFallback,
    /// The cost model placed a work on the host CPU by choice.
    HybridCpu,
    /// A submission was parked by queued-bytes backpressure.
    WorkPenned,
    /// A durable snapshot of the job's progress was written.
    CheckpointWritten,
    /// The job restored progress from a durable snapshot.
    SnapshotRestored,
    /// A work's end-to-end latency breached the SLO policy.
    SloBreach,
}

impl RecKind {
    /// Number of kinds.
    pub const COUNT: usize = RecKind::SloBreach as usize + 1;

    /// Stable lowercase name used by the postmortem JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            RecKind::FaultInjected => "fault-injected",
            RecKind::TransientFault => "transient-fault",
            RecKind::HangDetected => "hang-detected",
            RecKind::Retry => "retry",
            RecKind::DeviceLost => "device-lost",
            RecKind::DeviceDegraded => "device-degraded",
            RecKind::StealOnDrain => "steal-on-drain",
            RecKind::MemberJoined => "member-joined",
            RecKind::MemberLeft => "member-left",
            RecKind::WorkFailed => "work-failed",
            RecKind::CpuFallback => "cpu-fallback",
            RecKind::HybridCpu => "hybrid-cpu",
            RecKind::WorkPenned => "work-penned",
            RecKind::CheckpointWritten => "checkpoint-written",
            RecKind::SnapshotRestored => "snapshot-restored",
            RecKind::SloBreach => "slo-breach",
        }
    }
}

/// Marker for "no device" in [`RecEvent::gpu`].
pub const REC_NO_GPU: u32 = u32::MAX;

/// One structured flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecEvent {
    /// Simulated instant the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: RecKind,
    /// Worker the event belongs to.
    pub worker: u32,
    /// Device index, or [`REC_NO_GPU`].
    pub gpu: u32,
    /// Kind-specific detail (retry attempt, works stolen, latency ns, …).
    pub a: u64,
}

impl RecEvent {
    /// An event with no device attribution.
    pub fn new(at: SimTime, kind: RecKind, worker: u32) -> Self {
        RecEvent {
            at,
            kind,
            worker,
            gpu: REC_NO_GPU,
            a: 0,
        }
    }

    /// Attribute the event to device `gpu`.
    pub fn on_gpu(mut self, gpu: usize) -> Self {
        self.gpu = gpu as u32;
        self
    }

    /// Attach the kind-specific detail value.
    pub fn with_detail(mut self, a: u64) -> Self {
        self.a = a;
        self
    }

    fn to_json(self) -> String {
        let mut out = format!(
            "{{\"t_ns\":{},\"kind\":\"{}\",\"worker\":{}",
            self.at.as_nanos(),
            self.kind.as_str(),
            self.worker
        );
        if self.gpu != REC_NO_GPU {
            out.push_str(&format!(",\"gpu\":{}", self.gpu));
        }
        if self.a != 0 {
            out.push_str(&format!(",\"detail\":{}", self.a));
        }
        out.push('}');
        out
    }
}

/// A bounded ring of the most recent [`RecEvent`]s for one job — the
/// flight recorder proper. Capacity is reserved on the first push (one
/// allocation, off the steady state); overflow drops the oldest event and
/// counts it, so a postmortem always shows the freshest history.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    ring: VecDeque<RecEvent>,
    dropped: u64,
    /// Events ever pushed, per kind, dropped ones included.
    pushed: [u64; RecKind::COUNT],
}

impl FlightRecorder {
    /// Events retained per job.
    pub const CAPACITY: usize = 64;

    /// Record one event.
    pub fn push(&mut self, ev: RecEvent) {
        self.pushed[ev.kind as usize] += 1;
        if self.ring.capacity() == 0 {
            self.ring.reserve_exact(Self::CAPACITY);
        }
        if self.ring.len() >= Self::CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<RecEvent> {
        self.ring.iter().copied().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events of `kind` ever recorded, including those evicted since.
    pub fn recorded(&self, kind: RecKind) -> u64 {
        self.pushed[kind as usize]
    }
}

/// A postmortem: the flight recorder's dump when a fault ledger entry or
/// an SLO breach fires. Bundles the last-N structured events, the fault
/// ledger delta of the offending drain, and a pre-rendered cluster health
/// snapshot; encodes to deterministic JSON.
#[derive(Clone, Debug)]
pub struct PostmortemBundle {
    /// Fabric job id the bundle belongs to.
    pub job: u64,
    /// Per-job dump sequence number (0 for the first postmortem).
    pub seq: u64,
    /// Why the dump fired (e.g. `"fault-ledger"`, `"slo-breach"`).
    pub reason: String,
    /// Simulated instant of the dump.
    pub at: SimTime,
    /// Fault/recovery counters accrued in the offending drain.
    pub ledger_delta: FaultLedger,
    /// The flight recorder's retained events, oldest first.
    pub events: Vec<RecEvent>,
    /// Pre-rendered cluster snapshot JSON (`{}` when unavailable).
    pub snapshot_json: String,
}

impl PostmortemBundle {
    /// Deterministic file name for this bundle.
    pub fn file_name(&self) -> String {
        format!("job{}-pm{:03}.json", self.job, self.seq)
    }

    /// Deterministic JSON encoding of the bundle.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"job\":{},\"seq\":{},\"reason\":{},\"t_ns\":{},\"ledger_delta\":{},\"events\":[",
            self.job,
            self.seq,
            json_str(&self.reason),
            self.at.as_nanos(),
            self.ledger_delta.to_json()
        );
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push_str("],\"snapshot\":");
        if self.snapshot_json.is_empty() {
            out.push_str("{}");
        } else {
            out.push_str(&self.snapshot_json);
        }
        out.push('}');
        out
    }
}

/// Write `bundle` to `dir` (created if missing) under its deterministic
/// file name, returning the path.
pub fn write_postmortem(
    dir: &std::path::Path,
    bundle: &PostmortemBundle,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(bundle.file_name());
    std::fs::write(&path, bundle.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_upper = 0u64;
        for idx in 0..NBUCKETS {
            let upper = bucket_upper(idx);
            if idx > 0 {
                assert!(upper > prev_upper, "bucket {idx} upper not increasing");
                // The next bucket starts exactly one past the previous upper.
                assert_eq!(bucket_of(prev_upper + 1), idx, "gap before bucket {idx}");
            }
            assert_eq!(bucket_of(upper), idx, "upper bound maps outside bucket");
            prev_upper = upper;
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        let mut v = 17u64;
        while v < 1 << 40 {
            let upper = bucket_upper(bucket_of(v));
            assert!(upper >= v);
            assert!(
                (upper - v) as f64 / v as f64 <= 1.0 / 8.0,
                "error too large at {v}: upper {upper}"
            );
            v = v * 3 + 1;
        }
    }

    #[test]
    fn histogram_percentiles_are_exact_on_small_values() {
        let mut h = LogHistogram::new();
        for v in 1..=10u64 {
            h.record_nanos(v);
        }
        // Values < SUBS live in exact unit buckets.
        assert_eq!(h.p50().as_nanos(), 5);
        assert_eq!(h.quantile(1.0).as_nanos(), 10);
        assert_eq!(h.min().as_nanos(), 1);
        assert_eq!(h.max().as_nanos(), 10);
        assert!((h.mean() - 5.5e-9).abs() < 1e-20);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn histogram_merge_matches_combined_feed() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in [3u64, 900, 12_000, 5_000_000, 80] {
            a.record_nanos(v);
            c.record_nanos(v);
        }
        for v in [7u64, 44, 1_000_000_000] {
            b.record_nanos(v);
            c.record_nanos(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_extrema() {
        let mut h = LogHistogram::new();
        h.record_nanos(1_000_003);
        assert_eq!(h.p50(), h.max());
        assert_eq!(h.p99(), h.max());
    }

    #[test]
    fn disabled_plane_is_inert() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        let c = m.counter("x_total", "x");
        c.inc();
        assert_eq!(c.get(), 0);
        m.maybe_sample(SimTime::from_millis(5));
        assert_eq!(m.sample_count(), 0);
        assert!(m.export_prometheus().is_empty());
        assert_eq!(m.export_json(), "{}");
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let m = Metrics::new(SimTime::from_millis(1));
        let a = m.counter("gflink_retries_total", "retries");
        let b = m.counter("gflink_retries_total", "retries");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn sampling_follows_the_simulated_cadence() {
        let m = Metrics::new(SimTime::from_millis(1));
        let c = m.counter("works_total", "works");
        m.maybe_sample(SimTime::from_micros(900)); // before first tick
        assert_eq!(m.sample_count(), 0);
        c.add(5);
        m.maybe_sample(SimTime::from_micros(1100)); // crosses 1 ms
        assert_eq!(m.sample_count(), 1);
        c.add(5);
        m.maybe_sample(SimTime::from_micros(3500)); // crosses 2 ms and 3 ms
        assert_eq!(m.sample_count(), 3);
        let json = m.export_json();
        assert!(json.contains("[1000000,5]"), "first tick snapshot: {json}");
        assert!(json.contains("[3000000,10]"), "later tick snapshot: {json}");
    }

    #[test]
    fn prometheus_export_is_sorted_and_stable() {
        let m = Metrics::new(SimTime::from_millis(1));
        m.counter("z_total{worker=\"0\"}", "last").add(7);
        m.gauge("a_depth", "first").set(3);
        let h = m.histogram("lat_ns{worker=\"0\"}", "latency");
        h.record(SimTime::from_micros(10));
        let text = m.export_prometheus();
        let a = text.find("a_depth").unwrap();
        let l = text.find("lat_ns").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < l && l < z, "sorted by name: {text}");
        assert!(text.contains("# TYPE a_depth gauge"));
        assert!(text.contains("# TYPE z_total counter"));
        assert!(text.contains("z_total{worker=\"0\"} 7"));
        assert!(text.contains("lat_ns{worker=\"0\",quantile=\"0.5\"} 10000"));
        assert!(text.contains("lat_ns_count{worker=\"0\"} 1"));
        assert_eq!(text, m.export_prometheus(), "byte-stable");
    }

    #[test]
    fn flight_recorder_keeps_the_freshest_events() {
        let mut fr = FlightRecorder::default();
        assert!(fr.is_empty());
        for i in 0..(FlightRecorder::CAPACITY as u64 + 10) {
            fr.push(RecEvent::new(SimTime::from_nanos(i), RecKind::Retry, 0).with_detail(i));
        }
        assert_eq!(fr.len(), FlightRecorder::CAPACITY);
        assert_eq!(fr.dropped(), 10);
        let evs = fr.events();
        assert_eq!(evs.first().unwrap().a, 10, "oldest 10 evicted");
        assert_eq!(evs.last().unwrap().a, FlightRecorder::CAPACITY as u64 + 9);
    }

    #[test]
    fn postmortem_json_is_deterministic_and_complete() {
        let bundle = PostmortemBundle {
            job: 7,
            seq: 2,
            reason: "fault-ledger".into(),
            at: SimTime::from_millis(3),
            ledger_delta: FaultLedger {
                gpus_lost: 1,
                retries: 4,
                ..Default::default()
            },
            events: vec![
                RecEvent::new(SimTime::from_micros(10), RecKind::FaultInjected, 0).on_gpu(1),
                RecEvent::new(SimTime::from_micros(20), RecKind::DeviceLost, 0)
                    .on_gpu(1)
                    .with_detail(3),
            ],
            snapshot_json: String::new(),
        };
        let json = bundle.to_json();
        assert_eq!(json, bundle.to_json());
        assert_eq!(bundle.file_name(), "job7-pm002.json");
        assert!(json.contains("\"reason\":\"fault-ledger\""));
        assert!(json.contains("\"gpus_lost\":1"));
        assert!(json.contains("\"kind\":\"device-lost\""));
        assert!(json.contains("\"detail\":3"));
        assert!(json.contains("\"snapshot\":{}"));
    }

    #[test]
    fn slo_policy_defaults_to_never() {
        let never = SloPolicy::default();
        assert!(!never.breached(SimTime::from_secs(3600)));
        let tight = SloPolicy::max_latency(SimTime::from_millis(1));
        assert!(tight.breached(SimTime::from_millis(2)));
        assert!(!tight.breached(SimTime::from_millis(1)));
    }
}
