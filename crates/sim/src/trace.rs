//! Deterministic tracing: span, instant and counter events on the sim clock.
//!
//! Real tracers (CUPTI, Nsight, Perfetto SDK) stamp events with wall time,
//! so two runs of the same program never produce the same trace. Everything
//! in this workspace runs on the deterministic [`SimTime`] clock, which
//! buys a property real tracers cannot have: **bit-reproducible traces** —
//! the same seed and fault plan produce a byte-identical exported trace.
//! That turns the trace from a profiling aid into a correctness artifact:
//! tests diff whole traces, not just digests.
//!
//! The model is deliberately small:
//!
//! * a [`TraceEvent`] is a span (`start..end`), an instant, or a counter
//!   sample, on a `(pid, tid)` track — by convention one *process* per GPU
//!   (see [`gpu_pid`]) and one *thread* per CUDA stream or engine (see
//!   [`stream_tid`], [`TID_KERNEL_ENGINE`], [`copy_engine_tid`]);
//! * a [`Tracer`] is a cheaply clonable handle to a shared ring buffer.
//!   A disabled tracer ([`Tracer::disabled`], the default) holds no buffer
//!   at all; emission sites guard on [`Tracer::enabled`] so the disabled
//!   path costs one branch and no allocation;
//! * [`Tracer::export_chrome_json`] serializes the buffer in the Chrome
//!   trace-event format — load the file in `chrome://tracing` or
//!   <https://ui.perfetto.dev> to see the three-stage pipeline as
//!   overlapping spans per stream;
//! * [`PipelineProfile`] folds the engine-level spans back into per-GPU
//!   busy times and stage-overlap durations (the measurement behind the
//!   paper's Fig. 7 pipelining speedups).

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Event taxonomy. Categories are closed (an enum, not free strings) so
/// every layer names the same thing the same way and consumers can match
/// exhaustively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cat {
    /// Host-to-device copy occupancy on a DMA engine (gpu layer).
    H2d,
    /// Kernel-engine occupancy (gpu layer).
    Kernel,
    /// Device-to-host copy occupancy on a DMA engine (gpu layer).
    D2h,
    /// A pipeline *stage* of one in-flight work on its stream (core layer);
    /// names are `"h2d"`, `"kernel"`, `"d2h"`.
    Stage,
    /// GPU cache events: `"hit"`, `"miss"`, `"evict"` instants and
    /// cumulative `"cache_hits"`/`"cache_misses"` counters.
    Cache,
    /// Device health transitions: `"degraded"`, `"lost"`.
    Health,
    /// Fault handling: `"fault-injected"`, `"retry"`, `"transient"`,
    /// `"hang"`, `"work-failed"`, `"drain"`.
    Recovery,
    /// Stream scheduling: `"steal"` (Alg. 5.2).
    Queue,
    /// CPU-fallback execution spans.
    Cpu,
}

impl Cat {
    /// The category string used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::H2d => "h2d",
            Cat::Kernel => "kernel",
            Cat::D2h => "d2h",
            Cat::Stage => "stage",
            Cat::Cache => "cache",
            Cat::Health => "health",
            Cat::Recovery => "recovery",
            Cat::Queue => "queue",
            Cat::Cpu => "cpu",
        }
    }
}

/// The temporal shape of one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration on a track (Chrome `ph:"X"`).
    Span {
        /// First instant covered.
        start: SimTime,
        /// One past the last instant covered.
        end: SimTime,
    },
    /// A point event (Chrome `ph:"i"`).
    Instant {
        /// When it happened.
        at: SimTime,
    },
    /// A sampled counter value (Chrome `ph:"C"`).
    Counter {
        /// When it was sampled.
        at: SimTime,
        /// The sampled value.
        value: i64,
    },
}

impl EventKind {
    /// The event's timestamp (a span's start).
    pub fn at(&self) -> SimTime {
        match *self {
            EventKind::Span { start, .. } => start,
            EventKind::Instant { at } | EventKind::Counter { at, .. } => at,
        }
    }
}

/// One trace event on a `(pid, tid)` track.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (operator, stage, or counter name).
    pub name: String,
    /// Taxonomy category.
    pub cat: Cat,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Process track — one per GPU ([`gpu_pid`]) or CPU pool ([`cpu_pid`]).
    pub pid: u64,
    /// Thread track — stream, engine, or [`TID_DEVICE`].
    pub tid: u32,
    /// Owning job, when known.
    pub job: Option<u64>,
    /// Extra key/value payload, in emission order.
    pub args: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// A span event covering `start..end`.
    pub fn span(
        pid: u64,
        tid: u32,
        cat: Cat,
        name: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            kind: EventKind::Span { start, end },
            pid,
            tid,
            job: None,
            args: Vec::new(),
        }
    }

    /// An instant event at `at`.
    pub fn instant(pid: u64, tid: u32, cat: Cat, name: impl Into<String>, at: SimTime) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            kind: EventKind::Instant { at },
            pid,
            tid,
            job: None,
            args: Vec::new(),
        }
    }

    /// A counter sample at `at`.
    pub fn counter(
        pid: u64,
        tid: u32,
        cat: Cat,
        name: impl Into<String>,
        at: SimTime,
        value: i64,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            kind: EventKind::Counter { at, value },
            pid,
            tid,
            job: None,
            args: Vec::new(),
        }
    }

    /// Tag the event with its owning job.
    pub fn with_job(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// Attach an extra `key: value` argument.
    pub fn with_arg(mut self, key: &'static str, value: impl ToString) -> Self {
        self.args.push((key, value.to_string()));
        self
    }

    /// The span interval, if this is a span.
    pub fn interval(&self) -> Option<(SimTime, SimTime)> {
        match self.kind {
            EventKind::Span { start, end } => Some((start, end)),
            _ => None,
        }
    }
}

// --- track conventions --------------------------------------------------

/// The per-device track (`tid` 0): health transitions, cache events.
pub const TID_DEVICE: u32 = 0;
/// The kernel-engine track of a GPU process.
pub const TID_KERNEL_ENGINE: u32 = 100;

/// Process id of GPU `gpu` on worker `worker` (one trace process per GPU).
pub fn gpu_pid(worker: usize, gpu: usize) -> u64 {
    worker as u64 * 1_000 + gpu as u64
}

/// Process id of worker `worker`'s CPU-fallback slot pool.
pub fn cpu_pid(worker: usize) -> u64 {
    worker as u64 * 1_000 + 999
}

/// Thread id of CUDA stream `stream` within its GPU process.
pub fn stream_tid(stream: usize) -> u32 {
    1 + stream as u32
}

/// Thread id of DMA copy engine `engine` within its GPU process.
pub fn copy_engine_tid(engine: usize) -> u32 {
    TID_KERNEL_ENGINE + 1 + engine as u32
}

// --- the tracer ---------------------------------------------------------

#[derive(Debug, Default)]
struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    processes: BTreeMap<u64, String>,
    threads: BTreeMap<(u64, u32), String>,
}

/// Cheaply clonable handle to a shared trace ring buffer.
///
/// The default ([`Tracer::disabled`]) holds no buffer: `enabled()` is
/// `false` and every operation is a no-op, so instrumented code pays one
/// branch when tracing is off. All clones of an enabled tracer append to
/// the same buffer, in call order — which, on the deterministic event
/// loop, is itself deterministic.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuffer>>>,
}

impl Tracer {
    /// Default ring capacity (events retained before the oldest drop).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// An enabled tracer with a ring buffer of `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs capacity");
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuffer {
                capacity,
                ..TraceBuffer::default()
            }))),
        }
    }

    /// The no-op tracer.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether events are being collected. Emission sites guard on this so
    /// the disabled path allocates nothing.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn buf(&self) -> Option<MutexGuard<'_, TraceBuffer>> {
        // A poisoned lock only means a panic elsewhere; trace data is still
        // sound, so recover rather than double-panic.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Append an event (oldest events drop when the ring is full).
    pub fn record(&self, ev: TraceEvent) {
        if let Some(mut b) = self.buf() {
            if b.events.len() >= b.capacity {
                b.events.pop_front();
                b.dropped += 1;
            }
            b.events.push_back(ev);
        }
    }

    /// Build and append an event only while tracing is on, so the
    /// disabled path builds (and allocates) nothing.
    pub fn record_with(&self, ev: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.record(ev());
        }
    }

    /// Register a display name for process `pid`.
    pub fn name_process(&self, pid: u64, name: &str) {
        if let Some(mut b) = self.buf() {
            b.processes.insert(pid, name.to_string());
        }
    }

    /// Register a display name for thread `tid` of process `pid`.
    pub fn name_thread(&self, pid: u64, tid: u32, name: &str) {
        if let Some(mut b) = self.buf() {
            b.threads.insert((pid, tid), name.to_string());
        }
    }

    /// Run `f` over the retained events, in emission order, without
    /// copying them out of the ring. This is the export path: the old
    /// `events()` snapshot cloned the entire ring buffer per call.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        match self.buf() {
            Some(mut b) => {
                let slice = b.events.make_contiguous();
                f(slice)
            }
            None => f(&[]),
        }
    }

    /// Fold the retained engine spans into a [`PipelineProfile`] without
    /// cloning the ring.
    pub fn profile(&self) -> PipelineProfile {
        self.with_events(PipelineProfile::from_events)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf().map(|b| b.events.len()).unwrap_or(0)
    }

    /// True when no events are retained (or the tracer is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.buf().map(|b| b.dropped).unwrap_or(0)
    }

    /// Discard all retained events (names and capacity are kept).
    pub fn clear(&self) {
        if let Some(mut b) = self.buf() {
            b.events.clear();
            b.dropped = 0;
        }
    }

    /// Serialize the buffer as Chrome trace-event JSON (load in
    /// `chrome://tracing` or Perfetto). The output is byte-deterministic:
    /// events appear in emission order, metadata in sorted track order, and
    /// timestamps are integer-derived decimal microseconds.
    pub fn export_chrome_json(&self) -> String {
        let Some(b) = self.buf() else {
            return "{\"traceEvents\":[]}".to_string();
        };
        let mut out = String::with_capacity(128 + b.events.len() * 128);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (pid, name) in &b.processes {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        for ((pid, tid), name) in &b.threads {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        for ev in &b.events {
            push_sep(&mut out, &mut first);
            write_event(&mut out, ev);
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":\"{}\"",
            b.dropped
        );
        if b.dropped > 0 {
            let _ = write!(
                out,
                ",\"warning\":\"{} trace events dropped by ring overflow; \
                 the timeline is incomplete — raise Tracer capacity\"",
                b.dropped
            );
        }
        out.push_str("}}");
        out
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Nanoseconds → decimal microseconds, via integer math only (the `ts`
/// unit of the Chrome trace format). Integer derivation is what keeps the
/// export byte-reproducible.
fn ts_us(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\"",
        escape(&ev.name),
        ev.cat.as_str()
    );
    match ev.kind {
        EventKind::Span { start, end } => {
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                ts_us(start),
                ts_us(end.saturating_sub(start))
            );
        }
        EventKind::Instant { at } => {
            let _ = write!(out, ",\"ph\":\"i\",\"ts\":{},\"s\":\"t\"", ts_us(at));
        }
        EventKind::Counter { at, .. } => {
            let _ = write!(out, ",\"ph\":\"C\",\"ts\":{}", ts_us(at));
        }
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{},\"args\":{{", ev.pid, ev.tid);
    let mut first = true;
    if let EventKind::Counter { value, .. } = ev.kind {
        let _ = write!(out, "\"value\":{value}");
        first = false;
    }
    if let Some(job) = ev.job {
        push_sep(out, &mut first);
        let _ = write!(out, "\"job\":{job}");
    }
    for (k, v) in &ev.args {
        push_sep(out, &mut first);
        let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    out.push_str("}}");
}

// --- pipeline-overlap profiling ----------------------------------------

/// Busy/overlap breakdown of one GPU's engines, folded from its trace
/// spans by [`PipelineProfile::from_events`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneProfile {
    /// Total H2D copy-engine occupancy.
    pub h2d_busy: SimTime,
    /// Total kernel-engine occupancy.
    pub kernel_busy: SimTime,
    /// Total D2H copy-engine occupancy.
    pub d2h_busy: SimTime,
    /// Time the kernel engine and an H2D copy ran simultaneously — the
    /// stage-2/stage-1 overlap the three-stage pipeline exists to create.
    pub h2d_kernel_overlap: SimTime,
    /// Time the kernel engine and a D2H copy ran simultaneously.
    pub d2h_kernel_overlap: SimTime,
    /// Earliest span start seen.
    pub first: SimTime,
    /// Latest span end seen.
    pub last: SimTime,
}

impl LaneProfile {
    /// `busy / (last − first)` for the kernel engine; 0 on an empty lane
    /// (a zero-width window reports zero utilization, never NaN).
    pub fn kernel_utilization(&self) -> f64 {
        let window = self.last.saturating_sub(self.first);
        if window.is_zero() {
            return 0.0;
        }
        (self.kernel_busy.as_secs_f64() / window.as_secs_f64()).min(1.0)
    }
}

/// Per-GPU pipeline profile computed from engine-level trace spans
/// ([`Cat::H2d`], [`Cat::Kernel`], [`Cat::D2h`]).
#[derive(Clone, Debug, Default)]
pub struct PipelineProfile {
    /// One profile per GPU process id, in pid order.
    pub lanes: BTreeMap<u64, LaneProfile>,
}

impl PipelineProfile {
    /// Fold the engine spans of `events` into per-GPU busy/overlap times.
    /// Non-span events and other categories are ignored.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut raw: BTreeMap<u64, [Vec<(u64, u64)>; 3]> = BTreeMap::new();
        for ev in events {
            let slot = match ev.cat {
                Cat::H2d => 0,
                Cat::Kernel => 1,
                Cat::D2h => 2,
                _ => continue,
            };
            if let Some((s, e)) = ev.interval() {
                raw.entry(ev.pid).or_default()[slot].push((s.as_nanos(), e.as_nanos()));
            }
        }
        let mut lanes = BTreeMap::new();
        for (pid, [h2d, kernel, d2h]) in raw {
            let h2d = merge_intervals(h2d);
            let kernel = merge_intervals(kernel);
            let d2h = merge_intervals(d2h);
            let first = [&h2d, &kernel, &d2h]
                .iter()
                .filter_map(|v| v.first().map(|&(s, _)| s))
                .min()
                .unwrap_or(0);
            let last = [&h2d, &kernel, &d2h]
                .iter()
                .filter_map(|v| v.last().map(|&(_, e)| e))
                .max()
                .unwrap_or(0);
            lanes.insert(
                pid,
                LaneProfile {
                    h2d_busy: SimTime::from_nanos(total(&h2d)),
                    kernel_busy: SimTime::from_nanos(total(&kernel)),
                    d2h_busy: SimTime::from_nanos(total(&d2h)),
                    h2d_kernel_overlap: SimTime::from_nanos(intersection(&h2d, &kernel)),
                    d2h_kernel_overlap: SimTime::from_nanos(intersection(&d2h, &kernel)),
                    first: SimTime::from_nanos(first),
                    last: SimTime::from_nanos(last),
                },
            );
        }
        PipelineProfile { lanes }
    }

    /// Sum of all lanes (busy/overlap times add; the window is the union).
    pub fn total(&self) -> LaneProfile {
        let mut t = LaneProfile {
            first: SimTime::MAX,
            ..LaneProfile::default()
        };
        for l in self.lanes.values() {
            t.h2d_busy += l.h2d_busy;
            t.kernel_busy += l.kernel_busy;
            t.d2h_busy += l.d2h_busy;
            t.h2d_kernel_overlap += l.h2d_kernel_overlap;
            t.d2h_kernel_overlap += l.d2h_kernel_overlap;
            t.first = t.first.min(l.first);
            t.last = t.last.max(l.last);
        }
        if self.lanes.is_empty() {
            t.first = SimTime::ZERO;
        }
        t
    }
}

/// Sort and union a set of half-open intervals.
fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// Total intersection of two merged interval lists.
fn intersection(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.enabled());
        tr.record(TraceEvent::instant(0, 0, Cat::Cache, "hit", t(1)));
        assert!(tr.is_empty());
        assert_eq!(tr.export_chrome_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn events_retained_in_order() {
        let tr = Tracer::new(16);
        tr.record(TraceEvent::span(1, 2, Cat::Kernel, "k0", t(0), t(5)));
        tr.record(TraceEvent::instant(1, 0, Cat::Health, "lost", t(3)));
        tr.with_events(|evs| {
            assert_eq!(evs.len(), 2);
            assert_eq!(evs[0].name, "k0");
            assert_eq!(evs[1].cat, Cat::Health);
        });
    }

    #[test]
    fn ring_drops_oldest() {
        let tr = Tracer::new(2);
        for i in 0..5u64 {
            tr.record(TraceEvent::instant(0, 0, Cat::Cache, format!("e{i}"), t(i)));
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        tr.with_events(|evs| assert_eq!(evs[0].name, "e3"));
    }

    #[test]
    fn chrome_export_warns_on_dropped_events() {
        let tr = Tracer::new(2);
        for i in 0..5u64 {
            tr.record(TraceEvent::instant(0, 0, Cat::Cache, format!("e{i}"), t(i)));
        }
        let json = tr.export_chrome_json();
        assert!(json.contains("\"droppedEvents\":\"3\""));
        assert!(json.contains("\"warning\":\"3 trace events dropped"));
        // A quiet ring exports no warning field.
        let quiet = Tracer::new(8);
        quiet.record(TraceEvent::instant(0, 0, Cat::Cache, "e", t(0)));
        assert!(!quiet.export_chrome_json().contains("warning"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let tr = Tracer::new(8);
        let clone = tr.clone();
        clone.record(TraceEvent::instant(0, 0, Cat::Queue, "steal", t(1)));
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn chrome_export_shape_and_determinism() {
        let build = || {
            let tr = Tracer::new(8);
            tr.name_process(0, "worker0/gpu0");
            tr.name_thread(0, 1, "stream 0");
            tr.record(
                TraceEvent::span(0, 1, Cat::Stage, "kernel", t(10), t(25))
                    .with_job(7)
                    .with_arg("op", "assign"),
            );
            tr.record(TraceEvent::counter(
                0,
                0,
                Cat::Cache,
                "cache_hits",
                t(25),
                3,
            ));
            tr.export_chrome_json()
        };
        let json = build();
        assert_eq!(json, build(), "same inputs must export identical bytes");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":10.000,\"dur\":15.000"));
        assert!(json.contains("\"job\":7"));
        assert!(json.contains("\"op\":\"assign\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":3"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn pipeline_profile_measures_overlap() {
        let evs = vec![
            TraceEvent::span(0, 101, Cat::H2d, "H2D", t(0), t(10)),
            TraceEvent::span(0, 100, Cat::Kernel, "kernel", t(5), t(20)),
            TraceEvent::span(0, 101, Cat::H2d, "H2D", t(10), t(18)),
            TraceEvent::span(0, 101, Cat::D2h, "D2H", t(20), t(24)),
            // A second GPU with no overlap at all.
            TraceEvent::span(1, 101, Cat::H2d, "H2D", t(0), t(4)),
            TraceEvent::span(1, 100, Cat::Kernel, "kernel", t(4), t(8)),
        ];
        let p = PipelineProfile::from_events(&evs);
        let l0 = p.lanes[&0];
        assert_eq!(l0.h2d_busy, t(18));
        assert_eq!(l0.kernel_busy, t(15));
        assert_eq!(l0.d2h_busy, t(4));
        assert_eq!(l0.h2d_kernel_overlap, t(13)); // [5,18)
        assert_eq!(l0.d2h_kernel_overlap, SimTime::ZERO);
        assert_eq!(l0.first, t(0));
        assert_eq!(l0.last, t(24));
        let l1 = p.lanes[&1];
        assert_eq!(l1.h2d_kernel_overlap, SimTime::ZERO);
        let total = p.total();
        assert_eq!(total.kernel_busy, t(19));
        assert_eq!(total.h2d_kernel_overlap, t(13));
    }

    #[test]
    fn lane_utilization_guards_zero_window() {
        let empty = LaneProfile::default();
        assert_eq!(empty.kernel_utilization(), 0.0);
        let p =
            PipelineProfile::from_events(&[TraceEvent::span(0, 100, Cat::Kernel, "k", t(2), t(6))]);
        assert!((p.lanes[&0].kernel_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn track_id_conventions() {
        assert_eq!(gpu_pid(2, 1), 2001);
        assert_eq!(cpu_pid(3), 3999);
        assert_eq!(stream_tid(0), 1);
        assert_eq!(copy_engine_tid(1), 102);
        assert_ne!(copy_engine_tid(0), TID_KERNEL_ENGINE);
    }
}
