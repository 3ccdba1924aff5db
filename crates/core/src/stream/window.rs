//! Keyed windows over event time: assigners, merge logic, aggregation.
//!
//! A window assigner maps a record's event timestamp to one or more
//! [`WindowSpan`]s; per `(span, key)` the engine keeps a **pane** of
//! buffered values. Panes fire when the watermark passes the span's end
//! plus any allowed lateness; records whose every window already fired are
//! **late** and are routed to the late counter instead of silently
//! reopening state. Session windows have no static spans — panes merge as
//! records bridge the inactivity gap, exactly once, keyed deterministically.
//!
//! An open tumbling or sliding span keeps its records as columns (key,
//! value, logical weight) in arrival order, so a record costs one append
//! per assigned span, found by a binary search over the open spans. A
//! span becomes panes only when it fires or is snapshotted: one stable
//! LSD radix sort over the key bytes that vary orders its rows. Session
//! panes merge by adding whole panes' weights, so they stay one pane per
//! `(span, key)`, ordered by `(end, start, key)`, beside each key's list
//! of open sessions. Both stores keep their spans in fire order, so a
//! batch costs nothing beyond the spans it releases. The guarantees are:
//!
//! * windows fire in `(end, start)` order, one fire sequence number each;
//! * a fired window's panes are key-ascending;
//! * a pane's values stay in insertion order (a session merge
//!   concatenates the earliest session first);
//! * snapshots list panes in `(start, end, key)` order.
//!
//! So the CPU aggregation path and the GPU windowed-aggregation kernel
//! produce bit-identical floating-point results: the GPU work packs panes
//! in fire order and the kernel folds them with the same
//! [`AggResult::fold`].

use super::time::{fnv1a, WatermarkStamp, FNV_OFFSET};
use crate::checkpoint::{OpenPane, StreamState};
use gflink_sim::SimTime;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

#[cfg(test)]
mod oracle;

/// One window's event-time extent: `[start, end)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WindowSpan {
    /// Inclusive event-time start.
    pub start: SimTime,
    /// Exclusive event-time end (for sessions: last event + gap).
    pub end: SimTime,
}

/// How records map to windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowAssigner {
    /// Fixed, non-overlapping windows of `size`.
    Tumbling {
        /// Window length.
        size: SimTime,
    },
    /// Overlapping windows of `size` starting every `slide`.
    Sliding {
        /// Window length.
        size: SimTime,
        /// Start-to-start distance between consecutive windows.
        slide: SimTime,
    },
    /// Per-key activity sessions separated by at least `gap` of silence.
    Session {
        /// Inactivity gap that closes a session.
        gap: SimTime,
    },
}

/// Fluent constructor for tumbling windows: `Tumbling::of(size)`.
pub struct Tumbling;

impl Tumbling {
    /// Fixed windows of `size`, aligned to the epoch.
    pub fn of(size: SimTime) -> WindowAssigner {
        WindowAssigner::Tumbling { size }
    }
}

/// Fluent constructor for sliding windows: `Sliding::of(size, slide)`.
pub struct Sliding;

impl Sliding {
    /// Windows of `size` starting every `slide`.
    pub fn of(size: SimTime, slide: SimTime) -> WindowAssigner {
        WindowAssigner::Sliding { size, slide }
    }
}

/// Fluent constructor for session windows: `Session::with_gap(gap)`.
pub struct Session;

impl Session {
    /// Per-key sessions closed by `gap` of inactivity.
    pub fn with_gap(gap: SimTime) -> WindowAssigner {
        WindowAssigner::Session { gap }
    }
}

impl WindowAssigner {
    /// Static spans containing event time `ts`, in ascending start order
    /// (tumbling/sliding only; session spans are dynamic and grow by
    /// merging, so a session assigner yields none). Allocation-free: the
    /// spans are the arithmetic progression of starts from the earliest
    /// window still covering `ts` to the latest one starting at or before it.
    pub fn assign(&self, ts: SimTime) -> impl Iterator<Item = WindowSpan> {
        let ts_n = ts.as_nanos();
        let (first, last, size_n, slide_n) = match *self {
            WindowAssigner::Tumbling { size } => {
                let size_n = size.as_nanos().max(1);
                let start = ts_n / size_n * size_n;
                (start, start, size_n, size_n)
            }
            WindowAssigner::Sliding { size, slide } => {
                let size_n = size.as_nanos().max(1);
                let slide_n = slide.as_nanos().max(1);
                let first = match ts_n.checked_sub(size_n) {
                    Some(d) => (d / slide_n + 1) * slide_n,
                    None => 0,
                };
                (first, ts_n / slide_n * slide_n, size_n, slide_n)
            }
            // No static spans: an empty progression.
            WindowAssigner::Session { .. } => (1, 0, 0, 1),
        };
        let next = move |&s: &u64| s.checked_add(slide_n).filter(|&n| n <= last);
        std::iter::successors(Some(first).filter(|&f| f <= last), next).map(move |start| {
            WindowSpan {
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + size_n),
            }
        })
    }
}

/// The aggregation applied to each fired pane's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Number of records.
    Count,
    /// Sum of the extracted values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean (`sum / count`).
    Avg,
}

/// A windowed aggregation: the operation plus its per-logical-record cost
/// profile (what the CPU slots and the GPU kernel charge per element).
#[derive(Clone, Copy, Debug)]
pub struct AggSpec {
    /// The aggregation operator.
    pub op: AggOp,
    /// Floating-point operations per logical record.
    pub flops_per_record: f64,
    /// Bytes touched per logical record.
    pub bytes_per_record: f64,
}

impl AggSpec {
    /// An aggregation with the default streaming-analytics cost profile
    /// (a few hundred ops per record, one 16-byte key/value pair).
    pub fn of(op: AggOp) -> AggSpec {
        AggSpec {
            op,
            flops_per_record: 200.0,
            bytes_per_record: 16.0,
        }
    }

    /// Windowed average — the Nexmark q6 shape.
    pub fn avg() -> AggSpec {
        AggSpec::of(AggOp::Avg)
    }
}

/// The full fold of one pane: every downstream value (`count`, `sum`,
/// `min`, `max`, `avg`) derives from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggResult {
    /// Records folded.
    pub count: u64,
    /// Sequential sum in insertion order.
    pub sum: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl AggResult {
    /// The fold of no values.
    pub const EMPTY: AggResult = AggResult {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Fold one more value in. Folding a sequence value by value from
    /// [`AggResult::EMPTY`] is exactly [`AggResult::fold`].
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `values` sequentially, in slice order. The CPU path calls this
    /// and the GPU kernel pushes the same values in the same order, so
    /// results are bit-identical.
    pub fn fold(values: &[f64]) -> AggResult {
        let mut r = AggResult::EMPTY;
        for &v in values {
            r.push(v);
        }
        r
    }

    /// The scalar the configured [`AggOp`] extracts.
    pub fn value(&self, op: AggOp) -> f64 {
        match op {
            AggOp::Count => self.count as f64,
            AggOp::Sum => self.sum,
            AggOp::Min => self.min,
            AggOp::Max => self.max,
            AggOp::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// One emitted window result: a `(span, key)` pane's aggregate plus when
/// and how fast the engine produced it.
#[derive(Clone, Debug)]
pub struct WindowOutput {
    /// The window's event-time extent.
    pub span: WindowSpan,
    /// The pane's key.
    pub key: u64,
    /// The fold over the pane's values.
    pub agg: AggResult,
    /// Engine completion instant (processing time).
    pub fired_at: SimTime,
    /// Completion minus fire eligibility (the watermark passing the span).
    pub latency: SimTime,
    /// Satisfied from a durable checkpoint instead of executing.
    pub restored: bool,
}

/// Digest of window outputs: folds `(span, key, count, sum, min, max)` in
/// slice order — value-only, so it is invariant across engines, placement
/// policies and fault plans. Sort by `(span, key)` before calling for a
/// canonical digest.
pub fn output_digest(outputs: &[WindowOutput]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outputs {
        fnv1a(&mut h, &o.span.start.as_nanos().to_le_bytes());
        fnv1a(&mut h, &o.span.end.as_nanos().to_le_bytes());
        fnv1a(&mut h, &o.key.to_le_bytes());
        fnv1a(&mut h, &o.agg.count.to_le_bytes());
        fnv1a(&mut h, &o.agg.sum.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.agg.min.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.agg.max.to_bits().to_le_bytes());
    }
    h
}

/// A window the watermark released, as columns: every pane of one span,
/// keys ascending, ready to execute as one unit of work.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct FiredWindow {
    /// Fire order — the GPU work tag and checkpoint block identity.
    pub(crate) seq: u32,
    pub(crate) span: WindowSpan,
    /// The arrival instant whose watermark advance released the window.
    pub(crate) fire_at: SimTime,
    /// Each pane's key, ascending.
    pub(crate) keys: Vec<u64>,
    /// Each pane's accumulated logical weight (paper-scale record count).
    pub(crate) logical: Vec<f64>,
    /// Where each pane's values end in `values`.
    pub(crate) ends: Vec<usize>,
    /// Every pane's values, pane after pane, each pane's in insertion order.
    pub(crate) values: Vec<f64>,
}

impl FiredWindow {
    /// Each pane as `(key, logical, values)`, keys ascending.
    pub(crate) fn panes(&self) -> impl Iterator<Item = (u64, f64, &[f64])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let runs = starts.zip(&self.ends).map(|(s, &e)| &self.values[s..e]);
        let panes = self.keys.iter().zip(&self.logical).zip(runs);
        panes.map(|((&key, &logical), values)| (key, logical, values))
    }

    /// Append one pane, whose key is above every key already here.
    pub(crate) fn push_pane(&mut self, key: u64, logical: f64, values: &[f64]) {
        self.keys.push(key);
        self.logical.push(logical);
        self.values.extend_from_slice(values);
        self.ends.push(self.values.len());
    }

    pub(crate) fn rows(&self) -> usize {
        self.values.len()
    }

    pub(crate) fn logical(&self) -> u64 {
        (self.logical.iter().sum::<f64>()).round() as u64
    }
}

/// The stable key order of `keys`, as `(key, row)` pairs: an LSD radix
/// sort with one counting pass per key byte that varies between the keys
/// (a byte they all share orders nothing).
fn radix_order(keys: &[u64]) -> Vec<(u64, usize)> {
    let mut rows: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
    let (or, and) = (keys.iter()).fold((0, u64::MAX), |(o, a), &k| (o | k, a & k));
    let mut spare = rows.clone();
    for shift in (0..64).step_by(8).filter(|s| ((or ^ and) >> s) & 0xff != 0) {
        let digit = |k: u64| ((k >> shift) & 0xff) as usize;
        let mut at = [0usize; 256];
        for &(k, _) in &rows {
            at[digit(k)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &row in &rows {
            spare[at[digit(row.0)]] = row;
            at[digit(row.0)] += 1;
        }
        std::mem::swap(&mut rows, &mut spare);
    }
    rows
}

/// One open tumbling or sliding span's records, as columns in arrival
/// order. Panes exist only once the span fires or is snapshotted.
#[derive(Default)]
struct Columns {
    keys: Vec<u64>,
    values: Vec<f64>,
    /// Each record's logical weight (its source's `record_scale`).
    weights: Vec<f64>,
}

impl Columns {
    /// The rows as one window of panes (sequence 0, fired at zero): keys
    /// ascending, each pane's values in arrival order and its weights
    /// summed from zero in arrival order.
    fn grouped(&self, span: WindowSpan) -> FiredWindow {
        let mut fw = FiredWindow {
            span,
            values: Vec::with_capacity(self.keys.len()),
            ..FiredWindow::default()
        };
        for run in radix_order(&self.keys).chunk_by(|a, b| a.0 == b.0) {
            let mut logical = 0.0;
            for &(_, row) in run {
                fw.values.push(self.values[row]);
                logical += self.weights[row];
            }
            fw.keys.push(run[0].0);
            fw.logical.push(logical);
            fw.ends.push(fw.values.len());
        }
        fw
    }
}

/// The keyed event-time state machine: open spans, the watermark, the
/// late-record counter, and the fire sequence. Driven batch-by-batch by
/// the engines; identical inputs produce identical fire sequences on
/// every engine.
pub(crate) struct KeyedWindows {
    assigner: WindowAssigner,
    lateness: SimTime,
    bound: SimTime,
    max_ts: Option<SimTime>,
    watermark: Option<SimTime>,
    /// Tumbling and sliding: every open span's columns, ascending. All
    /// spans have one size, so this is also the fire order.
    spans: VecDeque<(WindowSpan, Columns)>,
    /// Sessions: every open pane keyed `(end, start, key)`, the fire
    /// order, as its values in insertion order (a merge concatenates the
    /// earliest session first) and its accumulated logical weight.
    panes: BTreeMap<(SimTime, SimTime, u64), (Vec<f64>, f64)>,
    /// Sessions: each key's open session spans, ascending.
    sessions: BTreeMap<u64, Vec<WindowSpan>>,
    pub(crate) late_records: u64,
    fire_seq: u32,
    pub(crate) stamps: Vec<WatermarkStamp>,
}

impl KeyedWindows {
    pub(crate) fn new(assigner: WindowAssigner, lateness: SimTime, bound: SimTime) -> KeyedWindows {
        KeyedWindows {
            assigner,
            lateness,
            bound,
            max_ts: None,
            watermark: None,
            spans: VecDeque::new(),
            panes: BTreeMap::new(),
            sessions: BTreeMap::new(),
            late_records: 0,
            fire_seq: 0,
            stamps: Vec::new(),
        }
    }

    /// Whether a span has already been released by the watermark (its end
    /// plus allowed lateness is at or behind it).
    fn closed(&self, end: SimTime) -> bool {
        match self.watermark {
            Some(wm) => end + self.lateness <= wm,
            None => false,
        }
    }

    /// Route one record into its span(s); counts it late when every
    /// assigned window already fired.
    pub(crate) fn insert(&mut self, ts: SimTime, key: u64, value: f64, logical: f64) {
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        if let WindowAssigner::Session { gap } = self.assigner {
            return self.insert_session(ts, key, value, logical, gap);
        }
        let mut landed = false;
        for span in self.assigner.assign(ts) {
            if self.closed(span.end) {
                continue;
            }
            landed = true;
            let cols = self.columns(span);
            cols.keys.push(key);
            cols.values.push(value);
            cols.weights.push(logical);
        }
        if !landed {
            self.late_records += 1;
        }
    }

    /// The open span's columns, opened empty if absent. The watermark keeps
    /// few spans open, so the search is short.
    fn columns(&mut self, span: WindowSpan) -> &mut Columns {
        let at = match self.spans.binary_search_by_key(&span, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                self.spans.insert(i, (span, Columns::default()));
                i
            }
        };
        &mut self.spans[at].1
    }

    /// Session insertion: merge every same-key session whose gap-extended
    /// interval touches the record's, earliest-first, then absorb the
    /// record. A record whose own session would fire instantly is late.
    /// Only the record's own key's sessions are visited.
    fn insert_session(&mut self, ts: SimTime, key: u64, value: f64, logical: f64, gap: SimTime) {
        if self.closed(ts + gap) {
            self.late_records += 1;
            return;
        }
        let mut span = WindowSpan {
            start: ts,
            end: ts + gap,
        };
        let (mut values, mut weight) = (Vec::new(), 0.0);
        let panes = &mut self.panes;
        let mine = self.sessions.entry(key).or_default();
        mine.retain(|&s| {
            let touching = ts <= s.end && s.start <= ts + gap;
            if touching {
                let (vs, w) = panes.remove(&(s.end, s.start, key)).expect("open pane");
                span.start = span.start.min(s.start);
                span.end = span.end.max(s.end);
                values.extend(vs);
                weight += w;
            }
            !touching
        });
        values.push(value);
        weight += logical;
        let at = mine.partition_point(|s| *s < span);
        mine.insert(at, span);
        panes.insert((span.end, span.start, key), (values, weight));
    }

    /// Advance the watermark after a batch arriving at `arrival` was
    /// absorbed, record the timeline stamp, and fire released windows.
    pub(crate) fn advance(&mut self, arrival: SimTime) -> Vec<FiredWindow> {
        let head = match self.max_ts {
            Some(m) => m,
            None => return Vec::new(),
        };
        let wm = head.saturating_sub(self.bound);
        let wm = self.watermark.map_or(wm, |old| old.max(wm));
        self.watermark = Some(wm);
        self.stamps.push(WatermarkStamp {
            at: arrival,
            watermark: wm,
        });
        self.fire(arrival, false)
    }

    /// End of stream: fire everything still open at `at` and stamp the
    /// terminal watermark (the bound collapses — no more data can come).
    pub(crate) fn flush(&mut self, at: SimTime) -> Vec<FiredWindow> {
        if let Some(head) = self.max_ts {
            self.watermark = Some(self.watermark.map_or(head, |old| old.max(head)));
            self.stamps.push(WatermarkStamp {
                at,
                watermark: head.max(self.watermark.unwrap_or(head)),
            });
        }
        self.fire(at, true)
    }

    /// Release eligible spans in `(end, start)` order, each one window of
    /// key-ascending panes — the deterministic fire sequence. Stops at the
    /// first span still open, so a batch that releases nothing visits no
    /// record.
    fn fire(&mut self, at: SimTime, all: bool) -> Vec<FiredWindow> {
        let (watermark, lateness) = (self.watermark, self.lateness);
        let released = |end: SimTime| all || watermark.is_some_and(|wm| end + lateness <= wm);
        let mut fired = Vec::new();
        while let Some(fw) = self.pop_released(released) {
            let (seq, fire_at) = (self.fire_seq, at);
            fired.push(FiredWindow { seq, fire_at, ..fw });
            self.fire_seq += 1;
        }
        fired
    }

    /// Remove the next span in fire order if `released(end)`, as one
    /// window of panes.
    fn pop_released(&mut self, released: impl Fn(SimTime) -> bool) -> Option<FiredWindow> {
        if let Some(&(end, start, _)) = self.panes.keys().next() {
            if !released(end) {
                return None;
            }
            let mut fw = FiredWindow {
                span: WindowSpan { start, end },
                ..FiredWindow::default()
            };
            let same = |k: &(SimTime, SimTime, u64)| (k.0, k.1) == (end, start);
            while let Some(e) = self.panes.first_entry().filter(|e| same(e.key())) {
                let ((_, _, key), (values, logical)) = e.remove_entry();
                self.forget_session(key, fw.span);
                fw.push_pane(key, logical, &values);
            }
            return Some(fw);
        }
        let (span, _) = self.spans.front()?;
        if !released(span.end) {
            return None;
        }
        let (span, cols) = self.spans.pop_front()?;
        Some(cols.grouped(span))
    }

    /// Drop a fired session span from its key's index.
    fn forget_session(&mut self, key: u64, span: WindowSpan) {
        if let Entry::Occupied(mut mine) = self.sessions.entry(key) {
            mine.get_mut().retain(|&s| s != span);
            if mine.get().is_empty() {
                mine.remove();
            }
        }
    }

    /// The keyed state after `batches` absorbed batches: the counters plus
    /// every open pane in `(start, end, key)` order.
    pub(crate) fn state(&self, batches: u64) -> StreamState {
        let pane = |(start, end, key), logical, values: &[f64]| OpenPane {
            start,
            end,
            key,
            logical,
            values: values.to_vec(),
        };
        let mut open = Vec::new();
        for (span, cols) in &self.spans {
            let fw = cols.grouped(*span);
            open.extend(
                fw.panes()
                    .map(|(k, l, v)| pane((span.start, span.end, k), l, v)),
            );
        }
        // Session panes are keyed `(end, start, key)`.
        let sessions = (self.panes.iter()).map(|(&(e, s, k), (v, l))| pane((s, e, k), *l, v));
        open.extend(sessions);
        open.sort_by_key(|p| (p.start, p.end, p.key));
        StreamState {
            batches,
            watermark: self.watermark,
            max_event_ts: self.max_ts.unwrap_or(SimTime::ZERO),
            late_records: self.late_records,
            fired: self.fire_seq as u64,
            open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn tumbling_assignment_aligns_to_epoch() {
        let w = Tumbling::of(ms(100));
        assert_eq!(
            w.assign(ms(250)).collect::<Vec<_>>(),
            vec![WindowSpan {
                start: ms(200),
                end: ms(300)
            }]
        );
        assert_eq!(w.assign(ms(200)).next().unwrap().start, ms(200));
        assert_eq!(w.assign(SimTime::ZERO).next().unwrap().start, SimTime::ZERO);
    }

    #[test]
    fn sliding_assignment_covers_every_overlapping_window() {
        let w = Sliding::of(ms(100), ms(25));
        let spans: Vec<WindowSpan> = w.assign(ms(130)).collect();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, ms(50));
        assert_eq!(spans[3].start, ms(125));
        for s in &spans {
            assert!(s.start <= ms(130) && ms(130) < s.end);
        }
        // Near the epoch only the in-range windows exist.
        assert_eq!(w.assign(ms(10)).count(), 1);
    }

    #[test]
    fn watermark_fires_tumbling_windows_and_routes_late_records() {
        let mut kw = KeyedWindows::new(Tumbling::of(ms(100)), SimTime::ZERO, ms(20));
        kw.insert(ms(50), 1, 1.0, 10.0);
        kw.insert(ms(90), 1, 2.0, 10.0);
        assert!(kw.advance(ms(100)).is_empty(), "watermark 70 < end 100");
        kw.insert(ms(130), 2, 5.0, 10.0);
        let fired = kw.advance(ms(200));
        assert_eq!(fired.len(), 1, "watermark 110 releases [0,100)");
        assert_eq!(fired[0].span.start, SimTime::ZERO);
        assert_eq!(fired[0].keys, [1]);
        assert_eq!(AggResult::fold(&fired[0].values).sum, 3.0);
        assert_eq!(fired[0].logical(), 20);
        // A record for the fired window is late, not silently reopened.
        kw.insert(ms(60), 1, 9.0, 10.0);
        assert_eq!(kw.late_records, 1);
        // Flush releases the rest and the fire sequence advances.
        let rest = kw.flush(ms(300));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, 1);
        assert_eq!(rest[0].keys, [2]);
    }

    #[test]
    fn allowed_lateness_keeps_windows_open_longer() {
        let mut kw = KeyedWindows::new(Tumbling::of(ms(100)), ms(50), SimTime::ZERO);
        kw.insert(ms(10), 1, 1.0, 1.0);
        kw.insert(ms(120), 1, 2.0, 1.0);
        assert!(
            kw.advance(ms(120)).is_empty(),
            "end 100 + lateness 50 > watermark 120"
        );
        kw.insert(ms(20), 1, 3.0, 1.0); // within lateness: not late
        assert_eq!(kw.late_records, 0);
        kw.insert(ms(160), 1, 4.0, 1.0);
        let fired = kw.advance(ms(160));
        assert_eq!(fired.len(), 1);
        assert_eq!(AggResult::fold(&fired[0].values).count, 2);
    }

    #[test]
    fn sessions_merge_on_bridging_records() {
        let mut kw = KeyedWindows::new(Session::with_gap(ms(50)), SimTime::ZERO, SimTime::ZERO);
        let open = |kw: &KeyedWindows| kw.state(0).open;
        kw.insert(ms(0), 7, 1.0, 1.0);
        kw.insert(ms(100), 7, 2.0, 1.0);
        assert_eq!(open(&kw).len(), 2, "two separate sessions");
        kw.insert(ms(25), 7, 3.0, 1.0); // touches the first session only
        assert_eq!(open(&kw).len(), 2);
        kw.insert(ms(60), 7, 4.0, 1.0); // bridges [0,75) and [100,150)
        let merged = open(&kw);
        assert_eq!(merged.len(), 1, "bridging record merges the sessions");
        assert_eq!((merged[0].start, merged[0].end), (SimTime::ZERO, ms(150)));
        assert_eq!(merged[0].values, vec![1.0, 3.0, 2.0, 4.0]);
        // A different key never merges.
        kw.insert(ms(60), 8, 9.0, 1.0);
        assert_eq!(open(&kw).len(), 2);
    }

    /// The radix order equals a stable comparison sort, whichever key
    /// bytes vary: keys at both ends of the range, every byte boundary,
    /// interleaved repeats, a span of one key and a span of one row.
    #[test]
    fn radix_order_is_a_stable_sort_by_key() {
        let mix = [0, 1, 255, 256, 1 << 56, u64::MAX, 256, 1, u64::MAX, 0];
        let mut keys: Vec<u64> = (0..40).map(|i| mix[(i * 7) % mix.len()]).collect();
        keys.extend([1 << 56, 255, 0, u64::MAX - 1, 1 << 8 | 1 << 40]);
        for keys in [keys, vec![42; 9], vec![u64::MAX; 3], vec![7], vec![]] {
            let mut want: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
            want.sort_by_key(|&(k, _)| k);
            assert_eq!(radix_order(&keys), want, "{keys:?}");
        }
    }

    #[test]
    fn agg_results_cover_every_op() {
        let r = AggResult::fold(&[3.0, 1.0, 2.0]);
        assert_eq!(r.value(AggOp::Count), 3.0);
        assert_eq!(r.value(AggOp::Sum), 6.0);
        assert_eq!(r.value(AggOp::Min), 1.0);
        assert_eq!(r.value(AggOp::Max), 3.0);
        assert_eq!(r.value(AggOp::Avg), 2.0);
        assert_eq!(AggResult::fold(&[]).value(AggOp::Avg), 0.0);
    }
}
