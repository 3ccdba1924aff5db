#![warn(clippy::too_many_lines)]

//! The DataStream builder and its engine lowerings.
//!
//! [`StreamEnv`] is the single streaming entry point: parameterized by
//! engine (baseline CPU slots or the GPU fabric), it builds typed
//! pipelines —
//!
//! ```text
//! StreamEnv::gpu(&fabric)
//!     .source(StreamSource::at_rate(2e7), gen)
//!     .timestamps(|r| r.ts, WatermarkStrategy::bounded(lag))
//!     .key_by(|r| r.seller)
//!     .window(Tumbling::of(SimTime::from_secs(1)))
//!     .aggregate(AggSpec::avg(), |r| r.price)
//!     .run()
//! ```
//!
//! — that lower onto the existing [`JobHandle`]/[`GpuMapSpec`] machinery:
//! every micro-batch (map pipelines) or fired window (window pipelines)
//! becomes one `GWork`, built by the same `GpuMapSpec::work` that lowers
//! a GDST block, submitted at its arrival/fire instant, flowing
//! through admission, backpressure pens, WFQ arbitration and whatever
//! scheduling policy the fabric is configured with. Windowed keyed state
//! checkpoints through the [`CheckpointManager`](crate::CheckpointManager)
//! (see DESIGN.md §17); ingestion is a pure function of the seed, so a
//! restore replays it and validates the replayed state against the
//! snapshot instead of trusting opaque bytes.

use super::source::StreamSource;
use super::time::{watermark_digest, WatermarkStamp, WatermarkStrategy};
use super::window::{
    output_digest, AggResult, AggSpec, FiredWindow, KeyedWindows, WindowAssigner, WindowOutput,
};
use super::{LostBatch, StreamError, StreamReport};
use crate::checkpoint::{SnapshotBlock, StreamState};
use crate::exec::Exec;
use crate::gdst::{GRecord, GpuFabric, GpuMapSpec, OutMode, EMITTED_FITS};
use crate::gwork::{CompletedWork, GWork, WorkBuf};
use crate::jobsched::JobHandle;
use gflink_flink::{ClusterConfig, OpCost, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRow, HBuffer, RecordReader, RecordView};
use gflink_sim::{Samples, SimTime};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// The built-in GPU windowed-aggregation kernel, registered by
/// [`StreamEnv::gpu`]. Input: key/value pairs grouped by key; output: one
/// `(key, count, sum, min, max)` row per distinct key.
pub(crate) const WINDOW_KERNEL: &str = "gfWindowedAgg";

gstruct! {
    /// One buffered `(key, value)` of a fired window: the kernel's input.
    #[derive(Clone, Debug, PartialEq)]
    struct Pair: Align8 {
        key: f64,
        value: f64,
    }
}

gstruct! {
    /// One key's aggregate: the kernel's output row.
    #[derive(Clone, Debug, PartialEq)]
    struct KeyAgg: Align8 {
        key: f64,
        count: f64,
        sum: f64,
        min: f64,
        max: f64,
    }
}

/// The windowed-aggregation kernel body: folds consecutive same-key runs
/// in place with [`AggResult::push`] — the step [`AggResult::fold`], the
/// CPU engine's fold, is made of — so the two engines are bit-identical.
/// `params[0]`/`params[1]` carry the aggregation's flops/bytes per logical
/// record.
fn window_agg_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let input = RecordReader::new(args.inputs[0], Pair::def(), DataLayout::Aos, n);
    let capacity = args.outputs[0].len() / KeyAgg::SIZE;
    let out_buf = &mut args.outputs[0];
    let mut out = RecordView::new(out_buf, KeyAgg::def(), DataLayout::Aos, capacity);
    let mut slots = out.rows_of_mut::<KeyAgg>();
    let mut emitted = 0usize;
    let mut emit = |key: f64, r: AggResult| {
        let row = slots
            .next()
            .expect("kernel emitted past its output capacity");
        KeyAgg {
            key,
            count: r.count as f64,
            sum: r.sum,
            min: r.min,
            max: r.max,
        }
        .store_row(row);
        emitted += 1;
    };
    // The open run: its first key and the fold so far.
    let mut run: Option<(f64, AggResult)> = None;
    for row in input.rows_of::<Pair>() {
        let Pair { key, value } = Pair::load_row(row);
        match &mut run {
            Some((k, acc)) if *k == key => acc.push(value),
            _ => {
                if let Some((k, acc)) = run.take() {
                    emit(k, acc);
                }
                let mut acc = AggResult::EMPTY;
                acc.push(value);
                run = Some((key, acc));
            }
        }
    }
    if let Some((k, acc)) = run {
        emit(k, acc);
    }
    let flops = args.params.first().copied().unwrap_or(200.0);
    let bytes = args.params.get(1).copied().unwrap_or(16.0);
    KernelProfile::new(args.n_logical as f64 * flops, args.n_logical as f64 * bytes)
        .with_emitted(emitted)
}

#[derive(Clone)]
enum Engine {
    Cpu(ClusterConfig),
    Gpu {
        fabric: GpuFabric,
        cluster: Option<SharedCluster>,
    },
}

/// The engine-parameterized streaming environment — the one entry point
/// into the streaming layer.
#[derive(Clone)]
pub struct StreamEnv {
    engine: Engine,
    name: String,
    weight: u32,
}

impl StreamEnv {
    /// A streaming environment over the baseline CPU engine: each unit of
    /// work occupies one round-robin task slot from its release instant.
    pub fn cpu(cfg: &ClusterConfig) -> StreamEnv {
        StreamEnv {
            engine: Engine::Cpu(cfg.clone()),
            name: "stream".to_string(),
            weight: 1,
        }
    }

    /// A streaming environment over the GPU fabric: each unit of work
    /// becomes one `GWork` flowing through admission, pens, arbitration
    /// and the configured scheduling policy. Registers the built-in
    /// windowed-aggregation kernel.
    pub fn gpu(fabric: &GpuFabric) -> StreamEnv {
        fabric.register_kernel(WINDOW_KERNEL, window_agg_kernel);
        StreamEnv {
            engine: Engine::Gpu {
                fabric: fabric.clone(),
                cluster: None,
            },
            name: "stream".to_string(),
            weight: 1,
        }
    }

    /// Attach the shared cluster, enabling durable window-state
    /// checkpoints through the fabric's `CheckpointManager` (snapshots are
    /// written to — and restored from — the cluster's HDFS). A no-op on
    /// the CPU engine, which has no checkpoint coordinator.
    pub fn with_cluster(mut self, cluster: &SharedCluster) -> StreamEnv {
        if let Engine::Gpu { cluster: c, .. } = &mut self.engine {
            *c = Some(cluster.clone());
        }
        self
    }

    /// Name the job — the checkpoint snapshot key, so a relaunched driver
    /// using the same name finds its predecessor's snapshots.
    pub fn named(mut self, name: &str) -> StreamEnv {
        self.name = name.to_string();
        self
    }

    /// The job's fair-share weight under WFQ arbitration.
    pub fn weighted(mut self, weight: u32) -> StreamEnv {
        self.weight = weight;
        self
    }

    /// Whether this environment lowers onto the GPU fabric (as opposed to
    /// the baseline CPU engine) — lets engine-generic workloads pick the
    /// matching map flavor.
    pub fn is_gpu(&self) -> bool {
        matches!(self.engine, Engine::Gpu { .. })
    }

    /// Open a rate-controlled source: `gen(i)` materializes the source's
    /// `i`-th record, deterministically.
    pub fn source<'a, T>(
        &self,
        source: StreamSource,
        gen: impl Fn(u64) -> T + Sync + 'a,
    ) -> DataStream<'a, T> {
        DataStream {
            env: self.clone(),
            sources: vec![(source, Box::new(gen))],
            ts: None,
        }
    }

    fn gpu_parts(&self) -> Result<(&GpuFabric, Option<&SharedCluster>), StreamError> {
        match &self.engine {
            Engine::Gpu { fabric, cluster } => Ok((fabric, cluster.as_ref())),
            Engine::Cpu(_) => Err(StreamError::WrongEngine { needed: "gpu" }),
        }
    }

    fn cpu_parts(&self) -> Result<&ClusterConfig, StreamError> {
        match &self.engine {
            Engine::Cpu(cfg) => Ok(cfg),
            Engine::Gpu { .. } => Err(StreamError::WrongEngine { needed: "cpu" }),
        }
    }
}

/// A rate-controlled source paired with its boxed record generator:
/// `gen(i)` materializes the source's `i`-th record.
type SourceGen<'a, T> = (StreamSource, Box<dyn Fn(u64) -> T + Sync + 'a>);

/// A boxed event-timestamp extractor plus its watermark strategy.
type TsAssigner<'a, T> = (Box<dyn Fn(&T) -> SimTime + Sync + 'a>, WatermarkStrategy);

/// One merged-batch reference: which source, which batch, when it lands.
#[derive(Clone, Copy, Debug)]
struct BatchRef {
    arrival: SimTime,
    source: usize,
    index: usize,
}

fn merged_batches<T>(sources: &[SourceGen<'_, T>]) -> Vec<BatchRef> {
    let mut out = Vec::new();
    for (s, (src, _)) in sources.iter().enumerate() {
        for i in 0..src.num_batches() {
            out.push(BatchRef {
                arrival: src.arrival(i),
                source: s,
                index: i,
            });
        }
    }
    out.sort_by_key(|b| (b.arrival, b.source, b.index));
    out
}

/// An unbounded stream of `T` records: one or more rate-controlled
/// sources, merged in arrival order.
pub struct DataStream<'a, T> {
    env: StreamEnv,
    sources: Vec<SourceGen<'a, T>>,
    ts: Option<TsAssigner<'a, T>>,
}

impl<'a, T> DataStream<'a, T> {
    /// Merge another source into the stream (batches interleave in
    /// arrival order; ties break by source registration order).
    pub fn and_source(
        mut self,
        source: StreamSource,
        gen: impl Fn(u64) -> T + Sync + 'a,
    ) -> DataStream<'a, T> {
        self.sources.push((source, Box::new(gen)));
        self
    }

    /// Assign event timestamps and a watermark strategy — required before
    /// any event-time operation (`key_by`/`window`).
    pub fn timestamps(
        mut self,
        ts: impl Fn(&T) -> SimTime + Sync + 'a,
        strategy: WatermarkStrategy,
    ) -> DataStream<'a, T> {
        self.ts = Some((Box::new(ts), strategy));
        self
    }

    /// Partition the stream by key for windowed aggregation.
    pub fn key_by(self, key: impl Fn(&T) -> u64 + Sync + 'a) -> KeyedStream<'a, T> {
        KeyedStream {
            stream: self,
            key: Box::new(key),
        }
    }

    /// Map every micro-batch through a registered GPU kernel (GPU engine
    /// only — the CPU engine reports a typed `WrongEngine` error at run).
    pub fn map_kernel<U: GRecord>(self, spec: GpuMapSpec) -> MapPipeline<'a, T, U>
    where
        T: GRecord,
    {
        MapPipeline {
            stream: self,
            spec,
            _out: PhantomData,
        }
    }

    /// Map every record on the CPU engine at the given per-element cost
    /// (CPU engine only — the GPU engine reports `WrongEngine` at run).
    pub fn map_fn<U>(self, cost: OpCost, op: impl Fn(&T) -> U + 'a) -> CpuMapPipeline<'a, T, U> {
        CpuMapPipeline {
            stream: self,
            cost,
            op: Box::new(op),
        }
    }

    /// `EmptySource` for any source that would emit zero batches — a
    /// config error surfaced at build time, not a silent empty run.
    fn validate(&self) -> Result<(), StreamError> {
        for (i, (src, _)) in self.sources.iter().enumerate() {
            if src.num_batches() == 0 {
                return Err(StreamError::EmptySource { source: i });
            }
        }
        Ok(())
    }
}

/// A keyed stream, ready for window assignment.
pub struct KeyedStream<'a, T> {
    stream: DataStream<'a, T>,
    key: Box<dyn Fn(&T) -> u64 + Sync + 'a>,
}

impl<'a, T> KeyedStream<'a, T> {
    /// Assign records to event-time windows.
    pub fn window(self, assigner: WindowAssigner) -> WindowedStream<'a, T> {
        WindowedStream {
            keyed: self,
            assigner,
            lateness: SimTime::ZERO,
        }
    }
}

/// A keyed, windowed stream awaiting its aggregation.
pub struct WindowedStream<'a, T> {
    keyed: KeyedStream<'a, T>,
    assigner: WindowAssigner,
    lateness: SimTime,
}

impl<'a, T> WindowedStream<'a, T> {
    /// Keep windows open `lateness` past the watermark before firing.
    pub fn allow_lateness(mut self, lateness: SimTime) -> WindowedStream<'a, T> {
        self.lateness = lateness;
        self
    }

    /// Aggregate each pane's `value(record)` under `spec`, producing the
    /// runnable window pipeline.
    pub fn aggregate(
        self,
        spec: AggSpec,
        value: impl Fn(&T) -> f64 + Sync + 'a,
    ) -> WindowPipeline<'a, T> {
        WindowPipeline {
            env: self.keyed.stream.env.clone(),
            stream: self.keyed.stream,
            key: self.keyed.key,
            assigner: self.assigner,
            lateness: self.lateness,
            agg: spec,
            value: Box::new(value),
            crash_at: None,
        }
    }
}

/// A fully specified windowed aggregation, ready to run on either engine.
pub struct WindowPipeline<'a, T> {
    env: StreamEnv,
    stream: DataStream<'a, T>,
    key: Box<dyn Fn(&T) -> u64 + Sync + 'a>,
    assigner: WindowAssigner,
    lateness: SimTime,
    agg: AggSpec,
    value: Box<dyn Fn(&T) -> f64 + Sync + 'a>,
    crash_at: Option<SimTime>,
}

/// Everything a windowed run produced: the report, every window output
/// (canonically sorted), the watermark timeline, and checkpoint counters.
#[derive(Clone, Debug)]
pub struct WindowedRun {
    /// Latency/loss report (one unit = one fired window).
    pub report: StreamReport,
    /// Window outputs, sorted by `(span, key)`.
    pub windows: Vec<WindowOutput>,
    /// The watermark timeline, one stamp per absorbed micro-batch.
    pub watermarks: Vec<WatermarkStamp>,
    /// Windows satisfied from a durable snapshot instead of executing.
    pub windows_restored: u64,
    /// Snapshots refused — corrupt, broken or diverging from the replayed
    /// state — so the run replayed from zero.
    pub restores_refused: u64,
    /// Durable snapshots written during the run.
    pub checkpoints: u64,
    /// Bytes those snapshots wrote.
    pub checkpoint_bytes: u64,
}

impl WindowedRun {
    /// Value-only digest of the window outputs — invariant across engine,
    /// placement policy, fault plan and checkpoint/restore boundaries.
    pub fn digest(&self) -> u64 {
        output_digest(&self.windows)
    }

    /// Digest of the watermark timeline.
    pub fn watermark_digest(&self) -> u64 {
        watermark_digest(&self.watermarks)
    }
}

/// One record reduced to what the keyed window state machine reads: its
/// event time, key and value.
type Triple = (SimTime, u64, f64);

/// Fewest records in one source-stage chunk (it holds whole batches, at
/// least one): one channel hand-off per ≈ 16 q6 batches, and a stage that
/// runs only a few such chunks ahead of the state machine.
const CHUNK_RECORDS: usize = 1024;

/// The pure driver-side ingestion result: what fired, when, and the keyed
/// states captured on the way. A pure function of the pipeline definition
/// and the cutoff, which is what makes checkpoint validation-by-replay
/// possible.
#[derive(Debug, PartialEq)]
struct Ingested {
    fired: Vec<FiredWindow>,
    stamps: Vec<WatermarkStamp>,
    late: u64,
    states: StateTape,
}

/// When a pass must capture the keyed state, besides at its end.
#[derive(Default)]
struct Capture {
    /// Instants known before the pass — a restore's frontier and
    /// `ready_at` — ascending.
    at: Vec<SimTime>,
    /// The snapshot interval: capture at `first_fire + k·interval` for
    /// every `k ≥ 0`, once the first window fires.
    every: Option<SimTime>,
}

/// The keyed states one pass captured, keyed by batches absorbed. The
/// state changes only when a batch lands, so each one answers every
/// instant from its last absorbed arrival up to the next arrival, and the
/// final (pre-flush) state answers every instant past the last batch.
#[derive(Debug, PartialEq)]
struct StateTape {
    /// Every merged batch's arrival, ascending.
    arrivals: Vec<SimTime>,
    states: BTreeMap<u64, StreamState>,
}

impl StateTape {
    /// The state after every batch with arrival ≤ `t`, if the pass
    /// captured it.
    fn at(&self, t: SimTime) -> Option<&StreamState> {
        let absorbed = self.arrivals.partition_point(|&a| a <= t) as u64;
        self.states.get(&absorbed)
    }
}

/// One resumable pass of the keyed window state machine over the merged
/// batches, in arrival order, fed each batch's triples.
struct Replay<'p, 'a, T> {
    pipeline: &'p WindowPipeline<'a, T>,
    batches: &'p [BatchRef],
    /// Batches absorbed so far (a prefix of `batches`).
    absorbed: usize,
    last_arrival: SimTime,
    kw: KeyedWindows,
}

impl<'p, 'a, T> Replay<'p, 'a, T> {
    fn new(pipeline: &'p WindowPipeline<'a, T>, batches: &'p [BatchRef]) -> Self {
        let (_, strategy) = pipeline
            .stream
            .ts
            .as_ref()
            .expect("validated: timestamps set");
        Replay {
            pipeline,
            batches,
            absorbed: 0,
            last_arrival: SimTime::ZERO,
            kw: KeyedWindows::new(pipeline.assigner, pipeline.lateness, strategy.bound()),
        }
    }

    /// Absorb the next batch, given its triples, returning the windows it
    /// fired.
    fn absorb(&mut self, triples: &[Triple]) -> Vec<FiredWindow> {
        let b = self.batches[self.absorbed];
        let scale = self.pipeline.stream.sources[b.source].0.record_scale();
        for &(ts, key, value) in triples {
            self.kw.insert(ts, key, value, scale);
        }
        self.absorbed += 1;
        self.last_arrival = b.arrival;
        self.kw.advance(b.arrival)
    }

    /// The keyed state after the batches absorbed so far.
    fn state(&self) -> StreamState {
        self.kw.state(self.absorbed as u64)
    }

    /// The keyed state at `tick` by absorbing up to it, each batch reduced
    /// in place — the per-tick replay the one pass's captured states are
    /// checked against.
    #[cfg(test)]
    fn state_at(&mut self, tick: SimTime) -> StreamState {
        let mut triples = Vec::new();
        while let Some(&b) = (self.batches.get(self.absorbed)).filter(|b| b.arrival <= tick) {
            triples.clear();
            self.pipeline.reduce(b, &mut triples);
            self.absorb(&triples);
        }
        self.state()
    }
}

impl<'a, T> WindowPipeline<'a, T> {
    /// Simulate a driver crash at `at`: ingestion stops, open windows
    /// never flush, and (with checkpointing on) the snapshot cadence is
    /// bounded by the crash instant. Re-running the same named pipeline
    /// afterwards restores from the last pre-crash snapshot.
    pub fn crash_at(mut self, at: SimTime) -> WindowPipeline<'a, T> {
        self.crash_at = Some(at);
        self
    }

    /// Execute on the environment's engine.
    pub fn run(&self) -> Result<WindowedRun, StreamError> {
        self.stream.validate()?;
        if self.stream.ts.is_none() {
            return Err(StreamError::NoTimestamps);
        }
        match &self.env.engine {
            Engine::Cpu(cfg) => self.run_cpu(&cfg.clone()),
            Engine::Gpu { .. } => self.run_gpu(),
        }
    }

    /// Batch `b`'s records, generated and reduced to triples by the
    /// timestamp, key and value extractors, appended to `out`.
    fn reduce(&self, b: BatchRef, out: &mut Vec<Triple>) {
        let (ts_fn, _) = self.stream.ts.as_ref().expect("validated: timestamps set");
        let (src, gen) = &self.stream.sources[b.source];
        let actual = src.batch_actual();
        out.extend((0..actual).map(|j| {
            let rec = gen((b.index * actual + j) as u64);
            (ts_fn(&rec), (self.key)(&rec), (self.value)(&rec))
        }));
    }

    /// Drive the keyed window state machine over every merged batch with
    /// arrival ≤ `cutoff`, flushing remaining windows iff `flush`, in one
    /// pass that also captures the keyed state at every instant `capture`
    /// asks for and at its end, before any flush.
    ///
    /// The source stage — generator and extractors — feeds the state
    /// machine chunks of triples through `exec`: with threads a helper
    /// reduces chunks ahead, and the caller reduces one itself only when
    /// none is ready; in order, each chunk is reduced just before it is
    /// absorbed. Either way each record is generated once, and none past
    /// the cutoff.
    fn ingest(
        &self,
        exec: Exec,
        cutoff: Option<SimTime>,
        flush: bool,
        capture: Capture,
    ) -> Ingested {
        let batches = merged_batches(&self.stream.sources);
        let arrivals: Vec<SimTime> = batches.iter().map(|b| b.arrival).collect();
        let reach = arrivals.partition_point(|&a| cutoff.is_none_or(|c| a <= c));
        let actual = |b: &BatchRef| self.stream.sources[b.source].0.batch_actual();
        // The source stage's chunks: whole batches, each chunk but the last
        // holding at least CHUNK_RECORDS records.
        let mut chunks: Vec<Range<usize>> = Vec::new();
        let mut records = 0;
        for (i, b) in batches[..reach].iter().enumerate() {
            match chunks.last_mut() {
                Some(chunk) if records < CHUNK_RECORDS => chunk.end = i + 1,
                _ => {
                    chunks.push(i..i + 1);
                    records = 0;
                }
            }
            records += actual(b);
        }
        let reduce_chunk = |k: usize| {
            let mut triples = Vec::with_capacity(CHUNK_RECORDS);
            for &b in &batches[chunks[k].clone()] {
                self.reduce(b, &mut triples);
            }
            triples
        };

        let mut replay = Replay::new(self, &batches);
        let mut states = BTreeMap::new();
        let Capture { at, every } = capture;
        let mut fixed = at.into_iter().peekable();
        let mut cadence: Option<SimTime> = None;
        let mut fired = Vec::new();
        exec.pipe(chunks.len(), reduce_chunk, |reduced| {
            for (chunk, triples) in chunks.iter().zip(reduced) {
                let mut triples = &triples[..];
                for b in &batches[chunk.clone()] {
                    // An instant before this arrival sees the state as it
                    // stands.
                    while let Some(c) = fixed.peek().copied().into_iter().chain(cadence).min() {
                        if c >= b.arrival {
                            break;
                        }
                        let absorbed = replay.absorbed as u64;
                        states.entry(absorbed).or_insert_with(|| replay.state());
                        if fixed.next_if_eq(&c).is_none() {
                            // Skip the cadence instants that share this
                            // state.
                            let every = every.map_or(1, |e| e.as_nanos().max(1));
                            let skip = (b.arrival - c).as_nanos().div_ceil(every);
                            cadence = Some(c + SimTime::from_nanos(every) * skip);
                        }
                    }
                    let (now, rest) = triples.split_at(actual(b));
                    triples = rest;
                    let f = replay.absorb(now);
                    if cadence.is_none() && !f.is_empty() {
                        cadence = every.map(|_| b.arrival);
                    }
                    fired.extend(f);
                }
            }
        });
        states.insert(replay.absorbed as u64, replay.state());
        if flush {
            fired.extend(replay.kw.flush(replay.last_arrival));
        }
        Ingested {
            fired,
            stamps: replay.kw.stamps,
            late: replay.kw.late_records,
            states: StateTape { arrivals, states },
        }
    }

    fn run_cpu(&self, cfg: &ClusterConfig) -> Result<WindowedRun, StreamError> {
        let (cutoff, flush) = (self.crash_at, self.crash_at.is_none());
        let ing = self.ingest(Exec::detect(), cutoff, flush, Capture::default());
        let cpu = cfg.cpu;
        let slots = (cfg.num_workers * cfg.slots_per_worker).max(1);
        let mut slot_free = vec![SimTime::ZERO; slots];
        let cost = OpCost::new(self.agg.flops_per_record, self.agg.bytes_per_record);
        let mut outputs = Vec::new();
        let mut latency = Samples::new();
        let mut finished = SimTime::ZERO;
        for fw in &ing.fired {
            let dur = cpu.time_for(&cost, fw.logical() as f64);
            let slot = &mut slot_free[fw.seq as usize % slots];
            let start = fw.fire_at.max(*slot);
            let end = start + dur;
            *slot = end;
            let lat = end.saturating_sub(fw.fire_at);
            latency.push(lat);
            finished = finished.max(end);
            outputs.extend(fw.panes().map(|(key, _, values)| WindowOutput {
                span: fw.span,
                key,
                agg: AggResult::fold(values),
                fired_at: end,
                latency: lat,
                restored: false,
            }));
        }
        outputs.sort_by_key(|o| (o.span, o.key));
        Ok(WindowedRun {
            report: StreamReport {
                late_records: ing.late,
                ..StreamReport::new(latency, finished)
            },
            windows: outputs,
            watermarks: ing.stamps,
            windows_restored: 0,
            restores_refused: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
        })
    }

    /// Lower one fired window: panes packed key-ascending, values in
    /// insertion order — the order the kernel folds in — into one work
    /// with one output row per pane.
    fn window_work(fw: &FiredWindow, spec: &GpuMapSpec, workers: usize) -> GWork {
        let rows = fw.rows();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(
            Pair::def(),
            DataLayout::Aos,
            rows,
        ));
        {
            let mut view = RecordView::new(&mut buf, Pair::def(), DataLayout::Aos, rows);
            let pairs = fw.panes().flat_map(|(key, _, values)| {
                (values.iter()).map(move |&value| Pair {
                    key: key as f64,
                    value,
                })
            });
            for (pair, row) in pairs.zip(view.rows_of_mut::<Pair>()) {
                pair.store_row(row);
            }
        }
        let logical = fw.logical().max(1);
        let input = WorkBuf::transient(Arc::new(buf), logical * Pair::SIZE as u64);
        let name = format!("stream-window-{}", fw.seq).into();
        let tag = ((fw.seq as usize % workers) as u32, fw.seq);
        let spec = spec.clone().with_out_mode(window_mode(fw));
        spec.work::<Pair, KeyAgg>(name, vec![input], DataLayout::Aos, rows, logical, tag)
    }

    fn run_gpu(&self) -> Result<WindowedRun, StreamError> {
        let (fabric, cluster) = self.env.gpu_parts()?;
        let spec = GpuMapSpec::new(WINDOW_KERNEL)
            .uncached()
            .with_params(vec![self.agg.flops_per_record, self.agg.bytes_per_record])
            .build(fabric)?;
        let workers = fabric.with_managers(|ms| ms.len()).max(1);
        let job = fabric.open_job_weighted(self.env.weight)?;

        // --- restore read, ahead of the one ingest pass -------------------
        // The read is charged from time zero, so reading first moves no
        // simulated instant; it tells the pass which states to capture.
        let (seq, read, mut restores_refused) =
            fabric.read_restore(cluster, job.id(), &self.env.name, SimTime::ZERO);
        let ckpt = cluster.filter(|_| seq.is_some());

        // --- one ingest pass: windows, restore check, snapshot states -----
        let mut capture = Capture {
            at: read
                .iter()
                .flat_map(|rs| [rs.snapshot.frontier, rs.ready_at])
                .collect(),
            every: ckpt.map(|_| fabric.with_checkpoints(|c| c.config().interval)),
        };
        capture.at.sort_unstable();
        let exec = Exec::detect();
        let ing = self.ingest(exec, self.crash_at, self.crash_at.is_none(), capture);
        let fired_by_seq: BTreeMap<u32, &FiredWindow> =
            ing.fired.iter().map(|f| (f.seq, f)).collect();
        // The snapshot's keyed state must equal the state the pass rebuilt
        // at its frontier, and its windows' rows must pass the output-row
        // rule; otherwise the snapshot is refused (replay from zero) rather
        // than resumed wrong. So is a frontier past this run's own crash,
        // which the pass never reached.
        let restored = read.filter(|rs| {
            let valid = StreamState::decode(&rs.snapshot.state)
                .is_ok_and(|st| ing.states.at(rs.snapshot.frontier) == Some(&st))
                && rs.snapshot.blocks.iter().all(|blk| {
                    let fw = fired_by_seq.get(&blk.tag.1);
                    fw.is_none_or(|fw| window_rows(fw, &blk.payload, blk.emitted).is_some())
                });
            restores_refused += u64::from(!valid);
            valid
        });
        if let Some(rs) = &restored {
            fabric.install_restore(&job, rs);
        }

        // --- submit every fired window at its fire instant ---------------
        let mut last_submit = SimTime::ZERO;
        let mut first_fire = SimTime::MAX;
        for fw in &ing.fired {
            let work = Self::window_work(fw, &spec, workers);
            job.submit_to(fw.seq as usize % workers, work, fw.fire_at);
            last_submit = last_submit.max(fw.fire_at);
            first_fire = first_fire.min(fw.fire_at);
        }
        gflink_flink::gate::checkpoint(last_submit);

        // --- drain, then count every window's rows (executed + restored) --
        let (mut executed, lost, mut wall_end) = drain(&job, workers);
        let crashed_at = lost.iter().map(|l| l.failed_at).chain(self.crash_at).min();
        executed.sort_by_key(|done| done.tag.1);
        let mut latency = Samples::new();
        let mut landed = Vec::with_capacity(executed.len());
        // Executed outputs, as the blocks the checkpoint chain writes; the
        // assembly reads the same list.
        let mut done_blocks = Vec::with_capacity(executed.len());
        for done in executed {
            let fw = fired_by_seq[&done.tag.1];
            let rows = window_rows(fw, &done.output, done.emitted).expect(EMITTED_FITS);
            let completed = done.timing.completed;
            let lat = completed.saturating_sub(fw.fire_at);
            latency.push(lat);
            landed.push(Landed {
                fw,
                rows,
                at: completed,
                latency: lat,
                restored: false,
            });
            done_blocks.push(SnapshotBlock {
                tag: done.tag,
                emitted: Some(rows),
                completed_at: completed,
                payload: Arc::new(done.output),
            });
        }
        let executed_outs = done_blocks.iter().map(|b| &*b.payload);
        let mut landed: Vec<(Landed, &HBuffer)> = landed.into_iter().zip(executed_outs).collect();
        let mut windows_restored = 0u64;
        if let Some(rs) = &restored {
            for blk in &rs.snapshot.blocks {
                let Some(&fw) = fired_by_seq.get(&blk.tag.1) else {
                    continue;
                };
                windows_restored += 1;
                wall_end = wall_end.max(rs.ready_at);
                let l = Landed {
                    fw,
                    rows: window_rows(fw, &blk.payload, blk.emitted).expect("validated"),
                    at: rs.ready_at,
                    latency: SimTime::ZERO,
                    restored: true,
                };
                landed.push((l, &*blk.payload));
            }
        }
        let (parked_works, park_delay) = job.parked();
        // A window's rows are key-ascending, so assembling the windows in
        // span order leaves the final sort a single pass over sorted rows;
        // the stable sort keeps rows of one span in their executed-then-
        // restored order, as sorting the rows alone would.
        landed.sort_by_key(|(l, _)| l.fw.span);

        // --- outputs assemble on a helper while the chain is written ------
        let mut outputs = Vec::with_capacity(landed.iter().map(|(l, _)| l.rows).sum());
        let write_chain = || {
            let (Some(cl), Some(seq), false) = (ckpt, seq, ing.fired.is_empty()) else {
                return (0, 0);
            };
            // Periodic snapshots (gdst cadence, stream state attached).
            let mut chain = done_blocks.clone();
            if let Some(rs) = &restored {
                chain.extend(rs.snapshot.blocks.iter().map(|blk| SnapshotBlock {
                    completed_at: rs.ready_at,
                    ..blk.clone()
                }));
            }
            chain.sort_by_key(|b| (b.completed_at, b.tag));
            let mut cl = cl.lock();
            fabric.with_checkpoints(|ck| {
                let ticks = ck.snapshot_ticks(job.id().0, first_fire, wall_end, crashed_at);
                // Each tick's keyed state is one the ingest pass captured.
                // A tick the pass holds no state for — the final tick of a
                // run whose last window completed before its last batch
                // landed, or a cadence tick of a run that restored every
                // window and then crashed — is skipped: the chain keeps
                // its last snapshot, which is never wrong.
                ck.write_ticks(
                    &mut cl.hdfs,
                    &self.env.name,
                    (job.id().0, seq),
                    &ticks,
                    &chain,
                    &[],
                    |tick| ing.states.at(tick).map(StreamState::encode),
                )
            })
        };
        let ((), (checkpoints, checkpoint_bytes)) =
            exec.join(|| assemble(&landed, &mut outputs), write_chain);
        job.finish();

        outputs.sort_by_key(|o| (o.span, o.key));
        Ok(WindowedRun {
            report: StreamReport {
                lost,
                late_records: ing.late,
                parked_works,
                park_delay,
                ..StreamReport::new(latency, wall_end)
            },
            windows: outputs,
            watermarks: ing.stamps,
            windows_restored,
            restores_refused,
            checkpoints,
            checkpoint_bytes,
        })
    }
}

/// One window whose rows land in the outputs: its fired window, how many
/// rows the output-row rule counts in its kernel output, when they landed,
/// and their latency.
struct Landed<'r> {
    fw: &'r FiredWindow,
    rows: usize,
    at: SimTime,
    latency: SimTime,
    restored: bool,
}

/// Append every landed window's rows, decoded from its kernel output, to
/// `out` as window outputs.
fn assemble(landed: &[(Landed<'_>, &HBuffer)], out: &mut Vec<WindowOutput>) {
    for (l, buf) in landed {
        let capacity = buf.len() / KeyAgg::SIZE;
        let reader = RecordReader::new(buf, KeyAgg::def(), DataLayout::Aos, capacity);
        out.extend(reader.rows_of::<KeyAgg>().take(l.rows).map(|row| {
            let r = KeyAgg::load_row(row);
            WindowOutput {
                span: l.fw.span,
                key: r.key as u64,
                agg: AggResult {
                    count: r.count as u64,
                    sum: r.sum,
                    min: r.min,
                    max: r.max,
                },
                fired_at: l.at,
                latency: l.latency,
                restored: l.restored,
            }
        }));
    }
}

/// A fired window's output mode: one `KeyAgg` row per pane.
fn window_mode(fw: &FiredWindow) -> OutMode {
    OutMode::PerBlock(fw.keys.len())
}

/// How many rows window `fw`'s kernel output holds by the output-row
/// rule; `None` when the declared count does not fit.
fn window_rows(fw: &FiredWindow, out: &HBuffer, emitted: Option<usize>) -> Option<usize> {
    window_mode(fw).rows(emitted, out.len() / KeyAgg::SIZE)
}

/// Drain `job` on every worker: its completions, worker by worker, the
/// units it lost for good, and when the last of either landed.
fn drain(job: &JobHandle, workers: usize) -> (Vec<CompletedWork>, Vec<LostBatch>, SimTime) {
    let done: Vec<CompletedWork> = (0..workers).flat_map(|w| job.drain_worker(w)).collect();
    let lost: Vec<LostBatch> = (job.take_failed().into_iter())
        .map(|f| LostBatch {
            index: f.tag.1 as usize,
            worker: f.tag.0 as usize,
            reason: f.reason,
            failed_at: f.failed_at,
        })
        .collect();
    let ends = done.iter().map(|d| d.timing.completed);
    let finished = ends.chain(lost.iter().map(|l| l.failed_at)).max();
    (done, lost, finished.unwrap_or(SimTime::ZERO))
}

/// A per-batch GPU kernel map over the stream (GPU engine).
pub struct MapPipeline<'a, T: GRecord, U: GRecord> {
    stream: DataStream<'a, T>,
    spec: GpuMapSpec,
    _out: PhantomData<U>,
}

impl<T: GRecord, U: GRecord> MapPipeline<'_, T, U> {
    /// Run, discarding per-batch outputs.
    pub fn run(self) -> Result<StreamReport, StreamError> {
        self.run_each(|_, _| {})
    }

    /// Run, invoking `check(batch, records)` for every completed batch in
    /// merged arrival order. Lost batches appear in the report, not here.
    /// A spec that caches its input is refused with
    /// [`StreamError::CachedInput`]: every micro-batch is sent transient.
    pub fn run_each(self, mut check: impl FnMut(usize, &[U])) -> Result<StreamReport, StreamError> {
        let (fabric, _) = self.stream.env.gpu_parts()?;
        self.stream.validate()?;
        if self.spec.cache_input {
            return Err(StreamError::CachedInput);
        }
        let spec = self.spec.clone().build(fabric)?;
        let (def, out_def) = (T::def(), U::def());
        let workers = fabric.with_managers(|ms| ms.len()).max(1);
        let job = fabric.open_job_weighted(self.stream.env.weight)?;
        let batches = merged_batches(&self.stream.sources);
        let mut last_submit = SimTime::ZERO;
        for (g, b) in batches.iter().enumerate() {
            let (src, gen) = &self.stream.sources[b.source];
            let rows = src.batch_actual();
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, DataLayout::Aos, rows));
            {
                let mut view = RecordView::new(&mut buf, def, DataLayout::Aos, rows);
                for j in 0..rows {
                    gen((b.index * rows + j) as u64).store(&mut view, j);
                }
            }
            let n_logical = src.batch_logical();
            let input = WorkBuf::transient(Arc::new(buf), n_logical * def.size() as u64);
            let name = format!("stream-batch-{g}").into();
            let tag = ((g % workers) as u32, g as u32);
            let work = spec.work::<T, U>(name, vec![input], DataLayout::Aos, rows, n_logical, tag);
            job.submit_to(g % workers, work, b.arrival);
            last_submit = last_submit.max(b.arrival);
        }
        gflink_flink::gate::checkpoint(last_submit);

        let (executed, lost, finished) = drain(&job, workers);
        let mut completions: Vec<Option<(SimTime, Vec<U>)>> =
            (0..batches.len()).map(|_| None).collect();
        for done in executed {
            let capacity = done.output.len() / out_def.size().max(1);
            let rows = spec
                .out_mode
                .rows(done.emitted, capacity)
                .expect(EMITTED_FITS);
            let reader = RecordReader::new(&done.output, out_def, DataLayout::Aos, capacity);
            let records = (0..rows).map(|j| U::load(&reader, j)).collect();
            completions[done.tag.1 as usize] = Some((done.timing.completed, records));
        }
        let (parked_works, park_delay) = job.parked();
        job.finish();

        let mut latency = Samples::new();
        for (g, c) in completions.iter().enumerate() {
            let Some((completed, records)) = c else {
                continue;
            };
            check(g, records);
            latency.push(completed.saturating_sub(batches[g].arrival));
        }
        Ok(StreamReport {
            lost,
            parked_works,
            park_delay,
            ..StreamReport::new(latency, finished)
        })
    }
}

/// A per-record CPU map over the stream (CPU engine).
pub struct CpuMapPipeline<'a, T, U> {
    stream: DataStream<'a, T>,
    cost: OpCost,
    op: Box<dyn Fn(&T) -> U + 'a>,
}

impl<T, U> CpuMapPipeline<'_, T, U> {
    /// Run: each batch occupies one round-robin task slot from its
    /// arrival, charged the per-element cost over its logical records.
    pub fn run(self) -> Result<StreamReport, StreamError> {
        let cfg = self.stream.env.cpu_parts()?;
        self.stream.validate()?;
        let cpu = cfg.cpu;
        let slots = (cfg.num_workers * cfg.slots_per_worker).max(1);
        let mut slot_free = vec![SimTime::ZERO; slots];
        let mut latency = Samples::new();
        let mut finished = SimTime::ZERO;
        let batches = merged_batches(&self.stream.sources);
        for (g, b) in batches.iter().enumerate() {
            let (src, gen) = &self.stream.sources[b.source];
            // Execute the operator for real on the batch's actual records.
            for j in 0..src.batch_actual() {
                let _ = (self.op)(&gen((b.index * src.batch_actual() + j) as u64));
            }
            let dur = cpu.time_for(&self.cost, src.batch_logical() as f64);
            let slot = &mut slot_free[g % slots];
            let start = b.arrival.max(*slot);
            let end = start + dur;
            *slot = end;
            latency.push(end.saturating_sub(b.arrival));
            finished = finished.max(end);
        }
        Ok(StreamReport::new(latency, finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointManager;
    use crate::config::CheckpointConfig;
    use crate::gdst::FabricConfig;
    use crate::recovery::CpuFallback;
    use crate::stream::window::{Session, Sliding, Tumbling};
    use crate::stream::StreamError;
    use gflink_sim::{FaultKind, FaultPlan};

    gstruct! {
        #[derive(Clone, Debug, PartialEq)]
        struct Sample: Align4 {
            v: f32,
        }
    }

    fn fabric_with(workers: usize, cfg: FabricConfig) -> GpuFabric {
        let f = GpuFabric::new(workers, cfg);
        f.register_kernel("streamDouble", |args: &mut KernelArgs<'_, '_>| {
            let def = Sample::def();
            let n = args.n_actual;
            let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
            let out_buf = &mut args.outputs[0];
            let mut out = RecordView::new(out_buf, def, DataLayout::Aos, n);
            for i in 0..n {
                out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
            }
            KernelProfile::new(args.n_logical as f64 * 200.0, args.n_logical as f64 * 8.0)
        });
        f
    }

    fn source(rate: f64) -> StreamSource {
        StreamSource::at_rate(rate).for_duration(SimTime::from_secs(5))
    }

    /// An event whose timestamp roughly tracks its arrival (record `i` of
    /// a 20M rec/s source lands in batch `i/64`), with a deterministic
    /// jitter so some records are out of order.
    #[derive(Clone)]
    struct Event {
        ts: SimTime,
        key: u64,
        value: f64,
    }

    fn event(i: u64) -> Event {
        let base = i * 50_000_000 / 64; // batch spread: 50 ms per 64 records
        let jitter = (i.wrapping_mul(2_654_435_761)) % 30_000_000; // < 30 ms
        Event {
            ts: SimTime::from_nanos(base.saturating_sub(jitter)),
            key: i % 8,
            value: (i % 97) as f64 * 0.5,
        }
    }

    fn windowed(env: &StreamEnv, src: &StreamSource) -> WindowPipeline<'static, Event> {
        env.source(src.clone(), event)
            .timestamps(
                |e: &Event| e.ts,
                WatermarkStrategy::bounded(SimTime::from_millis(40)),
            )
            .key_by(|e: &Event| e.key)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e: &Event| e.value)
    }

    /// The kernel body before the in-place fold: it collects each run of
    /// equal keys through the per-element accessors, then calls
    /// [`AggResult::fold`]. The reference the kernel must match bit for bit.
    fn window_agg_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], Pair::def(), DataLayout::Aos, n);
        let capacity = args.outputs[0].len() / KeyAgg::def().size();
        let mut out = RecordView::new(args.outputs[0], KeyAgg::def(), DataLayout::Aos, capacity);
        let mut emitted = 0usize;
        let mut i = 0usize;
        let mut values = Vec::new();
        while i < n {
            let key = input.get_f64(i, 0, 0);
            values.clear();
            while i < n && input.get_f64(i, 0, 0) == key {
                values.push(input.get_f64(i, 1, 0));
                i += 1;
            }
            let r = AggResult::fold(&values);
            out.set_f64(emitted, 0, 0, key);
            out.set_f64(emitted, 1, 0, r.count as f64);
            out.set_f64(emitted, 2, 0, r.sum);
            out.set_f64(emitted, 3, 0, r.min);
            out.set_f64(emitted, 4, 0, r.max);
            emitted += 1;
        }
        let flops = args.params.first().copied().unwrap_or(200.0);
        let bytes = args.params.get(1).copied().unwrap_or(16.0);
        KernelProfile::new(args.n_logical as f64 * flops, args.n_logical as f64 * bytes)
            .with_emitted(emitted)
    }

    #[test]
    fn window_record_layouts_are_pinned() {
        use gflink_memory::{AlignClass, PrimType};
        for (def, n) in [(Pair::def(), 2), (KeyAgg::def(), 5)] {
            let got: Vec<_> = (def.fields().iter().enumerate())
                .map(|(i, f)| (f.prim, f.array_len, def.offset(i)))
                .collect();
            let want: Vec<_> = (0..n).map(|i| (PrimType::F64, 1, 8 * i)).collect();
            assert_eq!(got, want, "{}", def.name());
            let shape = (def.align_class(), def.size(), def.align());
            assert_eq!(shape, (AlignClass::Align8, 8 * n, 8), "{}", def.name());
        }
    }

    /// `recs` stored then loaded under every layout.
    fn assert_roundtrips<T: GRecord + PartialEq + std::fmt::Debug>(recs: &[T]) {
        let (def, n) = (T::def(), recs.len());
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, layout, n));
            let mut view = RecordView::new(&mut buf, def, layout, n);
            for (i, r) in recs.iter().enumerate() {
                r.store(&mut view, i);
            }
            let reader = RecordReader::new(&buf, def, layout, n);
            let back: Vec<T> = (0..n).map(|i| T::load(&reader, i)).collect();
            assert_eq!(back, recs, "{layout:?}");
        }
    }

    #[test]
    fn window_records_roundtrip_and_keys_follow_their_fields() {
        let pairs = [(1.0, -2.5), (f64::MAX, 0.0), (-0.0, f64::MIN_POSITIVE)];
        assert_roundtrips(&pairs.map(|(key, value)| Pair { key, value }));
        assert_roundtrips(&[
            KeyAgg {
                key: 7.0,
                count: 3.0,
                sum: 1.5,
                min: -1.0,
                max: 2.0,
            },
            KeyAgg {
                key: 0.0,
                count: 1.0,
                sum: f64::MAX,
                min: 1e-300,
                max: 1e300,
            },
        ]);
        assert_eq!((Pair::key.index(), Pair::value.index()), (0, 1));
        let keys = [
            KeyAgg::key,
            KeyAgg::count,
            KeyAgg::sum,
            KeyAgg::min,
            KeyAgg::max,
        ];
        assert_eq!(keys.map(|k| k.index()), [0, 1, 2, 3, 4]);
        let names = KeyAgg::def().fields().iter().map(|f| &*f.name);
        assert!(names.eq(["key", "count", "sum", "min", "max"]));
    }

    #[test]
    fn in_place_window_fold_matches_collect_then_fold_oracle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut cases: Vec<Vec<(f64, f64)>> = vec![
            vec![],
            vec![(3.0, 1.5)],
            vec![(7.0, 2.0); 9],
            (0..12).map(|k| (k as f64, -(k as f64))).collect(),
            // -0.0 and 0.0 compare equal: one run, keyed by the first.
            vec![(-0.0, 1.0), (0.0, 2.0), (1.0, f64::INFINITY), (1.0, -0.0)],
        ];
        for n in [5usize, 64, 300] {
            let mut key = 0.0;
            cases.push(
                (0..n)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.3 {
                            key += 1.0;
                        }
                        (key, rng.gen_range(-1e6..1e6))
                    })
                    .collect(),
            );
        }
        for pairs in cases {
            let n = pairs.len();
            let mut block = HBuffer::zeroed(n * Pair::def().size());
            let mut view = RecordView::new(&mut block, Pair::def(), DataLayout::Aos, n);
            for (i, &(k, v)) in pairs.iter().enumerate() {
                view.set_f64(i, 0, 0, k);
                view.set_f64(i, 1, 0, v);
            }
            for params in [&[][..], &[35.0, 24.0][..]] {
                let run = |kernel: fn(&mut KernelArgs<'_, '_>) -> KernelProfile| {
                    let mut out = HBuffer::zeroed(n * KeyAgg::def().size());
                    let profile = kernel(&mut KernelArgs {
                        inputs: &[&block],
                        outputs: &mut [&mut out],
                        params,
                        n_actual: n,
                        n_logical: n as u64 * 40,
                    });
                    (out, profile)
                };
                assert_eq!(run(window_agg_kernel), run(window_agg_oracle), "{pairs:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel emitted past its output capacity")]
    fn window_kernel_panics_past_its_output_capacity() {
        // Three key runs into an output sized for two rows.
        let pairs = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)];
        let mut block = HBuffer::zeroed(pairs.len() * Pair::SIZE);
        let mut view = RecordView::new(&mut block, Pair::def(), DataLayout::Aos, pairs.len());
        for (&(key, value), row) in pairs.iter().zip(view.rows_of_mut::<Pair>()) {
            Pair { key, value }.store_row(row);
        }
        let mut out = HBuffer::zeroed(2 * KeyAgg::SIZE);
        window_agg_kernel(&mut KernelArgs {
            inputs: &[&block],
            outputs: &mut [&mut out],
            params: &[],
            n_actual: pairs.len(),
            n_logical: pairs.len() as u64,
        });
    }

    #[test]
    fn builder_map_processes_every_batch_correctly() {
        let f = fabric_with(2, FabricConfig::default());
        let s = source(20_000_000.0);
        let mut seen = 0usize;
        let report = StreamEnv::gpu(&f)
            .source(s.clone(), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run_each(|_, records| {
                for (j, r) in records.iter().enumerate() {
                    assert_eq!(r.v % 2.0, 0.0, "record {j} not doubled: {}", r.v);
                }
                seen += 1;
            })
            .expect("gpu stream runs");
        assert_eq!(report.batches, s.num_batches());
        assert_eq!(seen, s.num_batches());
        assert!(report.lost.is_empty());
        assert!(report.latency.mean() > 0.0);
        assert!(report.sustained(10.0));
    }

    #[test]
    fn gpu_sustains_higher_rates_than_cpu() {
        // Find the divergence point: at a rate the CPU cannot sustain, its
        // last-batch latency balloons while the GPU stays flat.
        let rate = 200_000_000.0;
        let cluster = ClusterConfig::standard(2);
        let cpu = StreamEnv::cpu(&cluster)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(200.0, 8.0), |s| Sample { v: s.v * 2.0 })
            .run()
            .expect("cpu stream runs");
        let f = fabric_with(2, FabricConfig::default());
        let gpu = StreamEnv::gpu(&f)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run()
            .expect("gpu stream runs");
        assert!(
            !cpu.sustained(1.5),
            "CPU should be backpressured at {rate}: last {} vs mean {}",
            cpu.last_latency,
            cpu.latency.mean()
        );
        assert!(
            gpu.sustained(1.5),
            "GPU should sustain {rate}: last {} vs mean {}",
            gpu.last_latency,
            gpu.latency.mean()
        );
        assert!(gpu.latency.mean() < cpu.latency.mean());
    }

    #[test]
    fn under_capacity_both_engines_are_stable() {
        let rate = 2_000_000.0;
        let cluster = ClusterConfig::standard(2);
        let cpu = StreamEnv::cpu(&cluster)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(200.0, 8.0), |s| Sample { v: s.v * 2.0 })
            .run()
            .expect("cpu stream runs");
        let f = fabric_with(2, FabricConfig::default());
        let gpu = StreamEnv::gpu(&f)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run()
            .expect("gpu stream runs");
        assert!(cpu.sustained(2.0));
        assert!(gpu.sustained(2.0));
        assert!((cpu.throughput(&source(rate)) - rate).abs() / rate < 0.25);
        assert!((gpu.throughput(&source(rate)) - rate).abs() / rate < 0.25);
    }

    #[test]
    fn config_errors_are_typed() {
        let cluster = ClusterConfig::standard(1);
        // Zero batches is a build-time error, not a silent empty run.
        let err = StreamEnv::cpu(&cluster)
            .source(StreamSource::at_rate(1_000.0), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(1.0, 1.0), |s| s.clone())
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::EmptySource { source: 0 });
        // Windowing without timestamps.
        let err = StreamEnv::cpu(&cluster)
            .source(source(2_000_000.0), event)
            .key_by(|e: &Event| e.key)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e: &Event| e.value)
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::NoTimestamps);
        // A GPU kernel map cannot run on the CPU engine.
        let err = StreamEnv::cpu(&cluster)
            .source(source(2_000_000.0), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble"))
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::WrongEngine { needed: "gpu" });
    }

    #[test]
    fn windowed_aggregation_is_bit_identical_across_engines() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let cluster = ClusterConfig::standard(2);
        let cpu_env = StreamEnv::cpu(&cluster);
        let cpu = windowed(&cpu_env, &src).run().expect("cpu windows run");
        let f = fabric_with(2, FabricConfig::default());
        let gpu_env = StreamEnv::gpu(&f);
        let gpu = windowed(&gpu_env, &src).run().expect("gpu windows run");
        assert!(!cpu.windows.is_empty());
        assert_eq!(cpu.windows.len(), gpu.windows.len());
        assert_eq!(
            cpu.digest(),
            gpu.digest(),
            "same fold order ⇒ bit-identical aggregates"
        );
        assert_eq!(cpu.watermark_digest(), gpu.watermark_digest());
        assert_eq!(cpu.report.late_records, gpu.report.late_records);
        // Window latency percentiles are populated and ordered.
        assert!(gpu.report.latency.p50() > SimTime::ZERO);
        assert!(gpu.report.latency.p99() >= gpu.report.latency.p50());
        // Determinism: running the exact same pipeline again is identical.
        let f2 = fabric_with(2, FabricConfig::default());
        let gpu2_env = StreamEnv::gpu(&f2);
        let gpu2 = windowed(&gpu2_env, &src).run().expect("gpu windows rerun");
        assert_eq!(gpu.digest(), gpu2.digest());
        assert_eq!(gpu.watermark_digest(), gpu2.watermark_digest());
    }

    #[test]
    fn multi_source_merge_is_deterministic() {
        let a = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(1));
        let b = StreamSource::at_rate(5_000_000.0)
            .for_duration(SimTime::from_secs(1))
            .with_batch(500_000, 32);
        let cluster = ClusterConfig::standard(2);
        let run = |_: u32| {
            StreamEnv::cpu(&cluster)
                .source(a.clone(), event)
                .and_source(b.clone(), |i| event(i * 3 + 1))
                .timestamps(
                    |e: &Event| e.ts,
                    WatermarkStrategy::bounded(SimTime::from_millis(40)),
                )
                .key_by(|e: &Event| e.key)
                .window(Tumbling::of(SimTime::from_millis(100)))
                .aggregate(AggSpec::avg(), |e: &Event| e.value)
                .run()
                .expect("merged stream runs")
        };
        let (r1, r2) = (run(0), run(1));
        assert!(!r1.windows.is_empty());
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(r1.watermark_digest(), r2.watermark_digest());
    }

    /// The one ingest pass captures, for every tick a run can cut, exactly
    /// the state a fresh replay up to that tick rebuilds — for every window
    /// kind, over two merged sources (tied arrivals included) with late
    /// records: a crash-bounded cadence, a full cadence past the last batch
    /// with a repeated final tick, and a restore's frontier and `ready_at`,
    /// where `ready_at` comes before the first batch and the first fire
    /// (every window restored). The pass with its source stage on a helper
    /// thread and the pass in order on the caller produce the same fired
    /// windows, stamps, late count and captured states.
    #[test]
    fn single_pass_states_equal_per_tick_replay() {
        let a = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(1));
        let b = StreamSource::at_rate(5_000_000.0)
            .for_duration(SimTime::from_secs(1))
            .with_batch(250_000, 16);
        // Every fifth record of the second source lags far behind the
        // watermark, so some land in already-fired windows.
        let straggler = |i: u64| {
            let mut e = event(i * 3 + 1);
            if i.is_multiple_of(5) {
                e.ts = e.ts.saturating_sub(SimTime::from_millis(200));
            }
            e
        };
        let ms = SimTime::from_millis;
        let crash = ms(650);
        let last = SimTime::from_secs(1);
        let (ready_at, frontier) = (ms(10), ms(120));
        let env = StreamEnv::cpu(&ClusterConfig::standard(1));
        let assigners = [
            Tumbling::of(ms(100)),
            Sliding::of(ms(100), ms(40)),
            Session::with_gap(ms(30)),
        ];
        for assigner in assigners {
            let p = env
                .source(a.clone(), event)
                .and_source(b.clone(), straggler)
                .timestamps(|e: &Event| e.ts, WatermarkStrategy::bounded(ms(40)))
                .key_by(|e: &Event| e.key)
                .window(assigner)
                .aggregate(AggSpec::avg(), |e: &Event| e.value)
                .crash_at(crash);
            let batches = merged_batches(&p.stream.sources);
            let replay = |t: SimTime| Replay::new(&p, &batches).state_at(t);
            let end = replay(last);
            assert!(end.late_records > 0 && end.fired > 0, "{assigner:?}");
            // A tick covers the batches arriving at or before it.
            assert_eq!(replay(ms(50)).batches, 1);
            assert_eq!(replay(ms(100)).batches, 3);
            assert_eq!(replay(ready_at).batches, 0, "ready_at precedes every batch");

            let cases = [
                (Some(crash), false, ms(150), vec![], Some(crash)),
                (None, true, ms(250), vec![], None),
                (None, true, ms(250), vec![ready_at, frontier], None),
            ];
            for (i, (cutoff, flush, every, at, crashed)) in cases.into_iter().enumerate() {
                let pass = |exec| {
                    let every = Some(every);
                    p.ingest(
                        exec,
                        cutoff,
                        flush,
                        Capture {
                            at: at.clone(),
                            every,
                        },
                    )
                };
                let ing = pass(Exec::Threads);
                // The source stage running ahead on a helper changes
                // nothing the state machine produces.
                let same = ing == pass(Exec::InOrder);
                assert!(same, "{assigner:?} case {i}: threads vs in order");
                let first_fire = ing.fired[0].fire_at;
                let mut ck = CheckpointManager::new(CheckpointConfig::every(every));
                let mut ticks = ck.snapshot_ticks(1, first_fire, last + ms(5), crashed);
                if crashed.is_none() {
                    ticks.push(last + ms(5)); // the final tick repeats
                }
                if !at.is_empty() {
                    // A restore that covered every window cuts one tick at
                    // `ready_at`, before the first fire.
                    let mut ck = CheckpointManager::new(CheckpointConfig::every(every));
                    ticks.extend(ck.snapshot_ticks(2, first_fire, ready_at, None));
                    assert!(ready_at < first_fire && ticks.contains(&ready_at));
                    ticks.extend(at);
                }
                for t in ticks {
                    if cutoff.is_some_and(|c| t > c) {
                        continue;
                    }
                    let got = ing.states.at(t);
                    assert_eq!(got, Some(&replay(t)), "{assigner:?} case {i} at {t}");
                }
            }
        }
    }

    /// Two sources whose record weights mix in one pane and do not add up
    /// exactly (1e6/64 and 250,000/24): the fired windows (keys, logical
    /// and value bits), the keyed state's bytes at three ticks and the
    /// output digest are pinned, so the order a pane sums its weights in
    /// cannot move.
    #[test]
    fn mixed_weight_panes_are_pinned() {
        use super::super::time::{fnv1a, FNV_OFFSET};
        let a = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(1));
        let b = StreamSource::at_rate(5_000_000.0)
            .for_duration(SimTime::from_secs(1))
            .with_batch(250_000, 24);
        let ms = SimTime::from_millis;
        let env = StreamEnv::cpu(&ClusterConfig::standard(1));
        let pins = [
            (
                Tumbling::of(ms(100)),
                [
                    0xd3fe_b9b7_7761_8e24,
                    0xac73_d34b_df4c_4b0a,
                    0x482f_a26f_a78d_f3dc,
                ],
            ),
            (
                Sliding::of(ms(100), ms(40)),
                [
                    0x6887_2856_b6e8_88a5,
                    0xeb03_e6ab_3a65_a1b9,
                    0xcda4_5024_7f14_4476,
                ],
            ),
            (
                Session::with_gap(ms(30)),
                [
                    0xda32_81be_fc2d_804f,
                    0xe47b_387d_9ccb_3843,
                    0xcc26_600b_2972_85a9,
                ],
            ),
        ];
        for (assigner, pin) in pins {
            let p = env
                .source(a.clone(), event)
                .and_source(b.clone(), |i| event(i * 3 + 1))
                .timestamps(|e: &Event| e.ts, WatermarkStrategy::bounded(ms(40)))
                .key_by(|e: &Event| e.key)
                .window(assigner)
                .aggregate(AggSpec::avg(), |e: &Event| e.value);
            let ticks = vec![ms(120), ms(450), ms(800)];
            let capture = Capture {
                at: ticks.clone(),
                every: None,
            };
            let ing = p.ingest(Exec::InOrder, None, true, capture);
            let mut fired = FNV_OFFSET;
            for fw in &ing.fired {
                fnv1a(&mut fired, &fw.seq.to_le_bytes());
                fnv1a(&mut fired, &fw.span.start.as_nanos().to_le_bytes());
                fnv1a(&mut fired, &fw.span.end.as_nanos().to_le_bytes());
                for (key, logical, values) in fw.panes() {
                    fnv1a(&mut fired, &key.to_le_bytes());
                    fnv1a(&mut fired, &logical.to_bits().to_le_bytes());
                    for v in values {
                        fnv1a(&mut fired, &v.to_bits().to_le_bytes());
                    }
                }
            }
            let mut states = FNV_OFFSET;
            for t in ticks {
                fnv1a(&mut states, &ing.states.at(t).expect("captured").encode());
            }
            let digest = p.run().expect("mixed-weight run").digest();
            assert_eq!([fired, states, digest], pin, "{assigner:?}");
        }
    }

    /// A generator that panics mid-stream is re-raised on the caller with
    /// its own payload, in both modes and through `run`, instead of
    /// hanging the state machine or ending the stream early.
    #[test]
    fn panicking_generator_is_reraised_with_its_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let src = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(1));
        let f = fabric_with(1, FabricConfig::default());
        let env = StreamEnv::gpu(&f);
        let p = env
            .source(src, |i| {
                assert!(i != 300, "generator broke at record {i}");
                event(i)
            })
            .timestamps(
                |e: &Event| e.ts,
                WatermarkStrategy::bounded(SimTime::from_millis(40)),
            )
            .key_by(|e: &Event| e.key)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e: &Event| e.value);
        let payload = |run: &dyn Fn()| {
            let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the run panics");
            err.downcast_ref::<String>()
                .cloned()
                .expect("a formatted payload")
        };
        for exec in [Exec::Threads, Exec::InOrder] {
            let got = payload(&|| {
                p.ingest(exec, None, true, Capture::default());
            });
            assert_eq!(got, "generator broke at record 300", "{exec:?}");
        }
        let got = payload(&|| {
            let _ = p.run();
        });
        assert_eq!(got, "generator broke at record 300", "run");
    }

    #[test]
    fn stream_map_refuses_a_caching_spec() {
        let f = fabric_with(1, FabricConfig::default());
        let s = source(2_000_000.0);
        let run = |spec: GpuMapSpec| {
            StreamEnv::gpu(&f)
                .source(s.clone(), |i| Sample { v: i as f32 })
                .map_kernel::<Sample>(spec)
                .run()
        };
        let err = run(GpuMapSpec::new("streamDouble")).unwrap_err();
        assert_eq!(err, StreamError::CachedInput);
        let report = run(GpuMapSpec::new("streamDouble").uncached()).expect("uncached runs");
        assert_eq!(report.batches, s.num_batches());
    }

    #[test]
    fn device_loss_mid_stream_leaves_window_digest_unchanged() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let clean_f = fabric_with(2, FabricConfig::default());
        let clean_env = StreamEnv::gpu(&clean_f);
        let clean = windowed(&clean_env, &src).run().expect("clean run");
        // Kill one of worker 0's two GPUs mid-stream: the survivor absorbs
        // its work; values (and thus the digest) must not change.
        let hurt_f = fabric_with(2, FabricConfig::default());
        hurt_f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new().with(SimTime::from_millis(700), FaultKind::GpuLost { gpu: 0 }),
            );
        });
        let hurt_env = StreamEnv::gpu(&hurt_f);
        let hurt = windowed(&hurt_env, &src).run().expect("degraded run");
        assert!(hurt.report.lost.is_empty(), "survivor GPU absorbs the work");
        assert_eq!(clean.digest(), hurt.digest());
        assert_eq!(clean.watermark_digest(), hurt.watermark_digest());
    }

    #[test]
    fn total_device_loss_surfaces_lost_windows() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let mut cfg = FabricConfig::default();
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: false,
            ..CpuFallback::default()
        };
        let f = fabric_with(1, cfg);
        f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new()
                    .with(SimTime::from_millis(600), FaultKind::GpuLost { gpu: 0 })
                    .with(SimTime::from_millis(600), FaultKind::GpuLost { gpu: 1 }),
            );
        });
        let env = StreamEnv::gpu(&f);
        let run = windowed(&env, &src).run().expect("run completes, degraded");
        assert!(
            !run.report.lost.is_empty(),
            "windows after the loss are lost"
        );
        assert!(
            run.report.batches > 0,
            "windows before the loss still completed"
        );
    }

    #[test]
    fn crash_then_resume_restores_windows_from_checkpoint() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let cluster = SharedCluster::new(ClusterConfig::standard(2));
        let cfg = FabricConfig {
            checkpoint: CheckpointConfig::every(SimTime::from_millis(200)),
            ..FabricConfig::default()
        };
        let fabric = fabric_with(2, cfg);
        let env = StreamEnv::gpu(&fabric)
            .with_cluster(&cluster)
            .named("ckpt-windows");
        // Run 1 crashes at 900 ms: snapshots up to the crash are durable.
        let crashed = windowed(&env, &src)
            .crash_at(SimTime::from_millis(900))
            .run()
            .expect("crashed run completes its prefix");
        assert!(crashed.checkpoints > 0, "periodic snapshots were written");
        // Run 2 (same name, same fabric+cluster) restores and finishes.
        let resumed = windowed(&env, &src).run().expect("resumed run completes");
        assert!(
            resumed.windows_restored > 0,
            "windows covered by the snapshot are satisfied without executing"
        );
        // The resumed run's outputs are bit-identical to a never-crashed run.
        let clean_f = fabric_with(2, FabricConfig::default());
        let clean_env = StreamEnv::gpu(&clean_f);
        let clean = windowed(&clean_env, &src).run().expect("clean run");
        assert_eq!(clean.digest(), resumed.digest());
        assert_eq!(clean.watermark_digest(), resumed.watermark_digest());
        assert_eq!(
            clean.windows.len(),
            resumed.windows.len(),
            "restored + executed covers exactly the clean window set"
        );
    }
}
