#![warn(clippy::too_many_lines)]

//! GStreamManager (§5): the stream-scheduling half of the GPUManager.
//!
//! Owns the stream bulks (`stream_busy_until`), the per-GPU FIFO GWork
//! queues (the GWork Pool), and the flight table, and drives the
//! three-stage H2D → Kernel → D2H pipeline through the event loop (the
//! flight state machine itself lives in `crate::flight`):
//!
//! * [`GWork` scheduling](crate::scheduling::SchedulingPolicy) follows
//!   Algorithm 5.1: prefer the GPU whose cache region already holds the
//!   most of this job's input bytes; fall back to the bulk with the most
//!   idle streams; if no stream is idle, park the work in a per-GPU queue.
//! * When a stream frees, it **steals** per Algorithm 5.2: its own GPU's
//!   queue first, then the longest queue.
//! * Memory work (staging, allocation, reclaim) is delegated to the
//!   [`GMemoryManager`]; fault bookkeeping and retry routing to the
//!   [`RecoveryManager`].
//!
//! Handlers act on an `Engine` — the borrow-split view of the
//! coordinator's other halves — so each event can touch the memory
//! manager, the recovery manager, and the owning job's session at once.

use crate::config::{BatchConfig, GpuWorkerConfig, HybridConfig};
use crate::costmodel::{decide, CostModel, HybridRoute};
use crate::flight::{Flight, FlightTable, Member, Parked};
use crate::fused::PendingBatch;
use crate::gmemory::GMemoryManager;
use crate::gwork::{CompletedWork, GWork, WorkBuf, WorkTiming};
use crate::jobsched::{JobScheduler, PennedWork};
use crate::recovery::{FailReason, RecoveryManager, CPU_FALLBACK_GPU};
use crate::scheduling::SchedulingPolicy;
use crate::session::{JobId, JobSession};
use gflink_gpu::{GpuModel, KernelRegistry};
use gflink_memory::{ArenaBuf, HBuffer};
use gflink_sim::trace::{cpu_pid, gpu_pid, stream_tid, Cat, TraceEvent, TID_DEVICE};
use gflink_sim::{
    Counter, EventQueue, FaultKind, Gauge, Histogram, MembershipKind, Metrics, RecEvent, RecKind,
    SimRng, SimTime, Tally, Tracer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The event vocabulary of one drain.
pub(crate) enum Ev {
    /// A work enters Alg. 5.1 placement. Stored inline: the slab-backed
    /// [`EventQueue`] keeps payloads out of its heap, so boxing here would
    /// only add a pointer chase per submission.
    Submit {
        /// Owning job.
        job: JobId,
        /// Original submit instant (queueing-delay reporting).
        submitted: SimTime,
        /// Retry count so far.
        retries: u32,
        /// The work itself.
        work: GWork,
    },
    /// A stream came free; run Alg. 5.2.
    StreamFree {
        /// Device index.
        gpu: usize,
        /// Stream index within the device's bulk.
        stream: usize,
    },
    /// A flight's H2D landed; launch its member kernels.
    KernelStage(u64),
    /// A flight's kernels finished; start its D2H transfer.
    D2hStage(u64),
    /// A scripted fault fires.
    Fault(FaultKind),
    /// Watchdog: check whether flight `id` is still wedged in its kernel.
    HangCheck(u64),
    /// A pending transfer batch's accumulation window expired; flush it to
    /// the queue unless epoch `epoch` was already flushed or superseded.
    FlushBatch {
        /// Device whose batcher the window belongs to.
        gpu: usize,
        /// Identity of the pending batch the window was armed for.
        epoch: u64,
    },
    /// A scripted membership event fires: a device joins the live fabric
    /// or gracefully leaves it.
    Membership(MembershipKind),
}

impl Ev {
    /// Build a [`Ev::Submit`] — every (re-)submission path funnels through
    /// here so call sites stay one line.
    pub(crate) fn submit(job: JobId, submitted: SimTime, retries: u32, work: GWork) -> Ev {
        Ev::Submit {
            job,
            submitted,
            retries,
            work,
        }
    }
}

/// A parked work in a GPU's FIFO queue, with its owning job, original
/// submit instant (for queueing-delay reporting) and retry count.
pub(crate) struct QueuedWork {
    pub(crate) job: JobId,
    pub(crate) submitted: SimTime,
    pub(crate) retries: u32,
    pub(crate) work: GWork,
}

/// Synthetic block-index floor for split children: adaptive block sizing
/// mints child tags descending from `u32::MAX`, so any tag at or above this
/// is a child. A real fabric would need ~4 billion blocks in one partition
/// to collide with the reserved range.
pub(crate) const SPLIT_TAG_MIN: u32 = u32::MAX - (1 << 20);

/// Whether a tag names a synthetic split child rather than a caller block.
pub(crate) fn is_split_child(tag: (u32, u32)) -> bool {
    tag.1 >= SPLIT_TAG_MIN
}

/// Reassembly state for one split block: children write their output
/// slices here; when the last lands, a single parent [`CompletedWork`] is
/// emitted so consumers never see the split.
struct MergeEntry {
    name: std::sync::Arc<str>,
    tag: (u32, u32),
    out: Vec<u8>,
    remaining: usize,
    /// Accumulated parent timing: stage times/bytes sum, `started` is the
    /// earliest child start, `completed` the latest child landing (or
    /// failure instant).
    timing: WorkTiming,
    /// Device attribution: the GPU child's placement when one ran there,
    /// else [`CPU_FALLBACK_GPU`].
    gpu: usize,
    stream: usize,
    emitted: Option<usize>,
    /// First terminal child failure: the parent block fails as a unit
    /// (under its own tag) once the sibling also lands; any completed
    /// sibling output is discarded.
    failed: Option<FailReason>,
    /// Highest retry count either child reached (parent failure
    /// attribution).
    retries: u32,
    /// The two reserved child block indices, returned to the free list
    /// when the merge closes.
    child_tags: [u32; 2],
}

/// Where a split child's completion folds back in.
struct ChildRoute {
    merge: u64,
    /// Byte offset of the child's output slice in the parent output.
    offset: usize,
}

/// Borrow-split view of the coordinator handed to every event handler:
/// the two sibling managers, the open sessions, the kernel registry and
/// the worker's RNG — everything an event may need besides the stream
/// state the [`GStreamManager`] itself owns. The registry is snapshotted
/// once per drain (lock order: managers → registry), so no handler locks
/// it or clones a kernel.
pub(crate) struct Engine<'a> {
    pub gmem: &'a mut GMemoryManager,
    pub recovery: &'a mut RecoveryManager,
    pub sessions: &'a mut BTreeMap<JobId, JobSession>,
    pub registry: &'a KernelRegistry,
    pub rng: &'a mut SimRng,
}

/// The stream-scheduling half of the per-worker GPU manager.
pub struct GStreamManager {
    pub(crate) streams_per_gpu: usize,
    pub(crate) policy: SchedulingPolicy,
    /// `stream_busy_until[g][s]`
    pub(crate) stream_busy_until: Vec<Vec<SimTime>>,
    /// The multi-job scheduler: per-GPU GWork queues (the GWork Pool) under
    /// the configured cross-job arbitration, plus backpressure pens.
    pub(crate) sched: JobScheduler,
    rr_counter: usize,
    steals: u64,
    pub(crate) executed_per_gpu: Vec<u64>,
    /// Every live flight, solo or fused, keyed by its stage-event id.
    pub(crate) flights: FlightTable<Flight>,
    pub(crate) next_flight: u64,
    /// Recycled member lists of finished flights.
    pub(crate) member_vecs: Vec<Vec<Member>>,
    /// Recycled work lists of dispatched fused batches.
    pub(crate) batch_vecs: Vec<Vec<QueuedWork>>,
    /// Small-GWork transfer batching policy.
    pub(crate) batch_cfg: BatchConfig,
    /// One accumulating batch per GPU; works that would otherwise queue
    /// land here until a flush condition fires.
    pub(crate) batchers: Vec<Option<PendingBatch>>,
    /// Monotonic identity for pending batches (guards stale FlushBatch
    /// window events).
    pub(crate) batch_epoch: u64,
    /// Fused batches dispatched.
    pub(crate) fused_batches: u64,
    /// Works that travelled inside fused batches.
    pub(crate) fused_works: u64,
    /// Per-call transfer overhead (α) saved by fusing copies.
    pub(crate) alpha_saved: SimTime,
    pub(crate) tracer: Tracer,
    pub(crate) worker_id: usize,
    /// The live-metrics plane (gates flight-recorder pushes and drives
    /// time-series sampling from the dispatch/completion hot path).
    pub(crate) metrics: Metrics,
    m_dispatched: Tally,
    pub(crate) m_completed: Tally,
    m_steals: Counter,
    m_penned: Counter,
    m_pen_depth: Gauge,
    m_pen_delay: Histogram,
    /// The online cost model; `Some` only under
    /// [`SchedulingPolicy::HybridCostModel`], so every other policy pays
    /// nothing on the hot path.
    cost_model: Option<CostModel>,
    hybrid_cfg: HybridConfig,
    /// Split blocks awaiting child completions.
    merges: FlightTable<MergeEntry>,
    /// `(job, child tag)` → merge routing.
    split_children: BTreeMap<(JobId, (u32, u32)), ChildRoute>,
    /// Next synthetic child block index, descending from `u32::MAX`.
    next_child_tag: u32,
    /// Child block indices reclaimed from closed merges, reused before
    /// `next_child_tag` descends further — a long-lived worker cycles a
    /// handful of indices instead of exhausting the reserved range.
    free_child_tags: Vec<u32>,
    m_hybrid_gpu: Counter,
    m_hybrid_cpu: Counter,
    m_hybrid_splits: Counter,
    m_model_err: Gauge,
}

impl GStreamManager {
    pub(crate) fn new(cfg: &GpuWorkerConfig) -> Self {
        let n_gpus = cfg.models.len();
        let streams_per_gpu = cfg.streams_per_gpu;
        let policy = cfg.scheduling;
        GStreamManager {
            streams_per_gpu,
            policy,
            stream_busy_until: vec![vec![SimTime::ZERO; streams_per_gpu]; n_gpus],
            sched: JobScheduler::new(n_gpus, cfg.scheduler.clone()),
            rr_counter: 0,
            steals: 0,
            executed_per_gpu: vec![0; n_gpus],
            flights: FlightTable::new(),
            next_flight: 1,
            member_vecs: Vec::new(),
            batch_vecs: Vec::new(),
            batch_cfg: cfg.transfer.batch.clone(),
            batchers: (0..n_gpus).map(|_| None).collect(),
            batch_epoch: 0,
            fused_batches: 0,
            fused_works: 0,
            alpha_saved: SimTime::ZERO,
            tracer: Tracer::disabled(),
            worker_id: 0,
            metrics: Metrics::disabled(),
            m_dispatched: Tally::default(),
            m_completed: Tally::default(),
            m_steals: Counter::disabled(),
            m_penned: Counter::disabled(),
            m_pen_depth: Gauge::disabled(),
            m_pen_delay: Histogram::disabled(),
            cost_model: (policy == SchedulingPolicy::HybridCostModel).then(|| CostModel::new(cfg)),
            hybrid_cfg: cfg.hybrid.clone(),
            merges: FlightTable::new(),
            split_children: BTreeMap::new(),
            next_child_tag: u32::MAX,
            free_child_tags: Vec::new(),
            m_hybrid_gpu: Counter::disabled(),
            m_hybrid_cpu: Counter::disabled(),
            m_hybrid_splits: Counter::disabled(),
            m_model_err: Gauge::disabled(),
        }
    }

    /// Attach the live-metrics plane: registers this worker's scheduling
    /// series (dispatch/completion counters, steal and pen counters, the
    /// pen-depth gauge and the pen-delay histogram).
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics, worker_id: usize) {
        self.metrics = metrics.clone();
        self.worker_id = worker_id;
        let l = format!("{{worker=\"{worker_id}\"}}");
        self.m_dispatched.publish();
        self.m_completed.publish();
        self.m_dispatched = Tally::new(metrics.counter(
            &format!("gflink_works_dispatched_total{l}"),
            "Works entering Alg. 5.1 placement (including retries)",
        ));
        self.m_completed = Tally::new(metrics.counter(
            &format!("gflink_works_completed_total{l}"),
            "Works whose D2H landed",
        ));
        self.m_steals = metrics.counter(
            &format!("gflink_steals_total{l}"),
            "Alg. 5.2 steals from foreign queues",
        );
        self.m_penned = metrics.counter(
            &format!("gflink_works_penned_total{l}"),
            "Submissions parked in the backpressure pen",
        );
        self.m_pen_depth = metrics.gauge(
            &format!("gflink_pen_depth{l}"),
            "Works currently parked in backpressure pens",
        );
        self.m_pen_delay = metrics.histogram(
            &format!("gflink_pen_delay{l}"),
            "Pen residency before release",
        );
        self.m_hybrid_gpu = metrics.counter(
            &format!("gflink_hybrid_gpu_total{l}"),
            "Works the hybrid cost model placed on a GPU",
        );
        self.m_hybrid_cpu = metrics.counter(
            &format!("gflink_hybrid_cpu_total{l}"),
            "Works the hybrid cost model placed on the host CPU",
        );
        self.m_hybrid_splits = metrics.counter(
            &format!("gflink_hybrid_splits_total{l}"),
            "Blocks the hybrid cost model split across CPU and GPU",
        );
        self.m_model_err = metrics.gauge(
            &format!("gflink_hybrid_model_error_permille{l}"),
            "Relative prediction error of the last hybrid completion (permille)",
        );
    }

    /// Attach a tracer and name one trace thread per CUDA stream. Stage
    /// spans land on these threads; overlapping spans across streams of one
    /// GPU are the §5 pipelining made visible.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer, worker_id: usize) {
        if tracer.enabled() {
            for g in 0..self.stream_busy_until.len() {
                for s in 0..self.streams_per_gpu {
                    tracer.name_thread(
                        gpu_pid(worker_id, g),
                        stream_tid(s),
                        &format!("stream {s}"),
                    );
                }
            }
        }
        self.tracer = tracer;
        self.worker_id = worker_id;
    }

    /// Streams per GPU (the stream bulk size).
    pub fn streams_per_gpu(&self) -> usize {
        self.streams_per_gpu
    }

    /// Number of Alg. 5.2 steals from foreign queues.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Fused transfer batches dispatched.
    pub fn fused_batches(&self) -> u64 {
        self.fused_batches
    }

    /// Works that travelled inside fused batches.
    pub fn fused_works(&self) -> u64 {
        self.fused_works
    }

    /// Per-call transfer overhead (α) saved by fusing copies.
    pub fn alpha_saved(&self) -> SimTime {
        self.alpha_saved
    }

    /// Works executed per GPU (load-balance reporting). CPU-fallback works
    /// are not attributed to any GPU.
    pub fn executed_per_gpu(&self) -> &[u64] {
        &self.executed_per_gpu
    }

    /// Open a drain on `q` (reset, capacity kept): wake every live stream
    /// at its busy-until so queued work left from interleaved submissions
    /// is always picked up, enter the scripted faults and membership
    /// events once each, then every session's pending works as one run,
    /// stably ordered by submit instant (ties: session id, then submission
    /// order) — the order, and so the pop order, of scheduling them one by
    /// one.
    pub(crate) fn seed_drain(
        &self,
        q: &mut EventQueue<Ev>,
        gmem: &GMemoryManager,
        recovery: &mut RecoveryManager,
        sessions: &mut BTreeMap<JobId, JobSession>,
    ) {
        q.reset();
        for (g, streams) in self.stream_busy_until.iter().enumerate() {
            if gmem.usable(g) {
                for (s, &busy) in streams.iter().enumerate() {
                    q.schedule(busy, Ev::StreamFree { gpu: g, stream: s });
                }
            }
        }
        for e in recovery.take_unscheduled_faults() {
            q.schedule(e.at, Ev::Fault(e.kind));
        }
        for e in recovery.take_unscheduled_membership() {
            q.schedule(e.at, Ev::Membership(e.kind));
        }
        let mut pending: Vec<(JobId, SimTime, GWork)> = Vec::new();
        for (&j, s) in sessions.iter_mut() {
            pending.extend(s.pending.drain(..).map(|(t, w)| (j, t, w)));
        }
        pending.sort_by_key(|&(_, t, _)| t);
        q.extend_sorted(
            pending
                .into_iter()
                .map(|(job, t, work)| (t, Ev::submit(job, t, 0, work))),
        );
    }

    /// Publish every per-work tally — this layer's and the memory layer's —
    /// to the live-metrics plane: before each sample and at a drain's end,
    /// so samples and exports read what per-work atomic adds would show.
    pub(crate) fn publish_metrics(&mut self, gmem: &mut GMemoryManager) {
        self.m_dispatched.publish();
        self.m_completed.publish();
        gmem.publish_metrics();
    }

    /// Sample the metrics plane at `t` if a tick is due, publishing the
    /// tallies first.
    pub(crate) fn sample_metrics(&mut self, gmem: &mut GMemoryManager, t: SimTime) {
        if self.metrics.sample_due(t) {
            self.publish_metrics(gmem);
            self.metrics.maybe_sample(t);
        }
    }

    /// True when no work is queued, penned, accumulating in a batcher, or
    /// in flight (end-of-drain invariant).
    pub(crate) fn is_idle(&self) -> bool {
        self.sched.is_idle()
            && self.flights.is_empty()
            && self.merges.is_empty()
            && self.batchers.iter().all(Option::is_none)
    }

    /// Alg. 5.1, step 1: the GPU whose cache region holds the most of this
    /// work's cached input bytes (`GID`), or `None` when nothing is
    /// resident. Only the owning job's regions are consulted — another
    /// tenant caching the same key must not attract this job's work. Lost
    /// devices never win: their regions were invalidated at loss.
    fn locality_gpu(gmem: &GMemoryManager, session: &JobSession, work: &GWork) -> Option<usize> {
        if work.inputs.iter().all(|b| b.cache_key.is_none()) {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for (g, region) in session.regions.iter().enumerate() {
            if !gmem.usable(g) {
                continue;
            }
            let bytes = region.resident_bytes(work.inputs.iter().filter_map(|b| b.cache_key));
            if bytes > 0 && best.map(|(_, b)| bytes > b).unwrap_or(true) {
                best = Some((g, bytes));
            }
        }
        best.map(|(g, _)| g)
    }

    fn idle_streams(&self, gpu: usize, t: SimTime) -> usize {
        self.stream_busy_until[gpu]
            .iter()
            .filter(|&&b| b <= t)
            .count()
    }

    pub(crate) fn first_idle_stream(&self, gpu: usize, t: SimTime) -> Option<usize> {
        self.stream_busy_until[gpu].iter().position(|&b| b <= t)
    }

    /// The bulk with the most idle streams (ties → lowest GPU index). A
    /// lost device's streams are pinned busy forever, so it never appears.
    pub(crate) fn most_idle_bulk(&self, t: SimTime) -> Option<(usize, usize)> {
        let (mut best_g, mut best_idle) = (0usize, 0usize);
        for g in 0..self.stream_busy_until.len() {
            let idle = self.idle_streams(g, t);
            if idle > best_idle {
                best_g = g;
                best_idle = idle;
            }
        }
        if best_idle == 0 {
            None
        } else {
            Some((best_g, self.first_idle_stream(best_g, t).unwrap()))
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        mut work: GWork,
        submitted: SimTime,
        retries: u32,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        self.m_dispatched.inc();
        self.sample_metrics(eng.gmem, t);
        // Intern the kernel name once at submission: spec-built works
        // arrive pre-resolved; hand-built ones resolve here. Every later
        // stage dispatches by id (an array index, no string hashing).
        if !work.kernel.is_resolved() {
            if let Some(id) = eng.registry.resolve(&work.execute_name) {
                work.kernel = id;
            }
        }
        if eng.gmem.usable_gpus() == 0 {
            let session = eng.sessions.get_mut(&job).expect("session open");
            let run = eng
                .recovery
                .run_on_cpu(session, job, eng.registry, work, submitted, t);
            match run {
                Ok(done) => self.deliver(eng, job, done),
                Err((work, reason)) => {
                    self.fail_terminal(eng, job, work, submitted, retries, t, reason)
                }
            }
            return;
        }
        // Backpressure: a job already holding its queued-bytes cap parks
        // its further first-attempt submissions in the pen; they re-enter
        // as the job's backlog drains (see `on_stream_free`) or at drain
        // quiescence (`flush_parked`). Retries bypass the pen: they were
        // admitted once and recovery must not deadlock behind admission.
        // Split children bypass it too: their parent block was already
        // admitted, and penning half a split would leave its merge entry
        // hostage to admission.
        if retries == 0 && !is_split_child(work.tag) && self.sched.should_pen(job) {
            if let Some(session) = eng.sessions.get_mut(&job) {
                session.parked_works += 1;
                if self.metrics.enabled() {
                    session.recorder.push(RecEvent::new(
                        t,
                        RecKind::WorkPenned,
                        self.worker_id as u32,
                    ));
                }
            }
            self.sched.pen_work(
                job,
                PennedWork {
                    arrived: t,
                    submitted,
                    retries,
                    work,
                },
            );
            self.m_penned.inc();
            self.m_pen_depth.set(self.sched.pen_depth_total() as u64);
            return;
        }
        // Hybrid placement (ISSUE 9): the cost model compares the best GPU
        // route against the host CPU pool. GPU wins fall straight through
        // into Alg. 5.1 below — code-identical placement, so when the GPUs
        // win every prediction the timeline matches `LocalityAware` bit for
        // bit. Retries and split children always stay on the GPU path.
        if self.cost_model.is_some()
            && retries == 0
            && !is_split_child(work.tag)
            && eng.recovery.host_enabled()
        {
            match self.hybrid_route(eng, job, &work, t) {
                HybridRoute::Gpu => {
                    self.m_hybrid_gpu.inc();
                    if let Some(session) = eng.sessions.get_mut(&job) {
                        session.hybrid_gpu += 1;
                    }
                }
                HybridRoute::Cpu => {
                    self.run_hybrid_cpu(eng, job, work, submitted, retries, t, q);
                    return;
                }
                HybridRoute::Split { cpu_n } => {
                    self.split_and_dispatch(eng, job, work, submitted, cpu_n, t, q);
                    return;
                }
            }
        }
        // Pick the target GPU and, when one is idle there, the stream.
        let (gpu, stream) = match self.policy {
            SchedulingPolicy::LocalityAware
            | SchedulingPolicy::LocalityNoSteal
            | SchedulingPolicy::HybridCostModel => {
                let gid = {
                    let session = eng.sessions.get(&job).expect("session open");
                    Self::locality_gpu(eng.gmem, session, &work)
                };
                // Algorithm 5.1.
                let placed = match gid {
                    Some(g) => match self.first_idle_stream(g, t) {
                        Some(s) => Some((g, s)),
                        None => self.most_idle_bulk(t),
                    },
                    None => self.most_idle_bulk(t),
                };
                match placed {
                    Some((g, s)) => (g, Some(s)),
                    // Lines 11–18: park in GID's queue, or the least loaded
                    // usable queue when GID is null.
                    None => {
                        let g = gid.filter(|&g| eng.gmem.usable(g)).unwrap_or_else(|| {
                            (0..self.sched.num_queues())
                                .filter(|&i| eng.gmem.usable(i))
                                .min_by_key(|&i| self.sched.queue_len(i))
                                .unwrap()
                        });
                        (g, None)
                    }
                }
            }
            SchedulingPolicy::RoundRobin => {
                let n = self.sched.num_queues();
                let mut g = self.rr_counter % n;
                self.rr_counter += 1;
                while !eng.gmem.usable(g) {
                    g = (g + 1) % n;
                }
                (g, self.first_idle_stream(g, t))
            }
            SchedulingPolicy::Random { .. } => {
                let usable: Vec<usize> = (0..self.sched.num_queues())
                    .filter(|&g| eng.gmem.usable(g))
                    .collect();
                let g = usable[eng.rng.gen_index(usable.len())];
                (g, self.first_idle_stream(g, t))
            }
        };
        let qw = QueuedWork {
            job,
            submitted,
            retries,
            work,
        };
        match stream {
            Some(s) => {
                self.execute(eng, Parked::one(qw), gpu, s, t, q);
            }
            // Under the locality policies, small works that would queue
            // anyway accumulate into a fused transfer batch instead —
            // batching only ever engages under backlog, so an idle fabric
            // sees zero added latency.
            None if self.policy.locality_aware() && self.batchable(retries, &qw.work) => {
                self.enqueue_batched(qw, gpu, t, q);
            }
            None => self.sched.park(gpu, Parked::one(qw)),
        }
    }

    /// Algorithm 5.2: a freed stream pulls from its own GPU's queue first,
    /// then from the fullest queue.
    pub(crate) fn on_stream_free(
        &mut self,
        eng: &mut Engine<'_>,
        gpu: usize,
        stream: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if !eng.gmem.usable(gpu) || self.stream_busy_until[gpu][stream] > t {
            // Lost device, or a superseded wake-up: the stream picked up new
            // work since this event was scheduled.
            return;
        }
        // An idle stream never waits out a batching window: if its queue is
        // dry but its batcher holds works, flush them now.
        if self.sched.queue_is_empty(gpu) && self.batchers[gpu].is_some() {
            self.flush_batcher(gpu);
        }
        let mut stolen = false;
        let work = {
            let weight_of = |j: JobId| {
                eng.sessions
                    .get(&j)
                    .map(|s| u64::from(s.weight))
                    .unwrap_or(1)
            };
            if let Some(w) = self.sched.pop(gpu, &weight_of) {
                Some(w)
            } else if self.policy.steals() {
                let victim = (0..self.sched.num_queues())
                    .max_by_key(|&i| self.sched.queue_len(i))
                    .filter(|&i| !self.sched.queue_is_empty(i));
                victim.map(|i| {
                    self.steals += 1;
                    stolen = true;
                    self.sched.pop(i, &weight_of).expect("victim non-empty")
                })
            } else {
                None
            }
        };
        if let Some(parked) = work {
            // One dequeue of a job's work may free room under its
            // queued-bytes cap: release one penned work back into the loop.
            if let Some(penned) = self.sched.try_release(parked.job()) {
                let delay = t.saturating_sub(penned.arrived);
                if let Some(session) = eng.sessions.get_mut(&parked.job()) {
                    session.park_delay += delay;
                    session.pen_hist.record(delay);
                }
                self.m_pen_delay.record(delay);
                self.m_pen_depth.set(self.sched.pen_depth_total() as u64);
                q.schedule(
                    t,
                    Ev::submit(parked.job(), penned.submitted, penned.retries, penned.work),
                );
            }
            if stolen {
                self.m_steals.inc();
                if let Some(session) = eng.sessions.get_mut(&parked.job()) {
                    session.steals += 1;
                }
                if self.tracer.enabled() {
                    self.tracer.record(
                        TraceEvent::instant(
                            gpu_pid(self.worker_id, gpu),
                            stream_tid(stream),
                            Cat::Queue,
                            "steal",
                            t,
                        )
                        .with_job(parked.job().0)
                        .with_arg("op", parked.op_label()),
                    );
                }
            }
            self.execute(eng, parked, gpu, stream, t, q);
        }
    }

    /// Push a device-scoped flight-recorder event into every open session
    /// (a dead device is every tenant's problem). No-op when the metrics
    /// plane is off.
    fn record_all(&self, eng: &mut Engine<'_>, t: SimTime, kind: RecKind, gpu: usize) {
        if !self.metrics.enabled() {
            return;
        }
        let w = self.worker_id as u32;
        for session in eng.sessions.values_mut() {
            session.recorder.push(RecEvent::new(t, kind, w).on_gpu(gpu));
        }
    }

    /// A scripted fault fires.
    pub(crate) fn on_fault(
        &mut self,
        eng: &mut Engine<'_>,
        kind: FaultKind,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        eng.recovery.note_fault_injected(&mut *eng.sessions);
        let gpu = kind.gpu();
        assert!(
            gpu < eng.gmem.gpu_count(),
            "fault targets unknown device {gpu}"
        );
        self.record_all(eng, t, RecKind::FaultInjected, gpu);
        if self.tracer.enabled() {
            self.tracer.record(
                TraceEvent::instant(
                    gpu_pid(self.worker_id, gpu),
                    TID_DEVICE,
                    Cat::Recovery,
                    "fault-injected",
                    t,
                )
                .with_arg("kind", format!("{kind:?}")),
            );
        }
        match kind {
            FaultKind::GpuLost { .. } => {
                if eng.gmem.gpu(gpu).health().is_lost() {
                    return; // already gone; nothing more to lose
                }
                eng.recovery.note_gpu_lost(&mut *eng.sessions);
                self.record_all(eng, t, RecKind::DeviceLost, gpu);
                eng.gmem.gpu_mut(gpu).mark_lost(t);
                // Every open session loses its region on the dead device;
                // each tenant's ledger records its own invalidations.
                for session in eng.sessions.values_mut() {
                    let n = session.regions[gpu].invalidate_all() as u64;
                    eng.recovery.note_invalidations(session, n);
                }
                self.drain_device(eng, gpu, t, q);
            }
            FaultKind::GpuDegraded { throughput, .. } => {
                if eng.gmem.gpu(gpu).health().is_lost() {
                    return;
                }
                eng.recovery.note_gpu_degraded(&mut *eng.sessions);
                self.record_all(eng, t, RecKind::DeviceDegraded, gpu);
                eng.gmem.gpu_mut(gpu).degrade(t, throughput);
            }
            FaultKind::KernelTransient { .. } => {
                eng.recovery.arm_transient(gpu);
            }
            FaultKind::KernelHang { .. } => {
                eng.recovery.arm_hang(gpu);
            }
        }
    }

    /// Evacuate a device that just left the live fabric (lost to a fault
    /// or gracefully retired): blacklist its streams, re-submit its live
    /// flights, and drain its queue — and any accumulating batch — onto the
    /// survivors.
    fn drain_device(
        &mut self,
        eng: &mut Engine<'_>,
        gpu: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // Blacklist: the device's streams never come free again.
        for s in 0..self.streams_per_gpu {
            self.stream_busy_until[gpu][s] = SimTime::MAX;
        }
        self.evacuate_flights(eng, gpu, t, q);
        // Drain the dead device's queue — and its accumulating
        // batch — onto the survivors.
        if self.batchers[gpu].is_some() {
            self.flush_batcher(gpu);
        }
        let queued: Vec<Parked> = self.sched.drain_queue(gpu);
        for parked in queued {
            for qw in std::iter::once(parked.head).chain(parked.rest) {
                let session = eng.sessions.get_mut(&qw.job).expect("session open");
                eng.recovery.note_steal_on_drain(session);
                if self.metrics.enabled() {
                    session.recorder.push(
                        RecEvent::new(t, RecKind::StealOnDrain, self.worker_id as u32).on_gpu(gpu),
                    );
                }
                q.schedule(t, Ev::submit(qw.job, qw.submitted, qw.retries, qw.work));
            }
        }
    }

    /// A scripted membership event fires. A **join** appends a fresh device
    /// to the worker's complement — new stream bulk, new GWork queue, one
    /// new cache region per open session — and wakes its streams so Alg.
    /// 5.2 immediately rebalances queued backlog onto it. A **leave**
    /// gracefully retires the device: its cached blocks are invalidated,
    /// its in-flight and queued works are evacuated onto the survivors, and
    /// no fault is charged — the ledger records a membership change, not a
    /// failure.
    pub(crate) fn on_membership(
        &mut self,
        eng: &mut Engine<'_>,
        kind: MembershipKind,
        cfg: &GpuWorkerConfig,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        match kind {
            MembershipKind::Join => {
                // Joining devices cycle through the worker's model list,
                // exactly like initial construction.
                let model: GpuModel = cfg.models[eng.gmem.gpu_count() % cfg.models.len()];
                let g = eng.gmem.join_device(model);
                eng.recovery.grow_device();
                if let Some(cm) = self.cost_model.as_mut() {
                    cm.grow(model);
                }
                eng.recovery.note_member_joined(&mut *eng.sessions);
                self.record_all(eng, t, RecKind::MemberJoined, g);
                self.stream_busy_until
                    .push(vec![SimTime::ZERO; self.streams_per_gpu]);
                self.executed_per_gpu.push(0);
                self.batchers.push(None);
                self.sched.push_queue();
                for session in eng.sessions.values_mut() {
                    session.regions.push(eng.gmem.new_region_for(g));
                }
                if self.tracer.enabled() {
                    for s in 0..self.streams_per_gpu {
                        self.tracer.name_thread(
                            gpu_pid(self.worker_id, g),
                            stream_tid(s),
                            &format!("stream {s}"),
                        );
                    }
                    self.tracer.record(TraceEvent::instant(
                        gpu_pid(self.worker_id, g),
                        TID_DEVICE,
                        Cat::Recovery,
                        "join",
                        t,
                    ));
                }
                // Wake the new bulk: each fresh stream runs Alg. 5.2 and
                // pulls queued backlog onto the joined device.
                for s in 0..self.streams_per_gpu {
                    q.schedule(t, Ev::StreamFree { gpu: g, stream: s });
                }
                eng.gmem
                    .rebalance_regions(eng.sessions, cfg.scheduler.partition_cache);
            }
            MembershipKind::Leave { gpu } => {
                if gpu >= eng.gmem.gpu_count() || !eng.gmem.usable(gpu) {
                    return; // never joined, already lost, or already retired
                }
                eng.recovery.note_member_left(&mut *eng.sessions);
                self.record_all(eng, t, RecKind::MemberLeft, gpu);
                eng.gmem.retire_device(gpu, t);
                // Every open session loses its region on the retiring
                // device; graceful or not, the blocks are gone.
                for session in eng.sessions.values_mut() {
                    let n = session.regions[gpu].invalidate_all() as u64;
                    eng.recovery.note_invalidations(session, n);
                }
                self.drain_device(eng, gpu, t, q);
                eng.gmem
                    .rebalance_regions(eng.sessions, cfg.scheduler.partition_cache);
            }
        }
    }

    /// Drain-quiescence safety net for the backpressure pens: the event
    /// queue ran dry while works sat penned (their job's whole backlog
    /// executed straight off idle streams, so no dequeue ever released
    /// them). Re-inject every penned work at `t` and report whether the
    /// event loop must keep running. Penned works are therefore delayed —
    /// never dropped — even in degenerate schedules.
    pub(crate) fn flush_parked(
        &mut self,
        eng: &mut Engine<'_>,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) -> bool {
        let flushed = self.sched.flush_pens();
        if flushed.is_empty() {
            return false;
        }
        for (job, p) in flushed {
            let delay = t.saturating_sub(p.arrived);
            if let Some(session) = eng.sessions.get_mut(&job) {
                session.park_delay += delay;
                session.pen_hist.record(delay);
            }
            self.m_pen_delay.record(delay);
            q.schedule(t, Ev::submit(job, p.submitted, p.retries, p.work));
        }
        self.m_pen_depth.set(self.sched.pen_depth_total() as u64);
        true
    }
}

/// Hybrid CPU+GPU placement (ISSUE 9): the cost-model routing, the host
/// execution path, and split-block reassembly.
impl GStreamManager {
    /// Decide where the cost model sends `work`: the best GPU route (Alg.
    /// 5.1 then picks the concrete device), the host CPU pool, or a split
    /// across both.
    fn hybrid_route(&self, eng: &Engine<'_>, job: JobId, work: &GWork, t: SimTime) -> HybridRoute {
        let cm = self.cost_model.as_ref().expect("hybrid policy active");
        let session = eng.sessions.get(&job).expect("session open");
        let kbytes = work.input_logical_bytes() + work.out_logical_bytes;
        let keys = || work.inputs.iter().filter_map(|b| b.cache_key);
        let mut best: Option<SimTime> = None;
        for g in 0..self.stream_busy_until.len() {
            if !eng.gmem.usable(g) {
                continue;
            }
            // Cache-hit discount: resident input bytes skip the H2D.
            let resident = session.regions[g].resident_bytes(keys());
            let miss = work.input_logical_bytes().saturating_sub(resident);
            let kest = cm.gpu_kernel_time(g, work.kernel, kbytes);
            // Queue term of Eq. (1): an idle stream starts now; otherwise
            // the queued backlog shares the bulk's streams.
            let queue_wait = if self.first_idle_stream(g, t).is_some() {
                SimTime::ZERO
            } else {
                let depth = self.sched.queue_len(g) as u64 + 1;
                SimTime::from_nanos(
                    kest.as_nanos().saturating_mul(depth) / self.streams_per_gpu.max(1) as u64,
                )
            };
            let pred =
                queue_wait + cm.h2d_time(g, miss) + kest + cm.d2h_time(g, work.out_logical_bytes);
            if best.map(|b| pred < b).unwrap_or(true) {
                best = Some(pred);
            }
        }
        let Some(gpu_pred) = best else {
            return HybridRoute::Gpu; // no usable GPU: handled upstream
        };
        let cpu_pred = eng.recovery.host().backlog(t) + cm.host_kernel_time(work.kernel, kbytes);
        let splittable = self.split_eligible(eng, work).then_some(work.n_actual);
        decide(
            &self.hybrid_cfg,
            gpu_pred,
            cpu_pred,
            cm.error(work.kernel),
            splittable,
        )
    }

    /// Whether a block can be split element-wise: a kernel *declared*
    /// element-wise at registration, one output record per element, every
    /// input and the output dividing evenly by the element count, and both
    /// halves clearing the minimum split size. The registry declaration is
    /// load-bearing: shape divisibility alone cannot tell a true map from
    /// an operator whose shared side input (k-means centroids, SpMV row
    /// pointers) is coincidentally divisible — slicing those per-element
    /// would silently compute wrong results.
    fn split_eligible(&self, eng: &Engine<'_>, work: &GWork) -> bool {
        let n = work.n_actual;
        work.kernel.is_resolved()
            && n >= 2 * self.hybrid_cfg.min_split_elems.max(1)
            && work.out_records == n
            && work.out_actual_bytes.is_multiple_of(n)
            && work.out_logical_bytes.is_multiple_of(n as u64)
            && work.n_logical.is_multiple_of(n as u64)
            && work
                .inputs
                .iter()
                .all(|b| b.data.len().is_multiple_of(n) && b.logical_bytes.is_multiple_of(n as u64))
            && eng.registry.is_elementwise(work.kernel)
    }

    /// Mint a synthetic child tag under `parent`'s partition: indices
    /// reclaimed from closed merges are reused first, then fresh ones
    /// descend from `u32::MAX` (see [`SPLIT_TAG_MIN`]).
    fn alloc_child_tag(&mut self, parent: (u32, u32)) -> (u32, u32) {
        let idx = match self.free_child_tags.pop() {
            Some(idx) => idx,
            None => {
                assert!(
                    self.next_child_tag >= SPLIT_TAG_MIN,
                    "split child tag space exhausted"
                );
                let idx = self.next_child_tag;
                self.next_child_tag -= 1;
                idx
            }
        };
        (parent.0, idx)
    }

    /// Build the child `GWork` covering elements `[start, start + count)`
    /// of `parent`. Child inputs are transient copies of the parent's
    /// slices — a child must not alias the parent's cache identity, or the
    /// partial block would poison later full-block cache hits.
    fn slice_work(parent: &GWork, start: usize, count: usize, tag: (u32, u32)) -> GWork {
        let n = parent.n_actual;
        let inputs = parent
            .inputs
            .iter()
            .map(|b| {
                let bpe = b.data.len() / n;
                let slice = &b.data.as_slice()[start * bpe..(start + count) * bpe];
                WorkBuf::transient(
                    Arc::new(HBuffer::from_bytes(slice)),
                    b.logical_bytes / n as u64 * count as u64,
                )
            })
            .collect();
        GWork {
            name: parent.name.clone(),
            execute_name: parent.execute_name.clone(),
            kernel: parent.kernel,
            ptx_path: parent.ptx_path.clone(),
            block_size: parent.block_size,
            grid_size: parent.grid_size,
            inputs,
            out_actual_bytes: parent.out_actual_bytes / n * count,
            out_logical_bytes: parent.out_logical_bytes / n as u64 * count as u64,
            out_records: count,
            params: parent.params.clone(),
            n_actual: count,
            n_logical: parent.n_logical / n as u64 * count as u64,
            coalescing: parent.coalescing,
            tag,
        }
    }

    /// Split `work` into a host child and a GPU child, register the merge
    /// entry, and dispatch both. Consumers only ever see the reassembled
    /// parent completion.
    #[allow(clippy::too_many_arguments)]
    fn split_and_dispatch(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        cpu_n: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        self.m_hybrid_splits.inc();
        if let Some(session) = eng.sessions.get_mut(&job) {
            session.hybrid_splits += 1;
        }
        let n = work.n_actual;
        let out_per_elem = work.out_actual_bytes / n;
        let cpu_tag = self.alloc_child_tag(work.tag);
        let gpu_tag = self.alloc_child_tag(work.tag);
        let cpu_work = Self::slice_work(&work, 0, cpu_n, cpu_tag);
        let gpu_work = Self::slice_work(&work, cpu_n, n - cpu_n, gpu_tag);
        let merge = self.merges.insert(MergeEntry {
            name: work.name.clone(),
            tag: work.tag,
            out: vec![0u8; work.out_actual_bytes],
            remaining: 2,
            timing: WorkTiming {
                submitted,
                started: SimTime::MAX,
                ..WorkTiming::default()
            },
            gpu: CPU_FALLBACK_GPU,
            stream: 0,
            emitted: None,
            failed: None,
            retries: 0,
            child_tags: [cpu_tag.1, gpu_tag.1],
        });
        self.split_children
            .insert((job, cpu_tag), ChildRoute { merge, offset: 0 });
        self.split_children.insert(
            (job, gpu_tag),
            ChildRoute {
                merge,
                offset: cpu_n * out_per_elem,
            },
        );
        self.run_hybrid_cpu(eng, job, cpu_work, submitted, 0, t, q);
        self.dispatch(eng, job, gpu_work, submitted, 0, t, q);
    }

    /// Execute one work on the host CPU pool by cost-model choice: the same
    /// engine (and slot timelines) as the recovery fallback, but ledgered
    /// as a hybrid placement, not a fault.
    #[allow(clippy::too_many_arguments)]
    fn run_hybrid_cpu(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // Predict before reserving the slot (the reservation moves the
        // backlog): execution-only, matching the GPU completion path where
        // queueing is excluded from both sides of the error.
        let kbytes = work.input_logical_bytes() + work.out_logical_bytes;
        let pred = self
            .cost_model
            .as_ref()
            .map(|cm| cm.host_kernel_time(work.kernel, kbytes));
        match eng.recovery.exec_on_host(eng.registry, &work, t) {
            Ok(he) => {
                self.m_hybrid_cpu.inc();
                let session = eng.sessions.get_mut(&job).expect("session open");
                session.hybrid_cpu += 1;
                if self.metrics.enabled() {
                    session.recorder.push(RecEvent::new(
                        t,
                        RecKind::HybridCpu,
                        self.worker_id as u32,
                    ));
                }
                if self.tracer.enabled() {
                    self.tracer.record(
                        TraceEvent::span(
                            cpu_pid(self.worker_id),
                            1 + he.slot as u32,
                            Cat::Cpu,
                            &*work.name,
                            he.start,
                            he.end,
                        )
                        .with_job(job.0)
                        .with_arg("placement", "hybrid"),
                    );
                }
                if let Some(cm) = self.cost_model.as_mut() {
                    // Score the prediction against this execution first
                    // (the error gauges the model as it stood), then fold
                    // the observation in — the same discipline as the GPU
                    // completion path, so CPU-dominated workloads feed the
                    // error EWMA that shrinks risky split shares too.
                    let obs = he.end.saturating_sub(he.start);
                    if let Some(pred) = pred {
                        if !obs.is_zero() {
                            let rel = crate::model::prediction_error(pred, obs);
                            cm.observe_error(work.kernel, rel);
                            session.hybrid_err.record_nanos((rel * 10_000.0) as u64);
                            self.m_model_err.set((rel * 1_000.0) as u64);
                        }
                    }
                    cm.observe_host_kernel(work.kernel, kbytes, obs);
                }
                let done = he.into_completed(work, submitted);
                self.deliver(eng, job, done);
            }
            Err(err) => {
                self.route_retry_or_fail(
                    eng,
                    job,
                    work,
                    submitted,
                    retries,
                    t,
                    FailReason::Fatal(err),
                    q,
                );
            }
        }
    }

    /// Feed a flight of one's completion to the cost model: score the
    /// prediction against it first (the error gauges the model as it
    /// stood), then fold the observation in. No-op off the hybrid policy.
    pub(crate) fn observe_gpu_run(
        &mut self,
        session: &mut JobSession,
        gpu: usize,
        work: &GWork,
        timing: &WorkTiming,
    ) {
        let Some(cm) = self.cost_model.as_mut() else {
            return;
        };
        let kbytes = work.input_logical_bytes() + work.out_logical_bytes;
        let pred = cm.h2d_time(gpu, timing.bytes_h2d)
            + cm.gpu_kernel_time(gpu, work.kernel, kbytes)
            + cm.d2h_time(gpu, timing.bytes_d2h);
        let obs = timing.h2d + timing.kernel + timing.d2h;
        if !obs.is_zero() {
            let rel = crate::model::prediction_error(pred, obs);
            cm.observe_error(work.kernel, rel);
            session.hybrid_err.record_nanos((rel * 10_000.0) as u64);
            self.m_model_err.set((rel * 1_000.0) as u64);
        }
        cm.observe_gpu_kernel(gpu, work.kernel, kbytes, timing.kernel);
        cm.observe_h2d(gpu, timing.bytes_h2d, timing.h2d);
        cm.observe_d2h(gpu, timing.bytes_d2h, timing.d2h);
    }

    /// Route a completion to its consumer: ordinary works land in the
    /// session; split children fold into their merge entry, which emits the
    /// reassembled parent completion (or a single parent failure, if a
    /// sibling failed terminally) when the last child lands.
    pub(crate) fn deliver(&mut self, eng: &mut Engine<'_>, job: JobId, done: CompletedWork) {
        let Some(route) = self.split_children.remove(&(job, done.tag)) else {
            let session = eng.sessions.get_mut(&job).expect("session open");
            session.completed.push(done);
            return;
        };
        let entry = self.merges.get_mut(route.merge).expect("merge entry live");
        let bytes = done.output.as_slice();
        entry.out[route.offset..route.offset + bytes.len()].copy_from_slice(bytes);
        let mt = &mut entry.timing;
        mt.started = mt.started.min(done.timing.started);
        mt.completed = mt.completed.max(done.timing.completed);
        mt.h2d += done.timing.h2d;
        mt.kernel += done.timing.kernel;
        mt.d2h += done.timing.d2h;
        mt.cache_hits += done.timing.cache_hits;
        mt.cache_misses += done.timing.cache_misses;
        mt.bytes_h2d += done.timing.bytes_h2d;
        mt.bytes_d2h += done.timing.bytes_d2h;
        if let Some(e) = done.emitted {
            entry.emitted = Some(entry.emitted.unwrap_or(0) + e);
        }
        if done.gpu != CPU_FALLBACK_GPU {
            entry.gpu = done.gpu;
            entry.stream = done.stream;
        }
        entry.remaining -= 1;
        if entry.remaining == 0 {
            self.finish_merge(eng, job, route.merge);
        }
    }

    /// Close a merge entry once both children have landed: emit the
    /// reassembled parent completion, or — when any child failed terminally
    /// — one parent failure under the parent's original tag (the block is
    /// lost as a unit, exactly like an unsplit failure; any completed
    /// sibling output is discarded). Either way the children's reserved
    /// tag indices return to the free list.
    fn finish_merge(&mut self, eng: &mut Engine<'_>, job: JobId, merge: u64) {
        let entry = self.merges.remove(merge).expect("merge entry live");
        self.free_child_tags.extend(entry.child_tags);
        let session = eng.sessions.get_mut(&job).expect("session open");
        match entry.failed {
            Some(reason) => eng.recovery.fail_named(
                session,
                &entry.name,
                entry.tag,
                entry.retries,
                entry.timing.submitted,
                entry.timing.completed,
                reason,
            ),
            None => session.completed.push(CompletedWork {
                name: entry.name,
                tag: entry.tag,
                gpu: entry.gpu,
                stream: entry.stream,
                output: ArenaBuf::detached(HBuffer::from_bytes(&entry.out)),
                emitted: entry.emitted,
                timing: entry.timing,
            }),
        }
    }

    /// A split child failed terminally: fold the failure into its merge
    /// entry instead of surfacing the synthetic tag. The parent fails once
    /// the sibling also lands (see [`GStreamManager::finish_merge`]).
    fn fail_split_child(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        tag: (u32, u32),
        retries: u32,
        now: SimTime,
        reason: FailReason,
    ) {
        let route = self
            .split_children
            .remove(&(job, tag))
            .expect("split child routed");
        let entry = self.merges.get_mut(route.merge).expect("merge entry live");
        entry.retries = entry.retries.max(retries);
        entry.timing.completed = entry.timing.completed.max(now);
        if entry.failed.is_none() {
            entry.failed = Some(reason);
        }
        entry.remaining -= 1;
        if entry.remaining == 0 {
            self.finish_merge(eng, job, route.merge);
        }
    }

    /// Record a terminal failure: split children fold into their parent's
    /// merge entry; everything else fails directly.
    #[allow(clippy::too_many_arguments)]
    fn fail_terminal(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
    ) {
        if is_split_child(work.tag) {
            self.fail_split_child(eng, job, work.tag, retries, now, reason);
        } else {
            let session = eng.sessions.get_mut(&job).expect("session open");
            eng.recovery
                .fail_work(session, work, submitted, retries, now, reason);
        }
    }

    /// [`RecoveryManager::retry_or_fail`] with split-child awareness: a
    /// child whose failure is terminal under the retry policy must fail its
    /// *parent* block — removing its route and releasing the merge entry —
    /// never strand the merge by recording a failure under a synthetic tag
    /// the consumer never submitted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_retry_or_fail(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        if is_split_child(work.tag) {
            let spent = now.saturating_sub(submitted);
            if let Some(terminal) = eng.recovery.terminal_reason(&reason, retries, spent) {
                self.fail_split_child(eng, job, work.tag, retries, now, terminal);
                return;
            }
        }
        let session = eng.sessions.get_mut(&job).expect("session open");
        eng.recovery
            .retry_or_fail(session, job, work, submitted, retries, now, reason, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuWorkerConfig;

    #[test]
    fn child_tags_recycle_through_free_list() {
        let mut g = GStreamManager::new(&GpuWorkerConfig::default());
        let a = g.alloc_child_tag((7, 0));
        let b = g.alloc_child_tag((7, 0));
        assert_eq!(a, (7, u32::MAX));
        assert_eq!(b, (7, u32::MAX - 1));
        assert!(is_split_child(a) && is_split_child(b));
        // finish_merge returns both indices through the free list…
        g.free_child_tags.extend([a.1, b.1]);
        // …and later splits drain it LIFO before minting fresh indices,
        // so cumulative split count never exhausts the reserved range.
        assert_eq!(g.alloc_child_tag((3, 9)), (3, b.1));
        assert_eq!(g.alloc_child_tag((3, 9)), (3, a.1));
        assert_eq!(g.next_child_tag, u32::MAX - 2);
        assert_eq!(g.alloc_child_tag((3, 9)), (3, u32::MAX - 2));
    }
}
