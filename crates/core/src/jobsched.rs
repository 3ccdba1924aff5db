#![warn(clippy::too_many_lines)]

//! The JobScheduler layer: multi-tenant arbitration between the
//! [`GpuFabric`] and the [`GStreamManager`](crate::gstream::GStreamManager).
//!
//! Three concerns live here, all configured by [`SchedulerConfig`] and all
//! off by default (single-tenant behaviour stays byte-identical):
//!
//! * **Cross-job queue arbitration** — `WorkQueue` replaces the plain
//!   per-GPU FIFO `VecDeque` with a policy-switched queue: `Fifo` *is* the
//!   old deque, while `Wfq` runs deficit round-robin over per-job lanes so
//!   a tenant with a deep backlog cannot starve a light one (the deficit
//!   counter is denominated in input+output logical bytes, the simulator's
//!   kernel-time proxy; each rotation visit credits `quantum × weight`).
//! * **Backpressure** — once a job holds more than
//!   `max_queued_bytes` in the queues, further first-attempt submissions
//!   are parked in a per-job pen and re-injected one-per-dequeue as that
//!   job's backlog drains; the drain loop flushes any stragglers when the
//!   event queue runs dry, so parked works are delayed, never lost.
//! * **The job-handle surface** — [`JobHandle`] is the RAII face of a live
//!   job on the fabric: minted by `GpuFabric::open_job` (which enforces the
//!   `max_live_jobs` admission cap), carrying the job's fair-share weight,
//!   and releasing the job's cache regions and ledgers on `finish` or drop.
//!
//! Determinism: lanes and pens are `BTreeMap`-keyed and rotation state is
//! explicit, so arbitration depends only on (submit order, JobId), never on
//! hash iteration order.

use crate::config::SchedulerConfig;
use crate::flight::Parked;
use crate::gdst::GpuFabric;
use crate::gwork::{CompletedWork, GWork};
use crate::recovery::FailedWork;
use crate::scheduling::ArbitrationPolicy;
use crate::session::JobId;
use gflink_sim::{FaultLedger, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

/// Why `GpuFabric::open_job` refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The fabric already runs its configured maximum of live jobs.
    JobLimit {
        /// Jobs currently live on the fabric.
        live: usize,
        /// The configured `max_live_jobs` cap.
        cap: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::JobLimit { live, cap } => {
                write!(f, "admission refused: {live} live jobs at cap {cap}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Byte cost of a parked entry: summed input + output logical bytes over
/// its members — the same quantity the transfer/kernel models scale with,
/// so it serves as the WFQ kernel-time estimate.
pub(crate) fn parked_cost(p: &Parked) -> u64 {
    fn one(w: &GWork) -> u64 {
        let ins: u64 = w.inputs.iter().map(|b| b.logical_bytes).sum();
        ins + w.out_logical_bytes
    }
    p.works().map(|qw| one(&qw.work)).sum()
}

/// One GPU's parked-work queue, switched on the arbitration policy.
pub(crate) enum WorkQueue {
    /// Strict arrival order — the legacy single-tenant deque, bit for bit.
    Fifo(VecDeque<Parked>),
    /// Deficit round-robin over per-job lanes.
    Wfq(WfqQueue),
}

/// Deficit-round-robin state: per-job FIFO lanes, a rotation order, and a
/// byte deficit per lane. A lane's deficit resets when it empties (classic
/// DRR), so idle jobs cannot bank credit.
pub(crate) struct WfqQueue {
    quantum: u64,
    lanes: BTreeMap<JobId, VecDeque<Parked>>,
    deficits: BTreeMap<JobId, u64>,
    rotation: VecDeque<JobId>,
    len: usize,
}

impl WorkQueue {
    pub(crate) fn new(policy: ArbitrationPolicy) -> Self {
        match policy {
            ArbitrationPolicy::Fifo => WorkQueue::Fifo(VecDeque::new()),
            ArbitrationPolicy::WeightedFair { quantum_bytes } => WorkQueue::Wfq(WfqQueue {
                quantum: quantum_bytes.max(1),
                lanes: BTreeMap::new(),
                deficits: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
            }),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            WorkQueue::Fifo(q) => q.len(),
            WorkQueue::Wfq(w) => w.len,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push_back(&mut self, parked: Parked) {
        match self {
            WorkQueue::Fifo(q) => q.push_back(parked),
            WorkQueue::Wfq(w) => {
                let job = parked.job();
                let lane = w.lanes.entry(job).or_default();
                if lane.is_empty() && !w.rotation.contains(&job) {
                    w.rotation.push_back(job);
                }
                lane.push_back(parked);
                w.len += 1;
            }
        }
    }

    /// Pop the next entry under the arbitration policy. `weight_of` maps a
    /// job to its fair-share weight (consulted only by WFQ).
    pub(crate) fn pop_front(&mut self, weight_of: &dyn Fn(JobId) -> u64) -> Option<Parked> {
        match self {
            WorkQueue::Fifo(q) => q.pop_front(),
            WorkQueue::Wfq(w) => w.pop(weight_of),
        }
    }

    /// Drain everything (device-loss requeue). FIFO order for `Fifo`; for
    /// WFQ, lanes concatenate in JobId order — deterministic either way.
    pub(crate) fn drain_all(&mut self) -> Vec<Parked> {
        match self {
            WorkQueue::Fifo(q) => q.drain(..).collect(),
            WorkQueue::Wfq(w) => {
                let mut out = Vec::with_capacity(w.len);
                for (_, lane) in std::mem::take(&mut w.lanes) {
                    out.extend(lane);
                }
                w.deficits.clear();
                w.rotation.clear();
                w.len = 0;
                out
            }
        }
    }
}

impl WfqQueue {
    fn pop(&mut self, weight_of: &dyn Fn(JobId) -> u64) -> Option<Parked> {
        if self.len == 0 {
            return None;
        }
        // Each full rotation strictly grows every non-empty lane's deficit
        // by quantum × weight ≥ 1, so this terminates.
        loop {
            let job = *self.rotation.front().expect("len > 0 ⇒ rotation non-empty");
            let lane = self.lanes.get_mut(&job).expect("rotation lane exists");
            let head_cost = parked_cost(lane.front().expect("lanes hold no empty queues"));
            let deficit = self.deficits.entry(job).or_insert(0);
            if *deficit >= head_cost {
                *deficit -= head_cost;
                let parked = lane.pop_front().expect("head just costed");
                self.len -= 1;
                if lane.is_empty() {
                    self.lanes.remove(&job);
                    self.deficits.remove(&job);
                    self.rotation.pop_front();
                }
                return Some(parked);
            }
            *deficit = deficit.saturating_add(self.quantum.saturating_mul(weight_of(job).max(1)));
            self.rotation.rotate_left(1);
        }
    }
}

/// A first-attempt submission held back by backpressure, waiting for its
/// job's queue backlog to drain below the cap.
pub(crate) struct PennedWork {
    /// When the pen swallowed it (for park-delay accounting).
    pub(crate) arrived: SimTime,
    /// Original submit instant (preserved for queue-delay reporting).
    pub(crate) submitted: SimTime,
    pub(crate) retries: u32,
    pub(crate) work: GWork,
}

/// Per-worker multi-job scheduler state: the per-GPU [`WorkQueue`]s, the
/// per-job queued-byte accounting, and the backpressure pens.
pub(crate) struct JobScheduler {
    cfg: SchedulerConfig,
    queues: Vec<WorkQueue>,
    queued_bytes: BTreeMap<JobId, u64>,
    pens: BTreeMap<JobId, VecDeque<PennedWork>>,
}

impl JobScheduler {
    pub(crate) fn new(n_gpus: usize, cfg: SchedulerConfig) -> Self {
        JobScheduler {
            queues: (0..n_gpus)
                .map(|_| WorkQueue::new(cfg.arbitration))
                .collect(),
            queued_bytes: BTreeMap::new(),
            pens: BTreeMap::new(),
            cfg,
        }
    }

    pub(crate) fn num_queues(&self) -> usize {
        self.queues.len()
    }

    pub(crate) fn queue_len(&self, gpu: usize) -> usize {
        self.queues[gpu].len()
    }

    pub(crate) fn queue_is_empty(&self, gpu: usize) -> bool {
        self.queues[gpu].is_empty()
    }

    /// True when nothing is queued anywhere and no pen holds work.
    pub(crate) fn is_idle(&self) -> bool {
        self.queues.iter().all(WorkQueue::is_empty) && self.pens.values().all(VecDeque::is_empty)
    }

    /// Park an entry in GPU `gpu`'s queue, charging its bytes to the job.
    pub(crate) fn park(&mut self, gpu: usize, parked: Parked) {
        *self.queued_bytes.entry(parked.job()).or_insert(0) += parked_cost(&parked);
        self.queues[gpu].push_back(parked);
    }

    /// Pop from GPU `gpu`'s queue under the arbitration policy, releasing
    /// the entry's byte charge.
    pub(crate) fn pop(&mut self, gpu: usize, weight_of: &dyn Fn(JobId) -> u64) -> Option<Parked> {
        let parked = self.queues[gpu].pop_front(weight_of)?;
        self.uncharge(&parked);
        Some(parked)
    }

    /// Drain GPU `gpu`'s whole queue (device loss), releasing every charge.
    pub(crate) fn drain_queue(&mut self, gpu: usize) -> Vec<Parked> {
        let drained = self.queues[gpu].drain_all();
        for parked in &drained {
            self.uncharge(parked);
        }
        drained
    }

    fn uncharge(&mut self, parked: &Parked) {
        let cost = parked_cost(parked);
        if let Some(b) = self.queued_bytes.get_mut(&parked.job()) {
            *b = b.saturating_sub(cost);
        }
    }

    /// Whether a fresh submission of `job` should be penned instead of
    /// dispatched: backpressure is on and the job's queued bytes already
    /// meet the cap.
    pub(crate) fn should_pen(&self, job: JobId) -> bool {
        self.cfg.max_queued_bytes != u64::MAX
            && self.queued_bytes.get(&job).copied().unwrap_or(0) >= self.cfg.max_queued_bytes
    }

    pub(crate) fn pen_work(&mut self, job: JobId, penned: PennedWork) {
        self.pens.entry(job).or_default().push_back(penned);
    }

    /// Release one penned work of `job` if its backlog dropped under the
    /// cap (called per dequeue of one of the job's queued works).
    pub(crate) fn try_release(&mut self, job: JobId) -> Option<PennedWork> {
        if self.queued_bytes.get(&job).copied().unwrap_or(0) >= self.cfg.max_queued_bytes {
            return None;
        }
        let pen = self.pens.get_mut(&job)?;
        let released = pen.pop_front();
        if pen.is_empty() {
            self.pens.remove(&job);
        }
        released
    }

    /// Take every penned work (drain-loop safety net: the event queue ran
    /// dry with works still penned — e.g. the backlog executed without ever
    /// re-queueing). Jobs in id order, each pen front-to-back.
    pub(crate) fn flush_pens(&mut self) -> Vec<(JobId, PennedWork)> {
        let pens = std::mem::take(&mut self.pens);
        let mut out = Vec::new();
        for (job, pen) in pens {
            out.extend(pen.into_iter().map(|p| (job, p)));
        }
        out
    }

    /// Tear down one job's pen (its `JobHandle` dropped): whatever is
    /// still parked there is taken — and must be *accounted* by the
    /// caller, not silently leaked — along with its byte charge.
    pub(crate) fn take_pen(&mut self, job: JobId) -> Vec<PennedWork> {
        self.queued_bytes.remove(&job);
        self.pens
            .remove(&job)
            .map(|p| p.into_iter().collect())
            .unwrap_or_default()
    }

    /// Grow the scheduler for a device that joined the complement: one
    /// fresh queue under the same arbitration policy.
    pub(crate) fn push_queue(&mut self) {
        self.queues.push(WorkQueue::new(self.cfg.arbitration));
    }

    /// Works currently penned for `job` (health-snapshot accessor).
    pub(crate) fn pen_depth(&self, job: JobId) -> usize {
        self.pens.get(&job).map_or(0, VecDeque::len)
    }

    /// Works currently penned across all jobs (health-snapshot accessor).
    pub(crate) fn pen_depth_total(&self) -> usize {
        self.pens.values().map(VecDeque::len).sum()
    }

    /// Bytes `job` holds in the queues right now — its WFQ virtual-queue
    /// level against the backpressure cap (health-snapshot accessor).
    pub(crate) fn queued_bytes_of(&self, job: JobId) -> u64 {
        self.queued_bytes.get(&job).copied().unwrap_or(0)
    }
}

/// RAII handle to one live job on the fabric — the redesigned face of the
/// old `begin_job`/`end_job` + `submit_for`/`drain_job` surface.
///
/// Minted by `GpuFabric::open_job` (which enforces admission control);
/// submission and draining are scoped to the handle, and `finish` — or the
/// handle's drop, whichever comes first — tears down the job's sessions on
/// every worker, releasing exactly its cache regions and ledgers.
#[must_use = "dropping a JobHandle closes the job immediately; bind it for the job's lifetime"]
pub struct JobHandle {
    fabric: GpuFabric,
    job: JobId,
    weight: u32,
    closed: AtomicBool,
}

impl JobHandle {
    pub(crate) fn new(fabric: GpuFabric, job: JobId, weight: u32) -> Self {
        JobHandle {
            fabric,
            job,
            weight,
            closed: AtomicBool::new(false),
        }
    }

    /// The job's identity on the fabric.
    pub fn id(&self) -> JobId {
        self.job
    }

    /// The job's fair-share weight.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Enqueue `work` on worker `worker` as submitted at instant `at`.
    pub fn submit_to(&self, worker: usize, work: GWork, at: SimTime) {
        self.fabric
            .with_managers(|ms| ms[worker].submit_for(self.job, work, at));
    }

    /// Drain worker `worker`: runs the shared event loop until every
    /// pending work (of every live job — the hardware is shared) completed
    /// or failed, returning this job's completions.
    pub fn drain_worker(&self, worker: usize) -> Vec<CompletedWork> {
        self.fabric
            .with_managers(|ms| ms[worker].drain_job(self.job))
    }

    /// Take this job's accumulated permanent failures across all workers.
    pub fn take_failed(&self) -> Vec<FailedWork> {
        self.fabric.with_managers(|ms| {
            ms.iter_mut()
                .flat_map(|m| m.take_job_failed(self.job))
                .collect()
        })
    }

    /// A point-in-time view of this job's backpressure backlog across
    /// every worker: how many submissions sit parked in admission pens and
    /// how many bytes it has queued toward the per-job cap. Streaming
    /// drivers poll this between submissions to observe pen pressure.
    pub fn backlog(&self) -> JobBacklog {
        self.fabric.with_managers(|ms| {
            let mut b = JobBacklog::default();
            for m in ms.iter() {
                b.penned += m.gstream.sched.pen_depth(self.job);
                b.queued_bytes += m.gstream.sched.queued_bytes_of(self.job);
            }
            b
        })
    }

    /// Submissions of this job parked in backpressure pens so far, and the
    /// simulated time they sat there, across all workers.
    pub fn parked(&self) -> (u64, SimTime) {
        self.fabric.with_managers(|ms| {
            let sessions = ms.iter().filter_map(|m| m.session(self.job));
            sessions.fold((0, SimTime::ZERO), |(n, t), s| {
                (n + s.parked_works(), t + s.park_delay())
            })
        })
    }

    /// This job's cumulative fault/recovery counters across all workers.
    pub fn faults(&self) -> FaultLedger {
        self.fabric.with_managers(|ms| {
            ms.iter().fold(FaultLedger::default(), |acc, m| {
                acc.merge(&m.job_faults(self.job))
            })
        })
    }

    /// Close the job: release its cache regions, retire its statistics and
    /// ledgers on every worker, and free its admission slot. Idempotent —
    /// the drop impl calls this too.
    pub fn finish(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.fabric.close_job(self.job);
        }
    }
}

/// A job's fabric-wide backpressure backlog at one instant (see
/// [`JobHandle::backlog`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobBacklog {
    /// Submissions parked in backpressure pens across all workers.
    pub penned: usize,
    /// Bytes queued toward the per-job admission cap across all workers.
    pub queued_bytes: u64,
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JobHandle({}, weight {}, closed {})",
            self.job,
            self.weight,
            self.closed.load(Ordering::SeqCst)
        )
    }
}
