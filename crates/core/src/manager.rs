#![warn(clippy::too_many_lines)]

//! The per-worker GPUManager: a slim coordinator over the paper's two
//! halves plus the recovery layer.
//!
//! * [`GMemoryManager`] (§4.2) owns the
//!   devices and everything that touches device memory: allocation with
//!   cache-eviction pressure, H2D staging, reclaim, and per-job cache
//!   regions.
//! * [`GStreamManager`] (§5) owns the
//!   stream bulks, the per-GPU GWork queues, and the in-flight table, and
//!   drives Algorithm 5.1/5.2 scheduling plus the three-stage
//!   H2D → Kernel → D2H pipeline.
//! * [`RecoveryManager`] owns the fault
//!   plan, retry/backoff routing, the CPU fallback path, and the
//!   double-entry fault ledgers (see DESIGN.md, "Fault model & recovery").
//!
//! This type wires them together around a [`JobSession`] per job: all
//! mutable per-job state — cache regions, pending submissions,
//! completions, failures, ledger deltas — lives in the session, created at
//! [`GpuManager::begin_job`] and torn down at [`GpuManager::end_job`], so
//! concurrent tenants on the same devices cannot perturb each other's
//! digests or ledgers. Callers normally reach this surface through the
//! RAII [`JobHandle`](crate::jobsched::JobHandle) minted by
//! `GpuFabric::open_job`, which scopes submit/drain/teardown to one job.
//!
//! Determinism: the drain event loop is shared across sessions (the
//! hardware is shared), pending works enter it stably sorted by submit
//! instant, and the worker's single RNG is only consulted in the exact
//! places the monolithic manager consulted it — a single job's timeline is
//! byte-identical to the pre-decomposition implementation.

use crate::gmemory::GMemoryManager;
use crate::gstream::{Engine, Ev, GStreamManager};
use crate::gwork::{CompletedWork, GWork};
use crate::recovery::{Charge, RecoveryManager};
use crate::session::{JobId, JobSession};
use gflink_gpu::{KernelRegistry, VirtualGpu};
use gflink_memory::PinnedStats;
use gflink_sim::{EventQueue, FaultLedger, FaultPlan, LedgerEntry, SimRng, SimTime, Tracer};
use parking_lot::Mutex;
use std::{collections::BTreeMap, sync::Arc};

pub use crate::config::{BatchConfig, GpuWorkerConfig, TransferConfig};
pub use crate::recovery::{CpuFallback, FailReason, FailedWork, ManagerError, CPU_FALLBACK_GPU};

/// The per-worker GPU manager: coordinator over the memory, stream, and
/// recovery layers, with one [`JobSession`] per open job.
pub struct GpuManager {
    pub(crate) worker_id: usize,
    pub(crate) cfg: Arc<GpuWorkerConfig>,
    pub(crate) gmem: GMemoryManager,
    pub(crate) gstream: GStreamManager,
    pub(crate) recovery: RecoveryManager,
    pub(crate) sessions: BTreeMap<JobId, JobSession>,
    pub(crate) registry: Arc<Mutex<KernelRegistry>>,
    pub(crate) rng: SimRng,
    /// The drain event loop's queue, reset and reused by every drain.
    pub(crate) queue: EventQueue<Ev>,
}

impl GpuManager {
    /// Build the manager for worker `worker_id`.
    pub fn new(
        worker_id: usize,
        cfg: impl Into<Arc<GpuWorkerConfig>>,
        registry: Arc<Mutex<KernelRegistry>>,
    ) -> Self {
        let cfg = cfg.into();
        assert!(!cfg.models.is_empty(), "worker needs at least one GPU");
        assert!(cfg.streams_per_gpu >= 1);
        let gmem = GMemoryManager::new(
            &cfg.models,
            cfg.cache_capacity,
            cfg.cache_policy,
            &cfg.transfer,
        );
        let gstream = GStreamManager::new(&cfg);
        let recovery = RecoveryManager::new(&cfg);
        GpuManager {
            worker_id,
            gmem,
            gstream,
            recovery,
            sessions: BTreeMap::new(),
            registry,
            rng: SimRng::new(0x5EED_0000 + worker_id as u64),
            queue: EventQueue::new(),
            cfg,
        }
    }

    /// Worker index this manager belongs to.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// This worker's configuration.
    pub fn config(&self) -> &GpuWorkerConfig {
        &self.cfg
    }

    /// Number of GPUs managed.
    pub fn gpu_count(&self) -> usize {
        self.gmem.gpu_count()
    }

    /// Immutable access to a GPU (tests, reporting).
    pub fn gpu(&self, i: usize) -> &VirtualGpu {
        self.gmem.gpu(i)
    }

    /// Whole-worker (hits, misses, evictions) on GPU `gpu`: the sum over
    /// every open session's region plus regions retired by finished jobs.
    pub fn cache_stats(&self, gpu: usize) -> (u64, u64, u64) {
        let seed = self.gmem.retired_stats(gpu);
        self.sessions.values().fold(seed, |(h, m, e), s| {
            let (sh, sm, se) = s.regions[gpu].stats();
            (h + sh, m + sm, e + se)
        })
    }

    /// Works executed per GPU (load-balance reporting). CPU-fallback works
    /// are not attributed to any GPU.
    pub fn executed_per_gpu(&self) -> &[u64] {
        self.gstream.executed_per_gpu()
    }

    /// Number of Alg. 5.2 steals from foreign queues.
    pub fn steals(&self) -> u64 {
        self.gstream.steals()
    }

    /// Whole-worker pinned staging-pool accounting (hits, misses, bytes).
    pub fn pinned_stats(&self) -> PinnedStats {
        self.gmem.pinned_stats()
    }

    /// One job's pinned staging-pool accounting.
    pub fn job_pinned_stats(&self, job: JobId) -> PinnedStats {
        self.gmem.pinned_owner_stats(job.0)
    }

    /// (registered, peak registered, peak concurrently leased) bytes of the
    /// pinned staging pool.
    pub fn pinned_pool_bytes(&self) -> (u64, u64, u64) {
        self.gmem.pinned_pool_bytes()
    }

    /// Pinned staging bytes currently leased to in-flight copies.
    pub fn pinned_in_use_bytes(&self) -> u64 {
        self.gmem.pinned_in_use_bytes()
    }

    /// Fused transfer batches dispatched.
    pub fn fused_batches(&self) -> u64 {
        self.gstream.fused_batches()
    }

    /// Works that travelled inside fused transfer batches.
    pub fn fused_works(&self) -> u64 {
        self.gstream.fused_works()
    }

    /// Per-call transfer overhead (α) saved by fusing copies.
    pub fn alpha_saved(&self) -> SimTime {
        self.gstream.alpha_saved()
    }

    /// Number of injected kernel failures recovered from (random
    /// `failure_rate` plus scripted transients).
    pub fn failures(&self) -> u64 {
        self.recovery.ledger().transient_faults
    }

    /// Script faults against this manager's devices. Events at instants the
    /// simulation has already passed fire immediately at the next drain.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.recovery.faults.set(plan);
    }

    /// Attach a tracer to all three layers: one trace process per GPU (and
    /// one for the CPU-fallback pool), one thread per stream/engine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.gmem.set_tracer(tracer.clone(), self.worker_id);
        self.gstream.set_tracer(tracer.clone(), self.worker_id);
        self.recovery.set_tracer(tracer, self.worker_id);
    }

    /// Worker-global cumulative fault/recovery counters.
    pub fn fault_ledger(&self) -> FaultLedger {
        self.recovery.ledger()
    }

    /// Number of devices still usable (healthy or degraded).
    pub fn usable_gpus(&self) -> usize {
        self.gmem.usable_gpus()
    }

    // --- sessions -------------------------------------------------------

    /// Open a session for `job` (§4.2.2: fresh cache regions); idempotent.
    pub fn begin_job(&mut self, job: JobId) {
        self.begin_job_weighted(job, 1);
    }

    /// [`begin_job`](Self::begin_job) with a weight; a live session keeps
    /// its original weight (re-opens are no-ops).
    pub fn begin_job_weighted(&mut self, job: JobId, weight: u32) {
        if !self.sessions.contains_key(&job) {
            let session = JobSession::new(self.gmem.new_regions(), weight);
            self.sessions.insert(job, session);
            self.rebalance_regions();
        }
    }

    /// Close `job`'s session: account works still parked in its pen or
    /// pending queue (abandoned, not leaked — see the fault ledger's
    /// `parked_abandoned`), release its cached device buffers, retire its
    /// cache statistics into the worker totals, and (under cache
    /// partitioning) return its budget share to the survivors. Returns the
    /// job's final cumulative ledger, abandoned works included (zero if
    /// the job was not open).
    pub fn end_job(&mut self, job: JobId) -> FaultLedger {
        let Some(mut session) = self.sessions.remove(&job) else {
            return FaultLedger::default();
        };
        self.abandon_leftovers(job, &mut session);
        self.gmem.release_regions(&mut session.regions);
        self.gmem.retire_regions(&session.regions);
        self.gmem.retire_pool_owner(job.0);
        self.rebalance_regions();
        session.faults()
    }

    /// Delegate to the memory layer's weight-proportional region rebalance
    /// ([`GMemoryManager::rebalance_regions`]).
    fn rebalance_regions(&mut self) {
        self.gmem
            .rebalance_regions(&mut self.sessions, self.cfg.scheduler.partition_cache);
    }

    /// The open session for `job`, if any.
    pub fn session(&self, job: JobId) -> Option<&JobSession> {
        self.sessions.get(&job)
    }

    /// `job`'s cumulative fault/recovery counters (zero if unknown).
    pub fn job_faults(&self, job: JobId) -> FaultLedger {
        self.sessions
            .get(&job)
            .map(JobSession::faults)
            .unwrap_or_default()
    }

    /// `job`'s fault/recovery counters accrued since this was last called
    /// (zero if unknown). This is the per-drain delta the job report sums.
    pub fn take_job_fault_delta(&mut self, job: JobId) -> FaultLedger {
        self.sessions
            .get_mut(&job)
            .map(|s| s.ledger.take_delta())
            .unwrap_or_default()
    }

    /// Take ownership of `job`'s accumulated failures (clears the list).
    pub fn take_job_failed(&mut self, job: JobId) -> Vec<FailedWork> {
        self.sessions
            .get_mut(&job)
            .map(|s| std::mem::take(&mut s.failed))
            .unwrap_or_default()
    }

    // --- submission & draining ------------------------------------------

    /// Enqueue `work` for `job` as submitted at simulated instant `at`,
    /// opening the session if needed. A work whose tag is covered by a
    /// restored checkpoint ([`GpuManager::restore_job`]) is satisfied from
    /// the snapshot instead of executing: it is counted as restored, and
    /// the tag is consumed so it can cover at most one submission — the
    /// exactly-once dedup across the restore boundary. Otherwise the work
    /// runs at the next drain.
    pub fn submit_for(&mut self, job: JobId, work: GWork, at: SimTime) {
        self.begin_job(job);
        let session = self.sessions.get_mut(&job).expect("session just ensured");
        if session.covered.remove(&work.tag) {
            self.recovery
                .note(Charge::Job(session), LedgerEntry::WorksRestored, 1, None);
            self.gstream.input_lists.give(work.inputs);
            return;
        }
        session.pending.push((at, work));
    }

    /// Release every session's cached device buffers (sessions stay open).
    /// Engine timelines are preserved.
    pub fn release_job_caches(&mut self) {
        for session in self.sessions.values_mut() {
            self.gmem.release_regions(&mut session.regions);
        }
    }

    /// Run the shared event loop until all submitted work — from *every*
    /// session; the hardware is shared — has completed or failed; returns
    /// `job`'s completions (unordered across GPUs, deterministic overall).
    /// Completions of other sessions are stored and returned by their own
    /// drains. Works abandoned after retry exhaustion are recorded on
    /// their session ([`GpuManager::take_job_failed`]), not returned here.
    pub fn drain_job(&mut self, job: JobId) -> Vec<CompletedWork> {
        assert!(self.sessions.contains_key(&job), "unknown {job}");
        let q = &mut self.queue;
        self.gstream
            .seed_drain(q, &self.gmem, &mut self.recovery, &mut self.sessions);
        // One registry snapshot per drain (a reference count taken under
        // a brief lock; lock order: managers → registry): every handler
        // borrows it, and no drain holds the lock another worker's drain
        // needs.
        let registry = self.registry.lock().clone();
        let mut eng = Engine {
            gmem: &mut self.gmem,
            recovery: &mut self.recovery,
            sessions: &mut self.sessions,
            registry: &registry,
            rng: &mut self.rng,
        };
        // Outer loop: works still penned when the queue runs dry (the
        // backpressure safety net) are re-injected and drained again.
        let mut last_t = SimTime::ZERO;
        loop {
            while let Some((t, ev)) = q.pop() {
                last_t = t;
                match ev {
                    Ev::Submit {
                        job,
                        submitted,
                        retries,
                        work,
                    } => {
                        self.gstream
                            .dispatch(&mut eng, job, work, submitted, retries, t, q);
                    }
                    Ev::StreamFree { gpu, stream } => {
                        self.gstream.on_stream_free(&mut eng, gpu, stream, t, q)
                    }
                    Ev::KernelStage(id) => self.gstream.on_kernel_stage(&mut eng, id, t, q),
                    Ev::D2hStage(id) => self.gstream.on_d2h_stage(&mut eng, id, t, q),
                    Ev::Fault(kind) => self.gstream.on_fault(&mut eng, kind, t, q),
                    Ev::HangCheck(id) => self.gstream.on_hang_check(&mut eng, id, t, q),
                    Ev::FlushBatch { gpu, epoch } => self.gstream.on_flush_batch(gpu, epoch, t, q),
                    Ev::Membership(kind) => {
                        self.gstream.on_membership(&mut eng, kind, &self.cfg, t, q)
                    }
                }
            }
            if !self.gstream.flush_parked(&mut eng, last_t, q) {
                break;
            }
        }
        debug_assert!(self.gstream.is_idle(), "work left queued or in flight");
        self.gstream.publish_metrics(&mut self.gmem);
        let session = self.sessions.get_mut(&job).expect("checked above");
        std::mem::take(&mut session.completed)
    }
}
