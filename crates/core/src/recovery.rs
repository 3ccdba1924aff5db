#![warn(clippy::too_many_lines)]

//! The recovery half of the GPUManager: typed failure taxonomy, the fault
//! plan/arming machinery, retry-with-backoff routing, the CPU fallback
//! path, and the fault ledgers.
//!
//! Fault/recovery counters are **double-entry**: every event is tallied on
//! the owning job's session ledger *and* mirrored into the worker-global
//! ledger. Work-scoped events (retries, transients, hangs, failures, CPU
//! fallbacks) charge the job that owned the work; device-scoped events
//! (injections, loss, degradation) charge every open session — a dead
//! device is every tenant's problem.

use crate::config::GpuWorkerConfig;
use crate::gwork::{CompletedWork, GWork, WorkBuf, WorkTiming};
use crate::session::{JobId, JobSession};
use gflink_gpu::{DeviceError, KernelArgs, KernelRegistry};
use gflink_memory::{ArenaBuf, HBuffer};
use gflink_sim::trace::{cpu_pid, Cat, TraceEvent, TID_DEVICE};
use gflink_sim::{
    ComputeCost, Counter, EventQueue, FaultEvent, FaultLedger, FaultPlan, HostEngine,
    MembershipEvent, MembershipPlan, Metrics, RecEvent, RecKind, RetryPolicy, SimTime, Tracer,
};
use std::collections::BTreeMap;

use crate::gstream::Ev;

/// `CompletedWork::gpu` marker for works executed on the host CPU because
/// no usable GPU remained.
pub const CPU_FALLBACK_GPU: usize = usize::MAX;

/// An error inside the GPU manager's execution paths.
#[derive(Clone, Debug, PartialEq)]
pub enum ManagerError {
    /// A work's buffers cannot fit on the device even after evicting the
    /// entire (unpinned) cache region.
    OutOfMemory {
        /// Device that ran out.
        gpu: usize,
        /// Logical bytes the allocation wanted.
        requested: u64,
        /// Logical bytes that were free.
        free: u64,
    },
    /// The work names a kernel the registry does not know.
    KernelMissing {
        /// The unresolved `executeName`.
        name: String,
    },
    /// A device operation failed underneath the manager.
    Device(DeviceError),
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::OutOfMemory {
                gpu,
                requested,
                free,
            } => write!(
                f,
                "device {gpu} out of memory: requested {requested} logical bytes with {free} free \
                 and an empty cache"
            ),
            ManagerError::KernelMissing { name } => write!(f, "kernel {name:?} not registered"),
            ManagerError::Device(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagerError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for ManagerError {
    fn from(e: DeviceError) -> Self {
        ManagerError::Device(e)
    }
}

/// Why a [`FailedWork`] was abandoned.
#[derive(Clone, Debug, PartialEq)]
pub enum FailReason {
    /// The retry budget ([`RetryPolicy::max_retries`]) ran out.
    RetriesExhausted,
    /// The retry deadline ([`RetryPolicy::deadline`]) passed.
    DeadlineExceeded,
    /// Every GPU is lost and CPU fallback is disabled.
    NoUsableDevice,
    /// A non-retryable error (e.g. an unregistered kernel).
    Fatal(ManagerError),
}

/// A `GWork` the manager gave up on: the structured counterpart of
/// [`CompletedWork`]. Completions and failures partition the submitted
/// works exactly — nothing is silently dropped.
#[derive(Clone, Debug)]
pub struct FailedWork {
    /// The originating work's name.
    pub name: String,
    /// The originating work's tag (partition, block).
    pub tag: (u32, u32),
    /// How many times the work was retried before being abandoned.
    pub retries: u32,
    /// Why it was abandoned.
    pub reason: FailReason,
    /// When the work was first submitted.
    pub submitted: SimTime,
    /// When the manager gave up. Failure instants participate in makespan
    /// accounting the same way completion instants do.
    pub failed_at: SimTime,
}

/// CPU execution path used when no usable GPU remains.
#[derive(Clone, Debug)]
pub struct CpuFallback {
    /// Whether the fallback is allowed. When `false`, losing every GPU
    /// fails the remaining works with [`FailReason::NoUsableDevice`].
    pub enabled: bool,
    /// Concurrent host execution slots (task-slot pool).
    pub slots: usize,
    /// Roofline cost model for host kernel execution.
    pub cost: ComputeCost,
}

impl Default for CpuFallback {
    fn default() -> Self {
        CpuFallback {
            enabled: true,
            slots: 8,
            // A conservative host: ~50 GFLOP/s, ~20 GB/s sustained — roughly
            // 20× slower than the C2050 the paper's workers carry.
            cost: ComputeCost::new(SimTime::from_micros(5), 50e9, 20e9),
        }
    }
}

/// Live-metrics counter handles mirroring the fault ledger, all disabled
/// (free) until the metrics plane is attached.
#[derive(Clone, Default)]
struct RecCounters {
    retries: Counter,
    transients: Counter,
    hangs: Counter,
    steals_on_drain: Counter,
    invalidations: Counter,
    faults_injected: Counter,
    gpus_lost: Counter,
    gpus_degraded: Counter,
    members_joined: Counter,
    members_left: Counter,
    works_restored: Counter,
    works_failed: Counter,
    cpu_fallbacks: Counter,
    parked_abandoned: Counter,
}

/// The recovery half of the per-worker GPU manager.
pub struct RecoveryManager {
    retry: RetryPolicy,
    hang_timeout: SimTime,
    failure_rate: f64,
    cpu_fallback: CpuFallback,
    fault_plan: FaultPlan,
    /// Index of the first `fault_plan` event not yet scheduled into a drain.
    fault_cursor: usize,
    /// Scripted elastic-membership changes (joins/leaves), delivered into
    /// drains exactly once via `membership_cursor` — the fault plan's
    /// administrative twin.
    membership_plan: MembershipPlan,
    membership_cursor: usize,
    /// Scripted transient faults armed per GPU (consumed by next launches).
    pending_transient: Vec<u32>,
    /// Scripted hangs armed per GPU (consumed by next launches).
    pending_hang: Vec<u32>,
    /// Worker-global ledger: the sum over every session's ledger for
    /// work-scoped counters, single-entry for device-scoped ones.
    ledger: FaultLedger,
    failures: u64,
    /// The host CPU execution engine — shared by the last-resort fallback
    /// and the hybrid cost-model placement, so both account against the
    /// same slot timelines.
    host: HostEngine,
    tracer: Tracer,
    worker_id: usize,
    /// The live-metrics plane (gates flight-recorder pushes).
    metrics: Metrics,
    m: RecCounters,
}

impl RecoveryManager {
    pub(crate) fn new(cfg: &GpuWorkerConfig) -> Self {
        let cpu_fallback = cfg.cpu_fallback.clone();
        let host = HostEngine::new(cpu_fallback.cost, cpu_fallback.slots);
        RecoveryManager {
            retry: cfg.retry,
            hang_timeout: cfg.hang_timeout,
            failure_rate: cfg.failure_rate,
            cpu_fallback,
            fault_plan: FaultPlan::new(),
            fault_cursor: 0,
            membership_plan: MembershipPlan::new(),
            membership_cursor: 0,
            pending_transient: vec![0; cfg.models.len()],
            pending_hang: vec![0; cfg.models.len()],
            ledger: FaultLedger::default(),
            failures: 0,
            host,
            tracer: Tracer::disabled(),
            worker_id: 0,
            metrics: Metrics::disabled(),
            m: RecCounters::default(),
        }
    }

    /// Attach the live-metrics plane: registers this worker's
    /// fault/recovery counter series (the live mirror of the ledger).
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics, worker_id: usize) {
        self.metrics = metrics.clone();
        self.worker_id = worker_id;
        let l = format!("{{worker=\"{worker_id}\"}}");
        let c = |name: &str, help: &str| metrics.counter(&format!("{name}{l}"), help);
        self.m = RecCounters {
            retries: c("gflink_retries_total", "Work retries scheduled"),
            transients: c(
                "gflink_transient_faults_total",
                "Transient kernel faults recovered",
            ),
            hangs: c("gflink_hangs_detected_total", "Hung kernels detected"),
            steals_on_drain: c(
                "gflink_steals_on_drain_total",
                "Works stolen off a dying device",
            ),
            invalidations: c(
                "gflink_cache_invalidations_total",
                "Cache entries invalidated by device loss",
            ),
            faults_injected: c("gflink_faults_injected_total", "Faults injected"),
            gpus_lost: c("gflink_gpus_lost_total", "Devices lost"),
            gpus_degraded: c("gflink_gpus_degraded_total", "Devices degraded"),
            members_joined: c("gflink_members_joined_total", "Elastic joins applied"),
            members_left: c("gflink_members_left_total", "Elastic leaves applied"),
            works_restored: c(
                "gflink_works_restored_total",
                "Works satisfied from a restored checkpoint",
            ),
            works_failed: c("gflink_works_failed_total", "Works abandoned"),
            cpu_fallbacks: c(
                "gflink_cpu_fallbacks_total",
                "Works executed on the host CPU",
            ),
            parked_abandoned: c(
                "gflink_parked_abandoned_total",
                "Parked works abandoned at job teardown",
            ),
        };
    }

    /// Attach a tracer: the worker's CPU-fallback pool gets its own trace
    /// process (thread 0 carries retry/failure instants, threads 1..=slots
    /// the fallback execution spans).
    pub(crate) fn set_tracer(&mut self, tracer: Tracer, worker_id: usize) {
        if tracer.enabled() {
            let pid = cpu_pid(worker_id);
            tracer.name_process(pid, &format!("worker{worker_id}/cpu"));
            tracer.name_thread(pid, TID_DEVICE, "recovery");
            for s in 0..self.host.slots() {
                tracer.name_thread(pid, 1 + s as u32, &format!("cpu slot {s}"));
            }
        }
        self.tracer = tracer;
        self.worker_id = worker_id;
    }

    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
        self.fault_cursor = 0;
    }

    /// Scripted faults not yet delivered into any drain; advances the
    /// cursor so each fault enters an event queue exactly once.
    pub(crate) fn take_unscheduled_faults(&mut self) -> Vec<FaultEvent> {
        let evs = self.fault_plan.events()[self.fault_cursor..].to_vec();
        self.fault_cursor = self.fault_plan.events().len();
        evs
    }

    pub(crate) fn set_membership_plan(&mut self, plan: MembershipPlan) {
        self.membership_plan = plan;
        self.membership_cursor = 0;
    }

    /// Scripted membership changes not yet delivered into any drain;
    /// advances the cursor so each change applies exactly once.
    pub(crate) fn take_unscheduled_membership(&mut self) -> Vec<MembershipEvent> {
        let evs = self.membership_plan.events()[self.membership_cursor..].to_vec();
        self.membership_cursor = self.membership_plan.events().len();
        evs
    }

    /// Grow the armed-fault state for a device that joined the complement.
    pub(crate) fn grow_device(&mut self) {
        self.pending_transient.push(0);
        self.pending_hang.push(0);
    }

    /// Worker-global cumulative fault/recovery counters.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// Injected kernel failures recovered from (random `failure_rate` plus
    /// scripted transients).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Watchdog timeout for hung kernels.
    pub fn hang_timeout(&self) -> SimTime {
        self.hang_timeout
    }

    /// Arm one scripted transient kernel fault on `gpu`.
    pub(crate) fn arm_transient(&mut self, gpu: usize) {
        self.pending_transient[gpu] += 1;
    }

    /// Arm one scripted kernel hang on `gpu`.
    pub(crate) fn arm_hang(&mut self, gpu: usize) {
        self.pending_hang[gpu] += 1;
    }

    /// Consume one armed transient fault on `gpu`, if any.
    pub(crate) fn take_transient(&mut self, gpu: usize) -> bool {
        if self.pending_transient[gpu] > 0 {
            self.pending_transient[gpu] -= 1;
            true
        } else {
            false
        }
    }

    /// Consume one armed hang on `gpu`, if any.
    pub(crate) fn take_hang(&mut self, gpu: usize) -> bool {
        if self.pending_hang[gpu] > 0 {
            self.pending_hang[gpu] -= 1;
            true
        } else {
            false
        }
    }

    /// Random transient injection at `failure_rate`. Callers must evaluate
    /// this *after* (and short-circuited by) the scripted check so the RNG
    /// draw order — and with it every seeded timeline — is preserved.
    pub(crate) fn random_transient(&mut self, rng: &mut gflink_sim::SimRng) -> bool {
        self.failure_rate > 0.0 && rng.next_f64() < self.failure_rate
    }

    // --- double-entry ledger notes -------------------------------------

    pub(crate) fn note_retry(&mut self, session: &mut JobSession) {
        self.ledger.retries += 1;
        session.ledger_mut().retries += 1;
        self.m.retries.inc();
    }

    pub(crate) fn note_transient_fault(&mut self, session: &mut JobSession) {
        self.failures += 1;
        self.ledger.transient_faults += 1;
        session.ledger_mut().transient_faults += 1;
        self.m.transients.inc();
    }

    pub(crate) fn note_hang_detected(&mut self, session: &mut JobSession) {
        self.ledger.hangs_detected += 1;
        session.ledger_mut().hangs_detected += 1;
        self.m.hangs.inc();
    }

    pub(crate) fn note_steal_on_drain(&mut self, session: &mut JobSession) {
        self.ledger.steals_on_drain += 1;
        session.ledger_mut().steals_on_drain += 1;
        self.m.steals_on_drain.inc();
    }

    pub(crate) fn note_invalidations(&mut self, session: &mut JobSession, n: u64) {
        self.ledger.cache_invalidations += n;
        session.ledger_mut().cache_invalidations += n;
        self.m.invalidations.add(n);
    }

    /// Device-scoped: a fault was injected. Charged to every open session.
    pub(crate) fn note_fault_injected(&mut self, sessions: &mut BTreeMap<JobId, JobSession>) {
        self.ledger.faults_injected += 1;
        for s in sessions.values_mut() {
            s.ledger_mut().faults_injected += 1;
        }
        self.m.faults_injected.inc();
    }

    /// Device-scoped: a GPU was lost. Charged to every open session.
    pub(crate) fn note_gpu_lost(&mut self, sessions: &mut BTreeMap<JobId, JobSession>) {
        self.ledger.gpus_lost += 1;
        for s in sessions.values_mut() {
            s.ledger_mut().gpus_lost += 1;
        }
        self.m.gpus_lost.inc();
    }

    /// Device-scoped: a GPU was degraded. Charged to every open session.
    pub(crate) fn note_gpu_degraded(&mut self, sessions: &mut BTreeMap<JobId, JobSession>) {
        self.ledger.gpus_degraded += 1;
        for s in sessions.values_mut() {
            s.ledger_mut().gpus_degraded += 1;
        }
        self.m.gpus_degraded.inc();
    }

    /// Device-scoped: a node joined the complement. Charged to every open
    /// session — each tenant's dispatch targets just changed.
    pub(crate) fn note_member_joined(&mut self, sessions: &mut BTreeMap<JobId, JobSession>) {
        self.ledger.members_joined += 1;
        for s in sessions.values_mut() {
            s.ledger_mut().members_joined += 1;
        }
        self.m.members_joined.inc();
    }

    /// Device-scoped: a node left the complement gracefully.
    pub(crate) fn note_member_left(&mut self, sessions: &mut BTreeMap<JobId, JobSession>) {
        self.ledger.members_left += 1;
        for s in sessions.values_mut() {
            s.ledger_mut().members_left += 1;
        }
        self.m.members_left.inc();
    }

    /// Work-scoped: a submission was satisfied from a restored checkpoint
    /// instead of executing.
    pub(crate) fn note_work_restored(&mut self, session: &mut JobSession) {
        self.ledger.works_restored += 1;
        session.ledger_mut().works_restored += 1;
        self.m.works_restored.inc();
    }

    /// Work-scoped: `n` of the job's works were still parked (penned or
    /// pending) when the job was torn down.
    pub(crate) fn note_parked_abandoned(&mut self, session: &mut JobSession, n: u64) {
        self.ledger.parked_abandoned += n;
        session.ledger_mut().parked_abandoned += n;
        self.m.parked_abandoned.add(n);
    }

    // --- retry / fail / CPU fallback -----------------------------------

    /// The terminal [`FailReason`] `retry_or_fail` would record for a work
    /// in this state, or `None` while the policy still allows a retry. A
    /// [`FailReason::Fatal`] wrapping [`ManagerError::KernelMissing`] is
    /// always terminal (no later attempt can succeed). Callers that must
    /// intercept a permanent failure (split children fail their *parent*
    /// block, never their synthetic tag) consult this before handing the
    /// work to [`RecoveryManager::retry_or_fail`].
    pub(crate) fn terminal_reason(
        &self,
        reason: &FailReason,
        retries: u32,
        spent: SimTime,
    ) -> Option<FailReason> {
        if let FailReason::Fatal(ManagerError::KernelMissing { .. }) = reason {
            return Some(reason.clone());
        }
        if self.retry.allows(retries, spent) {
            None
        } else if retries >= self.retry.max_retries {
            Some(FailReason::RetriesExhausted)
        } else {
            Some(FailReason::DeadlineExceeded)
        }
    }

    /// Route a recovered work back through Alg. 5.1 after its policy
    /// backoff, or give up with a structured [`FailedWork`] carrying the
    /// terminal reason from [`RecoveryManager::terminal_reason`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn retry_or_fail(
        &mut self,
        session: &mut JobSession,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        let spent = now.saturating_sub(submitted);
        if let Some(terminal) = self.terminal_reason(&reason, retries, spent) {
            self.fail_work(session, work, submitted, retries, now, terminal);
            return;
        }
        self.note_retry(session);
        if self.metrics.enabled() {
            session.recorder.push(
                RecEvent::new(now, RecKind::Retry, self.worker_id as u32)
                    .with_detail(u64::from(retries + 1)),
            );
        }
        let delay = self.retry.backoff(retries);
        let at = SimTime::from_nanos(now.as_nanos().saturating_add(delay.as_nanos()));
        if self.tracer.enabled() {
            self.tracer.record(
                TraceEvent::instant(
                    cpu_pid(self.worker_id),
                    TID_DEVICE,
                    Cat::Recovery,
                    "retry",
                    now,
                )
                .with_job(job.0)
                .with_arg("op", &work.name)
                .with_arg("attempt", retries + 1),
            );
        }
        q.schedule(at, Ev::submit(job, submitted, retries + 1, work));
    }

    pub(crate) fn fail_work(
        &mut self,
        session: &mut JobSession,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
    ) {
        self.fail_named(
            session, &work.name, work.tag, retries, submitted, now, reason,
        );
    }

    /// [`RecoveryManager::fail_work`] by identity rather than by `GWork`:
    /// lets split-block reassembly fail a *parent* whose `GWork` no longer
    /// exists (only its sliced children do).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fail_named(
        &mut self,
        session: &mut JobSession,
        name: &str,
        tag: (u32, u32),
        retries: u32,
        submitted: SimTime,
        now: SimTime,
        reason: FailReason,
    ) {
        self.ledger.works_failed += 1;
        session.ledger_mut().works_failed += 1;
        self.m.works_failed.inc();
        if self.metrics.enabled() {
            session.recorder.push(
                RecEvent::new(now, RecKind::WorkFailed, self.worker_id as u32)
                    .with_detail(u64::from(retries)),
            );
        }
        if self.tracer.enabled() {
            self.tracer.record(
                TraceEvent::instant(
                    cpu_pid(self.worker_id),
                    TID_DEVICE,
                    Cat::Recovery,
                    "work-failed",
                    now,
                )
                .with_arg("op", name)
                .with_arg("reason", format!("{reason:?}")),
            );
        }
        session.failed.push(FailedWork {
            name: name.to_string(),
            tag,
            retries,
            reason,
            submitted,
            failed_at: now,
        });
    }

    /// The host CPU engine (slot pool + roofline), shared by the fallback
    /// path and the hybrid cost-model placement.
    pub(crate) fn host(&self) -> &HostEngine {
        &self.host
    }

    /// Whether the host CPU execution path may be used at all.
    pub(crate) fn host_enabled(&self) -> bool {
        self.cpu_fallback.enabled
    }

    /// Really execute `work`'s kernel over its host buffers and reserve a
    /// host slot for the modelled duration. No H2D/D2H is charged — the
    /// data never leaves host memory. Pure execution + accounting: the
    /// caller owns ledgers, traces, and completion routing.
    pub(crate) fn exec_on_host(
        &mut self,
        registry: &KernelRegistry,
        work: &GWork,
        t: SimTime,
    ) -> Result<HostExec, ManagerError> {
        // Works normally arrive interned; hand-built ones that never passed
        // through a submission fall back to the name lookup.
        let kernel = registry.get_by_id(work.kernel).or_else(|| {
            let id = registry.resolve(&work.execute_name)?;
            registry.get_by_id(id)
        });
        let Some(kernel) = kernel else {
            return Err(ManagerError::KernelMissing {
                name: work.execute_name.to_string(),
            });
        };
        let mut out_host = HBuffer::zeroed(work.out_actual_bytes);
        let profile = with_input_refs(&work.inputs, |inputs| {
            kernel(&mut KernelArgs {
                inputs,
                outputs: &mut [&mut out_host],
                params: &work.params,
                n_actual: work.n_actual,
                n_logical: work.n_logical,
            })
        });
        let (slot, r) = self.host.run(t, profile.flops, profile.bytes);
        Ok(HostExec {
            slot,
            start: r.start,
            end: r.end,
            out: out_host,
            emitted: profile.emitted,
        })
    }

    /// Last-resort execution on the host CPU: every GPU is lost. Returns
    /// the completion for the caller to route (split children merge rather
    /// than complete directly). `Err` hands the work back with its terminal
    /// failure reason — the caller owns failure routing too, because a
    /// split child must fail its *parent* block, not its synthetic tag.
    /// (`Err` carries the `GWork` back by value on purpose — the caller
    /// re-routes it — so the variant is as large as a work descriptor.)
    #[allow(clippy::result_large_err)]
    pub(crate) fn run_on_cpu(
        &mut self,
        session: &mut JobSession,
        job: JobId,
        registry: &KernelRegistry,
        work: GWork,
        submitted: SimTime,
        t: SimTime,
    ) -> Result<CompletedWork, (GWork, FailReason)> {
        if !self.cpu_fallback.enabled {
            return Err((work, FailReason::NoUsableDevice));
        }
        let he = match self.exec_on_host(registry, &work, t) {
            Ok(he) => he,
            Err(err) => return Err((work, FailReason::Fatal(err))),
        };
        self.ledger.cpu_fallbacks += 1;
        session.ledger_mut().cpu_fallbacks += 1;
        self.m.cpu_fallbacks.inc();
        if self.metrics.enabled() {
            session.recorder.push(RecEvent::new(
                t,
                RecKind::CpuFallback,
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
                .with_arg("fallback", "all GPUs lost"),
            );
        }
        Ok(he.into_completed(work, submitted))
    }
}

/// One kernel execution on the host slot pool, before it is accounted:
/// where it ran, when, and what it produced.
pub(crate) struct HostExec {
    /// Host slot index the reservation landed on.
    pub(crate) slot: usize,
    /// Reservation start (queueing behind busy slots included).
    pub(crate) start: SimTime,
    /// Reservation end.
    pub(crate) end: SimTime,
    /// The real output buffer the kernel wrote.
    pub(crate) out: HBuffer,
    /// Records emitted, when the kernel reported them.
    pub(crate) emitted: Option<usize>,
}

impl HostExec {
    /// Package the execution as a [`CompletedWork`] (host executions charge
    /// no transfer time: the data never left host memory).
    pub(crate) fn into_completed(self, work: GWork, submitted: SimTime) -> CompletedWork {
        CompletedWork {
            name: work.name,
            tag: work.tag,
            gpu: CPU_FALLBACK_GPU,
            stream: self.slot,
            output: ArenaBuf::detached(self.out),
            emitted: self.emitted,
            timing: WorkTiming {
                submitted,
                started: self.start,
                h2d: SimTime::ZERO,
                kernel: self.end.saturating_sub(self.start),
                d2h: SimTime::ZERO,
                completed: self.end,
                cache_hits: 0,
                cache_misses: 0,
                bytes_h2d: 0,
                bytes_d2h: 0,
            },
        }
    }
}

/// Call `f` with `inputs`' host buffers as the kernel's `&[&HBuffer]`
/// argument, on the stack for works of up to four inputs
/// (a data block plus broadcast state is two), so the per-work host path
/// allocates no reference vector.
fn with_input_refs<R>(inputs: &[WorkBuf], f: impl FnOnce(&[&HBuffer]) -> R) -> R {
    const INLINE_INPUTS: usize = 4;
    match inputs.first() {
        Some(first) if inputs.len() <= INLINE_INPUTS => {
            let mut refs = [first.data.as_ref(); INLINE_INPUTS];
            for (slot, b) in refs.iter_mut().zip(inputs) {
                *slot = b.data.as_ref();
            }
            f(&refs[..inputs.len()])
        }
        Some(_) => f(&inputs.iter().map(|b| b.data.as_ref()).collect::<Vec<_>>()),
        None => f(&[]),
    }
}
