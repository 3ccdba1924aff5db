#![warn(clippy::too_many_lines)]

//! The recovery half of the GPUManager: typed failure taxonomy, the fault
//! plan/arming machinery, retry-with-backoff routing, the CPU fallback
//! path, and the fault ledgers.
//!
//! Fault/recovery counters are **double-entry**: every event is noted in
//! one call, `RecoveryManager::note`, which tallies it on the session
//! ledger(s) *and* the worker-global ledger, bumps the entry's live counter
//! and pushes its flight-recorder event. Work-scoped entries (retries,
//! transients, hangs, failures, CPU fallbacks, …) charge the job that owned
//! the work; device-scoped entries (injections, loss, degradation,
//! membership) charge every open session — a dead device is every
//! tenant's problem. Each entry's scope, counter and recorder kind are
//! declared once, with the [`FaultLedger`] itself.

use crate::config::GpuWorkerConfig;
use crate::gwork::{CompletedWork, GWork, WorkBuf, WorkTiming};
use crate::session::{JobId, JobSession};
use gflink_gpu::{DeviceError, KernelArgs, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::trace::{cpu_pid, Cat, TraceEvent, TID_DEVICE};
use gflink_sim::{
    ComputeCost, Counter, EventQueue, FaultKind, FaultLedger, HostEngine, LedgerEntry, LedgerScope,
    MembershipKind, Metrics, Plan, RecEvent, RetryPolicy, SimTime, Timed, Tracer, REC_NO_GPU,
};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Whom a [`RecoveryManager::note`] charges besides the worker ledger.
pub(crate) enum Charge<'a> {
    /// The job that owned the work (a [`LedgerScope::Work`] entry).
    Job(&'a mut JobSession),
    /// Every open session (a [`LedgerScope::Device`] entry).
    Open(&'a mut BTreeMap<JobId, JobSession>),
}

/// The flight-recorder half of a [`RecoveryManager::note`]: when the event
/// happened, on which device, and the kind-specific detail.
#[derive(Clone, Copy)]
pub(crate) struct Rec {
    at: SimTime,
    gpu: u32,
    a: u64,
}

impl Rec {
    /// An event at `at` with no device attribution.
    pub(crate) fn at(at: SimTime) -> Rec {
        Rec {
            at,
            gpu: REC_NO_GPU,
            a: 0,
        }
    }

    /// Attribute the event to device `gpu`.
    pub(crate) fn on_gpu(self, gpu: usize) -> Rec {
        let gpu = gpu as u32;
        Rec { gpu, ..self }
    }

    /// Attach the kind-specific detail value.
    pub(crate) fn with_detail(self, a: u64) -> Rec {
        Rec { a, ..self }
    }
}

/// The recovery half of the per-worker GPU manager.
pub struct RecoveryManager {
    retry: RetryPolicy,
    hang_timeout: SimTime,
    failure_rate: f64,
    cpu_fallback: CpuFallback,
    /// Scripted faults, delivered into drains exactly once.
    pub(crate) faults: Script<FaultKind>,
    /// Scripted elastic-membership changes (joins/leaves), delivered into
    /// drains exactly once — the fault plan's administrative twin.
    pub(crate) membership: Script<MembershipKind>,
    /// Scripted kernel faults armed per GPU, consumed by its next launches.
    armed: Vec<Armed>,
    /// Worker-global ledger: the sum over every session's ledger for
    /// work-scoped counters, single-entry for device-scoped ones.
    ledger: FaultLedger,
    /// The host CPU execution engine — shared by the last-resort fallback
    /// and the hybrid cost-model placement, so both account against the
    /// same slot timelines.
    host: HostEngine,
    tracer: Tracer,
    worker_id: usize,
    /// The live-metrics plane (gates flight-recorder pushes).
    metrics: Metrics,
    /// The live mirror of `ledger`, one counter per [`LedgerEntry`].
    m: [Counter; LedgerEntry::COUNT],
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
            faults: Script::new(),
            membership: Script::new(),
            armed: vec![Armed::default(); cfg.models.len()],
            ledger: FaultLedger::default(),
            host,
            tracer: Tracer::disabled(),
            worker_id: 0,
            metrics: Metrics::disabled(),
            m: Default::default(),
        }
    }

    /// Attach the live-metrics plane: registers this worker's
    /// fault/recovery counter series (the live mirror of the ledger).
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics, worker_id: usize) {
        self.metrics = metrics.clone();
        self.worker_id = worker_id;
        let l = format!("{{worker=\"{worker_id}\"}}");
        for e in LedgerEntry::COUNTER_ORDER {
            self.m[e as usize] =
                metrics.counter(&format!("gflink_{}_total{l}", e.name()), e.help());
        }
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

    /// Grow the armed-fault state for a device that joined the complement.
    pub(crate) fn grow_device(&mut self) {
        self.armed.push(Armed::default());
    }

    /// Worker-global cumulative fault/recovery counters.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// Watchdog timeout for hung kernels.
    pub fn hang_timeout(&self) -> SimTime {
        self.hang_timeout
    }

    /// Arm a scripted kernel fault (a transient or a hang) on its device;
    /// other kinds arm nothing.
    pub(crate) fn arm(&mut self, kind: FaultKind) {
        let armed = &mut self.armed[kind.gpu()];
        match kind {
            FaultKind::KernelTransient { .. } => armed.transients += 1,
            FaultKind::KernelHang { .. } => armed.hangs += 1,
            FaultKind::GpuLost { .. } | FaultKind::GpuDegraded { .. } => {}
        }
    }

    /// Consume one armed transient fault on `gpu`, if any.
    pub(crate) fn take_transient(&mut self, gpu: usize) -> bool {
        take_one(&mut self.armed[gpu].transients)
    }

    /// Consume one armed hang on `gpu`, if any.
    pub(crate) fn take_hang(&mut self, gpu: usize) -> bool {
        take_one(&mut self.armed[gpu].hangs)
    }

    /// Random transient injection at `failure_rate`. Callers must evaluate
    /// this *after* (and short-circuited by) the scripted check so the RNG
    /// draw order — and with it every seeded timeline — is preserved.
    pub(crate) fn random_transient(&mut self, rng: &mut gflink_sim::SimRng) -> bool {
        self.failure_rate > 0.0 && rng.next_f64() < self.failure_rate
    }

    /// Note `n` events of `entry`: the worker ledger, the charged session
    /// ledger(s) and the entry's live counter each gain `n`, and while the
    /// metrics plane is on every charged session's flight recorder gets
    /// the entry's event (entries without a recorder kind, and `rec: None`,
    /// push nothing).
    pub(crate) fn note(
        &mut self,
        charge: Charge<'_>,
        entry: LedgerEntry,
        n: u64,
        rec: Option<Rec>,
    ) {
        debug_assert_eq!(
            matches!(charge, Charge::Open(_)),
            entry.scope() == LedgerScope::Device,
            "{entry:?} charged to the wrong scope"
        );
        *self.ledger.get_mut(entry) += n;
        self.m[entry as usize].add(n);
        let ev = rec
            .filter(|_| self.metrics.enabled())
            .zip(entry.rec_kind())
            .map(|(r, kind)| RecEvent {
                at: r.at,
                kind,
                worker: self.worker_id as u32,
                gpu: r.gpu,
                a: r.a,
            });
        let charge_one = |s: &mut JobSession| {
            *s.ledger.total_mut().get_mut(entry) += n;
            if let Some(ev) = ev {
                s.recorder.push(ev);
            }
        };
        match charge {
            Charge::Job(s) => charge_one(s),
            Charge::Open(sessions) => sessions.values_mut().for_each(charge_one),
        }
    }

    // --- retry / fail / CPU fallback -----------------------------------

    /// The terminal [`FailReason`] for a work that failed with `reason`
    /// after `retries` retries and `spent` time, or `None` while the policy
    /// still allows a retry. A [`FailReason::Fatal`] wrapping
    /// [`ManagerError::KernelMissing`] is always terminal (no later attempt
    /// can succeed).
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
    /// backoff.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn retry(
        &mut self,
        session: &mut JobSession,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        self.note(
            Charge::Job(session),
            LedgerEntry::Retries,
            1,
            Some(Rec::at(now).with_detail(u64::from(retries + 1))),
        );
        let delay = self.retry.backoff(retries);
        let at = SimTime::from_nanos(now.as_nanos().saturating_add(delay.as_nanos()));
        self.tracer.record_with(|| {
            self.recovery_instant("retry", now)
                .with_job(job.0)
                .with_arg("op", &work.name)
                .with_arg("attempt", retries + 1)
        });
        q.schedule(at, Ev::submit(job, submitted, retries + 1, work));
    }

    /// A recovery instant on thread 0 of the worker's CPU-pool process.
    fn recovery_instant(&self, name: &'static str, at: SimTime) -> TraceEvent {
        TraceEvent::instant(cpu_pid(self.worker_id), TID_DEVICE, Cat::Recovery, name, at)
    }

    /// Give up on a work with a structured [`FailedWork`]. Takes the
    /// work's identity rather than its `GWork`, so split-block reassembly
    /// can fail a *parent* whose `GWork` no longer exists (only its sliced
    /// children do).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fail(
        &mut self,
        session: &mut JobSession,
        name: &str,
        tag: (u32, u32),
        retries: u32,
        submitted: SimTime,
        now: SimTime,
        reason: FailReason,
    ) {
        self.note(
            Charge::Job(session),
            LedgerEntry::WorksFailed,
            1,
            Some(Rec::at(now).with_detail(u64::from(retries))),
        );
        self.tracer.record_with(|| {
            self.recovery_instant("work-failed", now)
                .with_arg("op", name)
                .with_arg("reason", format!("{reason:?}"))
        });
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
        self.note(
            Charge::Job(session),
            LedgerEntry::CpuFallbacks,
            1,
            Some(Rec::at(t)),
        );
        he.trace(
            &self.tracer,
            self.worker_id,
            job,
            &work.name,
            ("fallback", "all GPUs lost"),
        );
        Ok(he.into_completed(work.name, work.tag, submitted))
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
    /// Trace the execution as a span on its host slot, with one argument
    /// saying why it ran on the host.
    pub(crate) fn trace(
        &self,
        tracer: &Tracer,
        worker_id: usize,
        job: JobId,
        name: &str,
        (key, why): (&'static str, &'static str),
    ) {
        let tid = 1 + self.slot as u32;
        tracer.record_with(|| {
            TraceEvent::span(
                cpu_pid(worker_id),
                tid,
                Cat::Cpu,
                name,
                self.start,
                self.end,
            )
            .with_job(job.0)
            .with_arg(key, why)
        });
    }

    /// Package the execution as a [`CompletedWork`] (host executions charge
    /// no transfer time: the data never left host memory).
    pub(crate) fn into_completed(
        self,
        name: Arc<str>,
        tag: (u32, u32),
        submitted: SimTime,
    ) -> CompletedWork {
        CompletedWork {
            name,
            tag,
            gpu: CPU_FALLBACK_GPU,
            stream: self.slot,
            output: self.out,
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

/// Scripted kernel faults armed on one GPU.
#[derive(Clone, Copy, Default)]
struct Armed {
    transients: u32,
    hangs: u32,
}

/// Take one from a nonzero count; whether there was one to take.
fn take_one(n: &mut u32) -> bool {
    let some = *n > 0;
    *n -= u32::from(some);
    some
}

/// A scripted plan and the index of its first event not yet delivered
/// into a drain.
pub(crate) struct Script<K> {
    plan: Plan<K>,
    cursor: usize,
}

impl<K> Script<K> {
    fn new() -> Self {
        Script {
            plan: Plan::new(),
            cursor: 0,
        }
    }

    /// Replace the plan; every event of the new one is undelivered.
    pub(crate) fn set(&mut self, plan: Plan<K>) {
        *self = Script { plan, cursor: 0 };
    }

    /// The events not yet delivered into any drain; advances the cursor so
    /// each enters an event queue exactly once.
    pub(crate) fn take_unscheduled(&mut self) -> &[Timed<K>] {
        let from = std::mem::replace(&mut self.cursor, self.plan.events().len());
        &self.plan.events()[from..]
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
