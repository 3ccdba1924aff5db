//! Behavioural tests for the public `GpuManager` surface.
//!
//! These predate the GMemoryManager/GStreamManager decomposition and pin
//! the single-job semantics (scheduling, caching, pipelining, fault
//! recovery, determinism) every later refactor must preserve
//! byte-for-byte. They run as one tenant of the session-scoped API via the
//! [`SoloJob`] shim below.

use gflink_core::{
    CacheKey, CompletedWork, CpuFallback, FailReason, FailedWork, GWork, GpuCache, GpuManager,
    GpuWorkerConfig, JobId, ManagerError, SchedulingPolicy, WorkBuf, CPU_FALLBACK_GPU,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{FaultKind, FaultPlan, RetryPolicy, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// The one job all these single-tenant scenarios run as.
const JOB: JobId = JobId(1);

/// Single-tenant convenience over the session-scoped manager API: open the
/// one session lazily (begin_job is idempotent) and scope every
/// submit/drain/inspect call to it.
trait SoloJob {
    fn submit(&mut self, work: GWork, at: SimTime);
    fn drain(&mut self) -> Vec<CompletedWork>;
    fn cache(&self, gpu: usize) -> &GpuCache;
    fn failed(&self) -> &[FailedWork];
    fn take_failed(&mut self) -> Vec<FailedWork>;
}

impl SoloJob for GpuManager {
    fn submit(&mut self, work: GWork, at: SimTime) {
        self.begin_job(JOB);
        self.submit_for(JOB, work, at);
    }
    fn drain(&mut self) -> Vec<CompletedWork> {
        self.begin_job(JOB);
        self.drain_job(JOB)
    }
    fn cache(&self, gpu: usize) -> &GpuCache {
        self.session(JOB).expect("solo session open").region(gpu)
    }
    fn failed(&self) -> &[FailedWork] {
        self.session(JOB).expect("solo session open").failed()
    }
    fn take_failed(&mut self) -> Vec<FailedWork> {
        self.take_job_failed(JOB)
    }
}

fn registry_with_scale2() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let input = args.inputs[0];
        let out = &mut args.outputs[0];
        for i in 0..n {
            out.write_f32(i * 4, input.read_f32(i * 4) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

fn mk_work(tag: (u32, u32), logical: u64, cache: bool) -> GWork {
    let data = Arc::new(HBuffer::from_f32s(&[1.0, 2.0, 3.0, 4.0]));
    let key = CacheKey {
        dataset: 1,
        partition: tag.0,
        block: tag.1,
    };
    GWork {
        name: format!("w{}-{}", tag.0, tag.1).into(),
        execute_name: "scale2".into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if cache {
            WorkBuf::cached(data, logical, key)
        } else {
            WorkBuf::transient(data, logical)
        }],
        out_actual_bytes: 16,
        out_logical_bytes: logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: logical / 4,
        coalescing: 1.0,
        tag,
    }
}

fn manager(models: Vec<GpuModel>, policy: SchedulingPolicy) -> GpuManager {
    GpuManager::new(
        0,
        GpuWorkerConfig {
            models,
            scheduling: policy,
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    )
}

#[test]
fn executes_work_and_returns_real_results() {
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    assert!(done[0].timing.h2d > SimTime::ZERO);
    assert!(done[0].timing.kernel > SimTime::ZERO);
    assert!(done[0].timing.d2h > SimTime::ZERO);
    assert!(done[0].timing.completed > SimTime::ZERO);
}

#[test]
fn cache_hit_skips_h2d_on_second_round() {
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    m.submit(mk_work((0, 0), 1 << 24, true), SimTime::ZERO);
    let first = m.drain().pop().unwrap();
    assert_eq!(first.timing.cache_misses, 1);
    assert!(first.timing.h2d > SimTime::ZERO);
    // Same block again (next iteration).
    m.submit(mk_work((0, 0), 1 << 24, true), first.timing.completed);
    let second = m.drain().pop().unwrap();
    assert_eq!(second.timing.cache_hits, 1);
    assert_eq!(second.timing.h2d, SimTime::ZERO);
    assert!(second.timing.total() < first.timing.total());
}

#[test]
fn locality_routes_to_caching_gpu() {
    let mut m = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        SchedulingPolicy::LocalityAware,
    );
    // Warm block (0,0) somewhere.
    m.submit(mk_work((0, 0), 1 << 20, true), SimTime::ZERO);
    let first = m.drain().pop().unwrap();
    let warm_gpu = first.gpu;
    // Resubmit 8 times; all should land on the warm GPU.
    for i in 0..8 {
        m.submit(
            mk_work((0, 0), 1 << 20, true),
            first.timing.completed + SimTime::from_millis(i * 10),
        );
    }
    for done in m.drain() {
        assert_eq!(done.gpu, warm_gpu, "locality-aware must follow the cache");
        assert_eq!(done.timing.cache_hits, 1);
    }
}

#[test]
fn round_robin_alternates_gpus() {
    let mut m = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        SchedulingPolicy::RoundRobin,
    );
    for i in 0..6 {
        m.submit(mk_work((0, i), 1 << 20, false), SimTime::ZERO);
    }
    m.drain();
    assert_eq!(m.executed_per_gpu(), &[3, 3]);
}

#[test]
fn heterogeneous_bulk_load_balances_by_stealing() {
    // One slow C2050 and one fast P100; with far more works than
    // streams, the P100 must end up executing more of them.
    let mut m = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaP100],
        SchedulingPolicy::LocalityAware,
    );
    for i in 0..64 {
        m.submit(mk_work((0, i), 1 << 26, false), SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 64);
    let per = m.executed_per_gpu();
    assert!(
        per[1] > per[0],
        "P100 should execute more work than C2050, got {per:?}"
    );
}

#[test]
fn queue_drains_even_when_all_streams_start_busy() {
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    // 4 streams; 12 works at the same instant: 8 must queue and still run.
    for i in 0..12 {
        m.submit(mk_work((0, i), 1 << 24, false), SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 12);
    // Works queue, so some have nonzero queueing delay.
    assert!(done.iter().any(|d| d.timing.queued() > SimTime::ZERO));
}

#[test]
fn no_steal_policy_keeps_foreign_queues() {
    let mut with = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaP100],
        SchedulingPolicy::LocalityAware,
    );
    let mut without = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaP100],
        SchedulingPolicy::LocalityNoSteal,
    );
    for m in [&mut with, &mut without] {
        for i in 0..64 {
            m.submit(mk_work((0, i), 1 << 26, false), SimTime::ZERO);
        }
        m.drain();
    }
    assert!(with.steals() > 0);
    assert_eq!(without.steals(), 0);
}

#[test]
fn release_job_caches_frees_device_memory() {
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    m.submit(mk_work((0, 0), 1 << 24, true), SimTime::ZERO);
    m.drain();
    assert!(m.cache(0).used() > 0);
    let used_before = m.gpu(0).dmem.used();
    assert!(used_before > 0);
    m.release_job_caches();
    assert_eq!(m.cache(0).used(), 0);
    assert_eq!(m.gpu(0).dmem.used(), 0);
}

#[test]
fn injected_failures_recover_with_correct_results() {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
            failure_rate: 0.3,
            retry: RetryPolicy {
                max_retries: 20,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    for i in 0..32 {
        m.submit(mk_work((0, i), 1 << 20, false), SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 32, "every work must complete despite failures");
    assert!(m.failures() > 0, "failure injection should have fired");
    assert_eq!(m.fault_ledger().transient_faults, m.failures());
    assert!(m.fault_ledger().retries >= m.failures());
    for d in &done {
        assert_eq!(d.output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    }
    // No leaked device memory or pinned cache entries.
    for g in 0..m.gpu_count() {
        assert_eq!(m.gpu(g).dmem.used(), 0);
    }
}

#[test]
fn failures_cost_time_but_not_correctness() {
    let run = |rate: f64| {
        let mut m = GpuManager::new(
            0,
            GpuWorkerConfig {
                models: vec![GpuModel::TeslaC2050],
                failure_rate: rate,
                retry: RetryPolicy {
                    max_retries: 50,
                    ..RetryPolicy::default()
                },
                ..GpuWorkerConfig::default()
            },
            registry_with_scale2(),
        );
        for i in 0..16 {
            m.submit(mk_work((0, i), 1 << 24, false), SimTime::ZERO);
        }
        m.drain().iter().map(|d| d.timing.completed).max().unwrap()
    };
    assert!(run(0.4) > run(0.0), "failures must lengthen the makespan");
}

#[test]
fn drain_is_deterministic() {
    let run = || {
        let mut m = manager(
            vec![GpuModel::TeslaC2050, GpuModel::TeslaK20],
            SchedulingPolicy::LocalityAware,
        );
        for i in 0..32 {
            m.submit(mk_work((i % 4, i), 1 << 22, i % 2 == 0), SimTime::ZERO);
        }
        let mut done = m.drain();
        done.sort_by_key(|d| d.tag);
        done.iter()
            .map(|d| (d.tag, d.gpu, d.timing.completed))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

// ------------------------------------------------------------------
// Fault-injection & recovery
// ------------------------------------------------------------------

#[test]
fn device_loss_drains_to_survivor_with_correct_results() {
    let fault_free = {
        let mut m = manager(
            vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
            SchedulingPolicy::LocalityAware,
        );
        for i in 0..24 {
            m.submit(mk_work((0, i), 1 << 24, true), SimTime::ZERO);
        }
        let mut done = m.drain();
        done.sort_by_key(|d| d.tag);
        done
    };
    let mut m = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        SchedulingPolicy::LocalityAware,
    );
    // Kill GPU 0 mid-job: some works are in flight, some queued.
    m.set_fault_plan(FaultPlan::new().with(SimTime::from_millis(5), FaultKind::GpuLost { gpu: 0 }));
    for i in 0..24 {
        m.submit(mk_work((0, i), 1 << 24, true), SimTime::ZERO);
    }
    let mut done = m.drain();
    done.sort_by_key(|d| d.tag);
    assert_eq!(done.len(), 24, "every work must complete despite the loss");
    for (a, b) in done.iter().zip(&fault_free) {
        assert_eq!(a.tag, b.tag);
        assert_eq!(
            a.output.as_slice(),
            b.output.as_slice(),
            "results must be byte-identical to the fault-free run"
        );
        assert_eq!(a.gpu, 1, "all completions must come from the survivor");
    }
    let ledger = m.fault_ledger();
    assert_eq!(ledger.gpus_lost, 1);
    assert!(m.gpu(0).health().is_lost());
    assert!(
        m.cache(0).is_empty(),
        "lost GPU's cache must be invalidated"
    );
    assert!(m.failed().is_empty());
    assert_eq!(m.gpu(0).dmem.used(), 0, "lost device memory is wiped");
}

#[test]
fn losing_every_gpu_falls_back_to_cpu() {
    let mut m = manager(
        vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        SchedulingPolicy::LocalityAware,
    );
    m.set_fault_plan(
        FaultPlan::new()
            .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 0 })
            .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 1 }),
    );
    for i in 0..8 {
        m.submit(mk_work((0, i), 1 << 20, false), SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 8, "CPU fallback must complete the job");
    for d in &done {
        assert_eq!(d.gpu, CPU_FALLBACK_GPU);
        assert_eq!(d.output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(d.timing.h2d, SimTime::ZERO);
        assert_eq!(d.timing.d2h, SimTime::ZERO);
        assert!(d.timing.kernel > SimTime::ZERO);
    }
    let ledger = m.fault_ledger();
    assert_eq!(ledger.gpus_lost, 2);
    assert_eq!(ledger.cpu_fallbacks, 8);
    assert!(m.failed().is_empty());
}

#[test]
fn losing_every_gpu_without_fallback_fails_structurally() {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050],
            cpu_fallback: CpuFallback {
                enabled: false,
                ..CpuFallback::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    m.set_fault_plan(FaultPlan::new().with(SimTime::ZERO, FaultKind::GpuLost { gpu: 0 }));
    for i in 0..4 {
        m.submit(mk_work((0, i), 1 << 20, false), SimTime::from_millis(1));
    }
    let done = m.drain();
    assert!(done.is_empty());
    assert_eq!(m.failed().len(), 4);
    for f in m.failed() {
        assert_eq!(f.reason, FailReason::NoUsableDevice);
        assert!(f.failed_at >= f.submitted);
    }
    assert_eq!(m.fault_ledger().works_failed, 4);
}

#[test]
fn degradation_slows_the_job_down() {
    let run = |plan: FaultPlan| {
        let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
        m.set_fault_plan(plan);
        for i in 0..16 {
            m.submit(mk_work((0, i), 1 << 24, false), SimTime::ZERO);
        }
        let done = m.drain();
        assert_eq!(done.len(), 16);
        done.iter().map(|d| d.timing.completed).max().unwrap()
    };
    let nominal = run(FaultPlan::new());
    let degraded = run(FaultPlan::new().with(
        SimTime::ZERO,
        FaultKind::GpuDegraded {
            gpu: 0,
            throughput: 0.25,
        },
    ));
    assert!(degraded > nominal, "a throttled device must take longer");
}

#[test]
fn hang_is_detected_and_work_retried() {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050],
            hang_timeout: SimTime::from_millis(50),
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    m.set_fault_plan(FaultPlan::new().with(SimTime::ZERO, FaultKind::KernelHang { gpu: 0 }));
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    // The retry could only start after the watchdog fired.
    assert!(done[0].timing.completed > SimTime::from_millis(50));
    let ledger = m.fault_ledger();
    assert_eq!(ledger.hangs_detected, 1);
    assert!(ledger.retries >= 1);
    assert_eq!(m.gpu(0).dmem.used(), 0);
}

#[test]
fn scripted_transient_fault_is_recovered() {
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    m.set_fault_plan(FaultPlan::new().with(SimTime::ZERO, FaultKind::KernelTransient { gpu: 0 }));
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    assert_eq!(m.fault_ledger().transient_faults, 1);
    assert_eq!(m.failures(), 1);
}

#[test]
fn retry_exhaustion_produces_structured_failure() {
    // failure_rate 1.0: every launch fails; the retry budget must run
    // out and yield FailedWork rather than a panic.
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050],
            failure_rate: 1.0,
            retry: RetryPolicy {
                base: SimTime::from_micros(10),
                factor: 2,
                max_retries: 3,
                deadline: SimTime::MAX,
            },
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert!(done.is_empty());
    assert_eq!(m.failed().len(), 1);
    let f = &m.failed()[0];
    assert_eq!(f.reason, FailReason::RetriesExhausted);
    assert_eq!(f.retries, 3);
    assert!(
        f.failed_at > f.submitted,
        "failure instants participate in makespan"
    );
    assert_eq!(m.fault_ledger().works_failed, 1);
    assert_eq!(m.fault_ledger().retries, 3);
    // Nothing leaked on the way out.
    assert_eq!(m.gpu(0).dmem.used(), 0);
}

#[test]
fn completions_and_failures_partition_submissions() {
    // Half the works name a kernel that exists, half one that doesn't:
    // completed + failed must account for every submission exactly.
    let mut m = manager(vec![GpuModel::TeslaC2050], SchedulingPolicy::LocalityAware);
    for i in 0..10 {
        let mut w = mk_work((0, i), 1 << 20, false);
        if i % 2 == 1 {
            w.execute_name = "no-such-kernel".into();
        }
        m.submit(w, SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 5);
    assert_eq!(m.failed().len(), 5);
    for f in m.failed() {
        assert!(matches!(
            f.reason,
            FailReason::Fatal(ManagerError::KernelMissing { .. })
        ));
        assert_eq!(f.retries, 0, "a missing kernel is never retried");
    }
    assert_eq!(m.gpu(0).dmem.used(), 0);
    assert_eq!(m.take_failed().len(), 5);
    assert!(m.failed().is_empty());
}

#[test]
fn retry_backoff_defers_resubmission() {
    // One scripted transient with a long backoff: the completion must
    // land at least `base` after the faulted kernel finished.
    let base = SimTime::from_millis(20);
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050],
            retry: RetryPolicy {
                base,
                factor: 2,
                max_retries: 4,
                deadline: SimTime::MAX,
            },
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    m.set_fault_plan(FaultPlan::new().with(SimTime::ZERO, FaultKind::KernelTransient { gpu: 0 }));
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert!(
        done[0].timing.completed >= base,
        "retry must wait out the backoff, completed at {}",
        done[0].timing.completed
    );
}

// ------------------------------------------------------------------
// Hybrid split-block failure routing & host-side model feedback
// ------------------------------------------------------------------

/// Like [`registry_with_scale2`], but with the kernel *declared*
/// element-wise — the opt-in that makes its blocks eligible for hybrid
/// splitting.
fn registry_with_elementwise_scale2() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register_elementwise("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let input = args.inputs[0];
        let out = &mut args.outputs[0];
        for i in 0..n {
            out.write_f32(i * 4, input.read_f32(i * 4) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// Hybrid policy tuned so every 4-element `mk_work` block splits: the
/// minimum piece is one element and the balance window accepts any
/// CPU/GPU prediction ratio.
fn hybrid_split_config() -> GpuWorkerConfig {
    GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        scheduling: SchedulingPolicy::HybridCostModel,
        hybrid: gflink_core::HybridConfig {
            min_split_elems: 1,
            split_balance: 1e12,
        },
        ..GpuWorkerConfig::default()
    }
}

#[test]
fn split_child_terminal_failure_fails_parent_under_original_tag() {
    // Every GPU launch fails and the retry budget is zero, so the split's
    // GPU child fails terminally on its first attempt while the CPU child
    // (the host path injects no faults) completes. The *parent* block must
    // fail exactly once under the tag the consumer submitted — never under
    // a synthetic child tag — and the drain must reach quiescence (the
    // merge entry and child routes are released, `is_idle` holds).
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            failure_rate: 1.0,
            retry: RetryPolicy {
                base: SimTime::from_micros(10),
                factor: 2,
                max_retries: 0,
                deadline: SimTime::MAX,
            },
            ..hybrid_split_config()
        },
        registry_with_elementwise_scale2(),
    );
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert!(done.is_empty(), "a half-failed split must not complete");
    let session = m.session(JOB).expect("solo session open");
    assert_eq!(session.hybrid_splits(), 1, "the block must have split");
    assert_eq!(m.failed().len(), 1, "one parent failure, no child failures");
    let f = &m.failed()[0];
    assert_eq!(f.tag, (0, 0), "failure carries the submitted tag");
    assert_eq!(f.name, "w0-0");
    assert_eq!(f.reason, FailReason::RetriesExhausted);
    assert!(f.failed_at >= f.submitted);
    assert_eq!(m.fault_ledger().works_failed, 1);
    assert_eq!(m.gpu(0).dmem.used(), 0);
}

#[test]
fn split_child_transient_failure_retries_and_merges() {
    // A scripted transient hits the split's GPU child; the retry stays a
    // split child (bypassing admission), re-executes, and the merge still
    // reassembles the byte-exact parent block.
    let mut m = GpuManager::new(0, hybrid_split_config(), registry_with_elementwise_scale2());
    m.set_fault_plan(FaultPlan::new().with(SimTime::ZERO, FaultKind::KernelTransient { gpu: 0 }));
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tag, (0, 0));
    assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    assert!(m.failed().is_empty());
    let session = m.session(JOB).expect("solo session open");
    assert_eq!(session.hybrid_splits(), 1);
    assert_eq!(m.fault_ledger().transient_faults, 1);
    assert!(m.fault_ledger().retries >= 1);
}

#[test]
fn repeated_splits_recycle_tags_and_stay_correct() {
    // Sequential rounds of splits exercise child-tag reclamation: closed
    // merges return their synthetic indices to the free list, so long-lived
    // workers never walk off the reserved tag range.
    let mut m = GpuManager::new(0, hybrid_split_config(), registry_with_elementwise_scale2());
    let mut at = SimTime::ZERO;
    for round in 0..8 {
        m.submit(mk_work((0, round), 1 << 20, false), at);
        let done = m.drain();
        assert_eq!(done.len(), 1, "round {round}");
        assert_eq!(done[0].tag, (0, round));
        assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
        at = done[0].timing.completed;
    }
    let session = m.session(JOB).expect("solo session open");
    assert_eq!(session.hybrid_splits(), 8);
    assert!(m.failed().is_empty());
}

#[test]
fn undeclared_kernel_never_splits() {
    // Same shapes, same policy — but the kernel was registered without the
    // element-wise declaration, so divisibility alone must not trigger a
    // split (a coincidentally divisible side input would be sliced wrong).
    let mut m = GpuManager::new(0, hybrid_split_config(), registry_with_scale2());
    m.submit(mk_work((0, 0), 1 << 20, false), SimTime::ZERO);
    let done = m.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].output.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    let session = m.session(JOB).expect("solo session open");
    assert_eq!(session.hybrid_splits(), 0);
}

#[test]
fn host_routed_work_feeds_prediction_error() {
    // Transfer-heavy blocks route to the host outright (no GPU completions
    // at all for them), and every host execution must still score the
    // model: the prediction-error histogram cannot stay empty.
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050],
            scheduling: SchedulingPolicy::HybridCostModel,
            ..GpuWorkerConfig::default()
        },
        registry_with_scale2(),
    );
    for i in 0..8 {
        m.submit(mk_work((0, i), 1 << 24, false), SimTime::ZERO);
    }
    let done = m.drain();
    assert_eq!(done.len(), 8);
    let session = m.session(JOB).expect("solo session open");
    assert!(
        session.hybrid_cpu() > 0,
        "PCIe-bound blocks must win the host route"
    );
    assert!(
        session.hybrid_err().count() >= session.hybrid_cpu(),
        "each host execution scores the model: {} errors for {} host runs",
        session.hybrid_err().count(),
        session.hybrid_cpu()
    );
    assert!(done
        .iter()
        .any(|d| d.gpu == CPU_FALLBACK_GPU && d.output.to_f32_vec() == vec![2.0, 4.0, 6.0, 8.0]));
}

#[test]
fn chaos_drain_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut m = GpuManager::new(
            0,
            GpuWorkerConfig {
                models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
                hang_timeout: SimTime::from_millis(50),
                ..GpuWorkerConfig::default()
            },
            registry_with_scale2(),
        );
        m.set_fault_plan(FaultPlan::random(seed, 2, SimTime::from_millis(100), 8));
        for i in 0..24 {
            m.submit(mk_work((0, i), 1 << 22, i % 2 == 0), SimTime::ZERO);
        }
        let mut done = m.drain();
        done.sort_by_key(|d| d.tag);
        (
            done.iter()
                .map(|d| (d.tag, d.gpu, d.timing.completed))
                .collect::<Vec<_>>(),
            m.fault_ledger(),
        )
    };
    assert_eq!(run(11), run(11), "same seed, same timeline and ledger");
}
