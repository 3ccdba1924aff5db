//! Property tests for the GPUManager: completion, conservation,
//! determinism and fault-tolerance invariants under randomized workloads.

use gflink_core::{CacheKey, GWork, GpuManager, GpuWorkerConfig, JobId, SchedulingPolicy, WorkBuf};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("negate", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, -v);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// A randomized GWork description.
#[derive(Clone, Debug)]
struct WorkSpec {
    logical: u64,
    submit_us: u64,
    cached: bool,
    partition: u32,
}

fn arb_work() -> impl Strategy<Value = WorkSpec> {
    (1u64..50_000_000, 0u64..10_000, any::<bool>(), 0u32..4).prop_map(
        |(logical, submit_us, cached, partition)| WorkSpec {
            logical,
            submit_us,
            cached,
            partition,
        },
    )
}

fn arb_policy() -> impl Strategy<Value = SchedulingPolicy> {
    prop_oneof![
        Just(SchedulingPolicy::LocalityAware),
        Just(SchedulingPolicy::LocalityNoSteal),
        Just(SchedulingPolicy::RoundRobin),
        Just(SchedulingPolicy::Random { seed: 99 }),
    ]
}

fn mk_work(i: u32, spec: &WorkSpec) -> GWork {
    let data = Arc::new(HBuffer::from_f32s(&[1.0, -2.0, 3.0, -4.0]));
    let key = CacheKey {
        dataset: 7,
        partition: spec.partition,
        block: i,
    };
    GWork {
        name: format!("w{i}").into(),
        execute_name: "negate".into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/negate.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if spec.cached {
            WorkBuf::cached(data, spec.logical, key)
        } else {
            WorkBuf::transient(data, spec.logical)
        }],
        out_actual_bytes: 16,
        out_logical_bytes: spec.logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: spec.logical / 8,
        coalescing: 1.0,
        tag: (spec.partition, i),
    }
}

fn run(
    specs: &[WorkSpec],
    policy: SchedulingPolicy,
    models: Vec<GpuModel>,
    failure_rate: f64,
) -> (GpuManager, Vec<gflink_core::CompletedWork>) {
    let mut mgr = GpuManager::new(
        0,
        GpuWorkerConfig {
            models,
            scheduling: policy,
            failure_rate,
            retry: gflink_sim::RetryPolicy {
                max_retries: 100,
                ..gflink_sim::RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    mgr.begin_job(JOB);
    for (i, s) in specs.iter().enumerate() {
        mgr.submit_for(JOB, mk_work(i as u32, s), SimTime::from_micros(s.submit_us));
    }
    let done = mgr.drain_job(JOB);
    (mgr, done)
}

/// The single job all these randomized workloads run as.
const JOB: JobId = JobId(1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted work completes exactly once with correct output, for
    /// every scheduling policy and GPU mix.
    #[test]
    fn all_work_completes_exactly_once(
        specs in prop::collection::vec(arb_work(), 1..40),
        policy in arb_policy(),
        dual in any::<bool>(),
    ) {
        let models = if dual {
            vec![GpuModel::TeslaC2050, GpuModel::TeslaK20]
        } else {
            vec![GpuModel::TeslaC2050]
        };
        let (_, done) = run(&specs, policy, models, 0.0);
        prop_assert_eq!(done.len(), specs.len());
        let mut tags: Vec<_> = done.iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), specs.len(), "duplicate completions");
        for d in &done {
            prop_assert_eq!(d.output.to_f32_vec(), vec![-1.0, 2.0, -3.0, 4.0]);
        }
    }

    /// Timing invariants: started >= submitted, completed >= started, and
    /// the stage service times fit inside the occupancy window.
    #[test]
    fn timing_invariants(specs in prop::collection::vec(arb_work(), 1..32)) {
        let (_, done) = run(&specs, SchedulingPolicy::LocalityAware,
                            vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050], 0.0);
        for d in &done {
            let t = &d.timing;
            prop_assert!(t.started >= t.submitted);
            prop_assert!(t.completed >= t.started);
            let services = t.h2d + t.kernel + t.d2h;
            prop_assert!(
                t.started + services <= t.completed,
                "stages exceed the occupancy window"
            );
        }
    }

    /// No device memory leaks: after drain + cache release, every byte is
    /// reclaimed on every GPU.
    #[test]
    fn device_memory_conserved(
        specs in prop::collection::vec(arb_work(), 1..40),
        policy in arb_policy(),
    ) {
        let (mut mgr, _) = run(&specs, policy,
                               vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050], 0.0);
        for g in 0..mgr.gpu_count() {
            // Only cached entries may remain resident...
            let region = mgr.session(JOB).unwrap().region(g);
            prop_assert_eq!(mgr.gpu(g).dmem.used(), region.used());
            prop_assert!(region.used() <= region.capacity());
        }
        // ...and releasing the job caches reclaims those too.
        mgr.release_job_caches();
        for g in 0..mgr.gpu_count() {
            prop_assert_eq!(mgr.gpu(g).dmem.used(), 0);
        }
    }

    /// The drain is deterministic: identical submissions produce identical
    /// placements and completion times.
    #[test]
    fn drain_determinism(
        specs in prop::collection::vec(arb_work(), 1..32),
        policy in arb_policy(),
    ) {
        let digest = |(_, done): (GpuManager, Vec<gflink_core::CompletedWork>)| {
            let mut v: Vec<_> = done
                .iter()
                .map(|d| (d.tag, d.gpu, d.stream, d.timing.completed))
                .collect();
            v.sort_unstable();
            v
        };
        let a = digest(run(&specs, policy, vec![GpuModel::TeslaC2050, GpuModel::TeslaP100], 0.0));
        let b = digest(run(&specs, policy, vec![GpuModel::TeslaC2050, GpuModel::TeslaP100], 0.0));
        prop_assert_eq!(a, b);
    }

    /// Fault tolerance: with injected kernel failures, everything still
    /// completes exactly once with correct results, and no memory leaks.
    #[test]
    fn failures_never_lose_or_corrupt_work(
        specs in prop::collection::vec(arb_work(), 1..24),
        rate in 0.05f64..0.5,
    ) {
        let (mut mgr, done) = run(&specs, SchedulingPolicy::LocalityAware,
                                  vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050], rate);
        prop_assert_eq!(done.len(), specs.len());
        for d in &done {
            prop_assert_eq!(d.output.to_f32_vec(), vec![-1.0, 2.0, -3.0, 4.0]);
        }
        mgr.release_job_caches();
        for g in 0..mgr.gpu_count() {
            prop_assert_eq!(mgr.gpu(g).dmem.used(), 0);
        }
    }

    /// The recycled hot path is invisible to results: a second round of
    /// identical works — served from recycled flight slots, pooled
    /// bookkeeping Vecs and result buffers that round one's dropped
    /// outputs returned to this thread's free lists — produces
    /// bit-identical outputs, so a reused buffer is zeroed like a fresh one.
    #[test]
    fn recycled_outputs_are_digest_invariant(
        specs in prop::collection::vec(arb_work(), 1..32),
        policy in arb_policy(),
    ) {
        let mut mgr = GpuManager::new(
            0,
            GpuWorkerConfig {
                models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
                scheduling: policy,
                ..GpuWorkerConfig::default()
            },
            registry(),
        );
        mgr.begin_job(JOB);
        let round = |mgr: &mut GpuManager| {
            for (i, s) in specs.iter().enumerate() {
                mgr.submit_for(JOB, mk_work(i as u32, s), SimTime::from_micros(s.submit_us));
            }
            mgr.drain_job(JOB)
        };
        // Placement (stream picks) legitimately differs between rounds —
        // round two inherits round one's busy-until state. The *results*
        // may not drift by a bit.
        let digest = |done: &[gflink_core::CompletedWork]| {
            let mut v: Vec<_> = done
                .iter()
                .map(|d| (d.tag, d.output.as_slice().to_vec()))
                .collect();
            v.sort_unstable_by_key(|d| d.0);
            v
        };
        let first = round(&mut mgr);
        let first_digest = digest(&first);
        drop(first); // results return to the free lists before round two
        let second = round(&mut mgr);
        prop_assert_eq!(digest(&second), first_digest, "reused flights drifted");
    }

    /// Teardown is exact-bytes under churn: whatever mix of device loss
    /// and checkpoint restore a run goes through, dropping the results and
    /// ending the job leaves zero device bytes allocated on every GPU —
    /// including the dead one.
    #[test]
    fn teardown_is_exact_bytes_under_churn(
        specs in prop::collection::vec(arb_work(), 1..24),
        lose_at_us in 1u64..8_000,
        restore in any::<bool>(),
    ) {
        let mut mgr = GpuManager::new(
            0,
            GpuWorkerConfig {
                models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
                retry: gflink_sim::RetryPolicy {
                    max_retries: 100,
                    ..gflink_sim::RetryPolicy::default()
                },
                ..GpuWorkerConfig::default()
            },
            registry(),
        );
        mgr.set_fault_plan(
            FaultPlan::new().with(SimTime::from_micros(lose_at_us), FaultKind::GpuLost { gpu: 1 }),
        );
        mgr.begin_job(JOB);
        // A restored checkpoint covers every third tag: those submissions
        // are satisfied from the snapshot instead of executing.
        let covered: Vec<(u32, u32)> = if restore {
            specs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == 0)
                .map(|(i, s)| (s.partition, i as u32))
                .collect()
        } else {
            Vec::new()
        };
        mgr.restore_job(JOB, 1, &covered);
        for (i, s) in specs.iter().enumerate() {
            mgr.submit_for(JOB, mk_work(i as u32, s), SimTime::from_micros(s.submit_us));
        }
        let done = mgr.drain_job(JOB);
        prop_assert_eq!(done.len(), specs.len() - covered.len());
        drop(done);
        mgr.end_job(JOB);
        for g in 0..mgr.gpu_count() {
            prop_assert_eq!(mgr.gpu(g).dmem.used(), 0, "device bytes leaked");
        }
    }
}
