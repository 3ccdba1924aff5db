//! Chaos properties: for any seeded `FaultPlan` that leaves at least one
//! GPU alive, every submitted GWork completes with byte-identical results
//! to a fault-free run — and the whole recovery is deterministic: two runs
//! from the same seed produce identical timelines and ledgers.

use gflink_core::{CacheKey, CompletedWork, GWork, GpuManager, GpuWorkerConfig, JobId, WorkBuf};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{FaultPlan, MembershipPlan, RetryPolicy, SimTime};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// Work `i` carries input data derived from its index, so byte-identity of
/// outputs across runs is a meaningful per-work check.
fn mk_work(i: u32, cached: bool) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.5, -base, base * 3.0]));
    let key = CacheKey {
        dataset: 9,
        partition: i % 4,
        block: i,
    };
    let logical = 1u64 << 22;
    GWork {
        name: format!("w{i}").into(),
        execute_name: "scale2".into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if cached {
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
        tag: (0, i),
    }
}

/// The single job every chaos scenario runs as.
const JOB: JobId = JobId(1);

fn run_plan(plan: FaultPlan, gpus: usize, n_works: u32) -> (Vec<CompletedWork>, GpuManager) {
    run_elastic(plan, MembershipPlan::new(), &[], gpus, n_works)
}

/// Full elastic harness: scripted faults AND membership changes against
/// one worker, with `covered` tags pre-installed as restored from a
/// checkpoint (those submissions are satisfied from the snapshot, not
/// executed).
fn run_elastic(
    faults: FaultPlan,
    membership: MembershipPlan,
    covered: &[(u32, u32)],
    gpus: usize,
    n_works: u32,
) -> (Vec<CompletedWork>, GpuManager) {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; gpus],
            hang_timeout: SimTime::from_millis(50),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    m.set_fault_plan(faults);
    m.set_membership_plan(membership);
    m.restore_job(JOB, 1, covered);
    for i in 0..n_works {
        m.submit_for(
            JOB,
            mk_work(i, i % 2 == 0),
            SimTime::from_micros(i as u64 * 40),
        );
    }
    let mut done = m.drain_job(JOB);
    done.sort_by_key(|d| d.tag);
    (done, m)
}

/// Teardown with work still pending is accounted, not leaked: every
/// submitted-but-undrained work lands in the ledger as `parked_abandoned`.
#[test]
fn end_job_accounts_undrained_work_as_abandoned() {
    let mut m = GpuManager::new(0, GpuWorkerConfig::default(), registry());
    m.begin_job(JOB);
    for i in 0..5 {
        m.submit_for(JOB, mk_work(i, false), SimTime::from_micros(i as u64));
    }
    m.end_job(JOB);
    assert_eq!(m.fault_ledger().parked_abandoned, 5);
    // Idempotent: a second close of the gone session adds nothing.
    m.end_job(JOB);
    assert_eq!(m.fault_ledger().parked_abandoned, 5);
}

/// The fabric-level version: a `JobHandle` dropped with submitted works
/// never drained tears its session down with the pen and pending queue
/// accounted in the worker's fault ledger.
#[test]
fn dropped_job_handle_accounts_parked_work() {
    use gflink_core::{FabricConfig, GpuFabric};
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("scale2", |args: &mut KernelArgs<'_, '_>| {
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    {
        let handle = fabric.open_job().expect("admission");
        for i in 0..4 {
            handle.submit_to(0, mk_work(i, false), SimTime::from_micros(i as u64));
        }
        // Dropped here with all four works still pending.
    }
    let ledger = fabric.with_managers(|ms| ms[0].fault_ledger());
    assert_eq!(ledger.parked_abandoned, 4);
}

/// A fault aimed at a device the worker does not have is ignored before
/// anything is charged: the run matches the fault-free run, timeline and
/// bytes, and its ledger stays quiet. A device that joins later is a valid
/// target once it exists.
#[test]
fn fault_on_a_missing_device_is_ignored() {
    use gflink_sim::{FaultKind, MembershipKind};
    let at = SimTime::from_micros(100);
    let plan = FaultPlan::new()
        .with(at, FaultKind::KernelTransient { gpu: 5 })
        .with(at, FaultKind::KernelHang { gpu: 2 })
        .with(
            at,
            FaultKind::GpuDegraded {
                gpu: 3,
                throughput: 0.5,
            },
        )
        .with(at, FaultKind::GpuLost { gpu: 2 });
    let timeline = |done: &[CompletedWork]| {
        done.iter()
            .map(|d| (d.tag, d.gpu, d.stream, d.timing.completed))
            .collect::<Vec<_>>()
    };
    let (clean, _) = run_plan(FaultPlan::new(), 2, 12);
    let (done, m) = run_plan(plan, 2, 12);
    assert_eq!(timeline(&done), timeline(&clean));
    for (a, b) in done.iter().zip(&clean) {
        assert_eq!(a.output.as_slice(), b.output.as_slice());
    }
    assert!(m.fault_ledger().is_quiet(), "{:?}", m.fault_ledger());

    // Once device 2 has joined, a loss aimed at it applies.
    let (done, m) = run_elastic(
        FaultPlan::new().with(SimTime::from_micros(200), FaultKind::GpuLost { gpu: 2 }),
        MembershipPlan::new().with(SimTime::from_micros(50), MembershipKind::Join),
        &[],
        2,
        12,
    );
    assert_eq!(done.len(), 12);
    let ledger = m.fault_ledger();
    assert_eq!((ledger.faults_injected, ledger.gpus_lost), (1, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With ≥1 surviving GPU (which `FaultPlan::random` guarantees), every
    /// work completes and its output bytes equal the fault-free run's.
    #[test]
    fn chaos_completes_byte_identical_to_fault_free(
        seed in any::<u64>(),
        gpus in 2usize..4,
        n_events in 1usize..7,
        n_works in 8u32..28,
    ) {
        let plan = FaultPlan::random(seed, gpus, SimTime::from_millis(40), n_events);
        prop_assert!((plan.gpus_lost() as usize) < gpus, "plan must leave a survivor");
        let (clean, _) = run_plan(FaultPlan::new(), gpus, n_works);
        let (chaotic, m) = run_plan(plan, gpus, n_works);
        prop_assert_eq!(chaotic.len(), n_works as usize);
        prop_assert_eq!(clean.len(), chaotic.len());
        for (a, b) in chaotic.iter().zip(&clean) {
            prop_assert_eq!(a.tag, b.tag);
            prop_assert_eq!(a.output.as_slice(), b.output.as_slice());
        }
        let session = m.session(JOB).unwrap();
        prop_assert!(session.failed().is_empty());
        // Recovery leaks nothing: only cache-resident bytes stay allocated.
        for g in 0..m.gpu_count() {
            prop_assert_eq!(m.gpu(g).dmem.used(), session.region(g).used());
        }
    }

    /// Determinism under chaos: the same seed yields the same placements,
    /// the same completion instants and the same ledger, twice.
    #[test]
    fn chaos_is_deterministic_per_seed(
        seed in any::<u64>(),
        n_events in 1usize..7,
        n_works in 8u32..24,
    ) {
        let timeline = |_| {
            let plan = FaultPlan::random(seed, 2, SimTime::from_millis(40), n_events);
            let (done, m) = run_plan(plan, 2, n_works);
            (
                done.iter()
                    .map(|d| (d.tag, d.gpu, d.stream, d.timing.completed))
                    .collect::<Vec<_>>(),
                m.fault_ledger(),
            )
        };
        prop_assert_eq!(timeline(0), timeline(1));
    }

    /// Elastic chaos: joins, leaves and kills interleaved under one clock.
    /// Every work still completes with output bytes identical to the
    /// fixed-membership fault-free run, every applied change is ledgered,
    /// and devices joined mid-run are real dispatch targets.
    #[test]
    fn elastic_chaos_byte_identical_and_ledgered(
        seed in any::<u64>(),
        gpus in 2usize..4,
        n_faults in 0usize..5,
        n_changes in 1usize..6,
        n_works in 8u32..28,
    ) {
        let h = SimTime::from_millis(40);
        let faults = FaultPlan::random(seed, gpus, h, n_faults);
        let membership = MembershipPlan::random(seed, gpus, h, n_changes);
        let (clean, _) = run_plan(FaultPlan::new(), gpus, n_works);
        let (done, m) = run_elastic(faults, membership.clone(), &[], gpus, n_works);
        prop_assert_eq!(done.len(), n_works as usize);
        for (a, b) in done.iter().zip(&clean) {
            prop_assert_eq!(a.tag, b.tag);
            prop_assert_eq!(a.output.as_slice(), b.output.as_slice());
        }
        let joins = membership.events().iter()
            .filter(|e| matches!(e.kind, gflink_sim::MembershipKind::Join))
            .count() as u64;
        let leaves = membership.events().len() as u64 - joins;
        let ledger = m.fault_ledger();
        prop_assert_eq!(ledger.members_joined, joins);
        // A leave targeting a device the fault plan already killed is a
        // no-op, so the ledger may undercount the script — never over.
        prop_assert!(ledger.members_left <= leaves);
        prop_assert_eq!(m.gpu_count(), gpus + joins as usize);
        // Recovery and rebalancing leak nothing on any device, joined,
        // retired or original.
        let session = m.session(JOB).unwrap();
        prop_assert!(session.failed().is_empty());
        for g in 0..m.gpu_count() {
            prop_assert_eq!(m.gpu(g).dmem.used(), session.region(g).used());
        }
    }

    /// Elastic chaos is deterministic: the same seed replays the same
    /// placements, instants and ledger — joins and leaves included.
    #[test]
    fn elastic_chaos_is_deterministic_per_seed(
        seed in any::<u64>(),
        n_faults in 0usize..5,
        n_changes in 1usize..6,
        n_works in 8u32..24,
    ) {
        let h = SimTime::from_millis(40);
        let timeline = |_| {
            let (done, m) = run_elastic(
                FaultPlan::random(seed, 2, h, n_faults),
                MembershipPlan::random(seed, 2, h, n_changes),
                &[],
                2,
                n_works,
            );
            (
                done.iter()
                    .map(|d| (d.tag, d.gpu, d.stream, d.timing.completed))
                    .collect::<Vec<_>>(),
                m.fault_ledger(),
            )
        };
        prop_assert_eq!(timeline(0), timeline(1));
    }

    /// Exactly-once across a restore boundary, under chaos: submissions
    /// whose tags a snapshot covers are satisfied from it (never executed),
    /// everything else executes once, and the double entry
    /// `works_restored + completions == works submitted` balances.
    #[test]
    fn restore_covers_each_tag_exactly_once(
        seed in any::<u64>(),
        n_faults in 0usize..5,
        n_works in 8u32..24,
        covered_stride in 2u32..5,
    ) {
        let covered: Vec<(u32, u32)> =
            (0..n_works).filter(|i| i % covered_stride == 0).map(|i| (0, i)).collect();
        let (done, m) = run_elastic(
            FaultPlan::random(seed, 2, SimTime::from_millis(40), n_faults),
            MembershipPlan::new(),
            &covered,
            2,
            n_works,
        );
        let ledger = m.fault_ledger();
        prop_assert_eq!(ledger.works_restored, covered.len() as u64);
        prop_assert_eq!(done.len() as u64 + ledger.works_restored, n_works as u64);
        for d in &done {
            prop_assert!(!covered.contains(&d.tag), "covered tag {:?} executed", d.tag);
        }
        let session = m.session(JOB).unwrap();
        prop_assert!(session.failed().is_empty());
        prop_assert!(session.covered_tags().is_empty(), "every covered tag consumed");
    }

    /// A fault-free chaos harness run is also identical to a run with no
    /// plan at all: fault machinery must cost nothing when quiet.
    #[test]
    fn empty_plan_changes_nothing(n_works in 4u32..20) {
        let (a, ma) = run_plan(FaultPlan::new(), 2, n_works);
        let (b, mb) = run_plan(FaultPlan::random(1, 2, SimTime::from_millis(40), 0), 2, n_works);
        let key = |d: &CompletedWork| (d.tag, d.gpu, d.stream, d.timing.completed);
        prop_assert_eq!(a.iter().map(key).collect::<Vec<_>>(), b.iter().map(key).collect::<Vec<_>>());
        prop_assert!(ma.fault_ledger().is_quiet());
        prop_assert!(mb.fault_ledger().is_quiet());
    }
}
