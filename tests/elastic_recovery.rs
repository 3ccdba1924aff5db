//! End-to-end checkpoint/restore and elastic membership: a driver crash
//! mid-operator resumes from the last durable HDFS snapshot bit-identically
//! with a balanced double-entry ledger, and chaos schedules interleaving
//! joins, leaves, kills and checkpoints never change results.

use gflink::core::{CpuFallback, OutMode};
use gflink::prelude::*;
use proptest::prelude::*;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

const N: usize = 4_000;
/// The operator's GPU phase spans roughly 1.260s..1.271s of simulated time
/// (upstream parallelize costs ~1.2s of driver work); crash instants inside
/// this window leave some blocks completed and some lost.
const PHASE_START_US: u64 = 1_255_000;
const PHASE_SPAN_US: u64 = 18_000;

fn fabric_cfg(interval: SimTime, fallback: bool) -> FabricConfig {
    let mut cfg = FabricConfig {
        block_bytes: 256 * 1024,
        checkpoint: CheckpointConfig::every(interval),
        ..FabricConfig::default()
    };
    cfg.worker.cpu_fallback = CpuFallback {
        enabled: fallback,
        ..CpuFallback::default()
    };
    cfg
}

fn make_fabric(cfg: FabricConfig) -> GpuFabric {
    let fabric = GpuFabric::new(1, cfg);
    fabric.register_kernel("cudaAddPoint", add_point);
    // The same map, declaring its output count as a `Bounded` op must.
    fabric.register_kernel("cudaAddPointEmitted", |args: &mut KernelArgs<'_, '_>| {
        add_point(args).with_emitted(args.n_actual)
    });
    fabric
}

fn add_point(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let def = Point::def();
    let n = args.n_actual;
    let (dx, dy) = (args.params[0], args.params[1]);
    let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
    let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
    for i in 0..n {
        out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + dx);
        out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + dy);
    }
    KernelProfile::new(
        args.n_logical as f64 * 2.0,
        args.n_logical as f64 * 2.0 * def.size() as f64,
    )
}

fn attempt(
    cluster: &SharedCluster,
    fabric: &GpuFabric,
    name: &str,
    faults: FaultPlan,
    membership: MembershipPlan,
) -> (Vec<Point>, JobReport) {
    attempt_with_parallelism(cluster, fabric, name, faults, membership, 4)
}

fn attempt_with_parallelism(
    cluster: &SharedCluster,
    fabric: &GpuFabric,
    name: &str,
    faults: FaultPlan,
    membership: MembershipPlan,
    parallelism: usize,
) -> (Vec<Point>, JobReport) {
    let spec = GpuMapSpec::new("cudaAddPoint");
    attempt_op(cluster, fabric, name, faults, membership, parallelism, spec)
}

fn attempt_op(
    cluster: &SharedCluster,
    fabric: &GpuFabric,
    name: &str,
    faults: FaultPlan,
    membership: MembershipPlan,
    parallelism: usize,
    spec: GpuMapSpec,
) -> (Vec<Point>, JobReport) {
    fabric.with_managers(|ms| ms[0].set_fault_plan(faults));
    fabric.set_membership_plan(0, membership);
    let env = GflinkEnv::submit(cluster, fabric, name, SimTime::ZERO);
    let pts: Vec<Point> = (0..N)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, parallelism, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let spec = spec
        .with_params(vec![1.0, 2.0])
        .build(fabric)
        .expect("valid spec");
    let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let got = out.inner().collect("get", 8.0);
    (got, env.finish())
}

fn clean_reference() -> (Vec<Point>, u64) {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
    let (got, report) = attempt(
        &cluster,
        &fabric,
        "ref",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    let works = report.gpu.as_ref().map(|g| g.works).unwrap_or(0);
    (got, works)
}

fn kill_all_at(t: SimTime) -> FaultPlan {
    FaultPlan::new()
        .with(t, FaultKind::GpuLost { gpu: 0 })
        .with(t, FaultKind::GpuLost { gpu: 1 })
}

/// Crash attempt 1 at `crash_at` (no CPU fallback, so lost works stay
/// lost), then resume attempt 2 on the same cluster under the same job
/// name. Returns attempt 2's results and report.
fn crash_then_resume(
    interval: SimTime,
    crash_at: SimTime,
    membership: MembershipPlan,
) -> (Vec<Point>, JobReport) {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let f1 = make_fabric(fabric_cfg(interval, false));
    let (_, _) = attempt(
        &cluster,
        &f1,
        "elastic",
        kill_all_at(crash_at),
        membership.clone(),
    );
    let f2 = make_fabric(fabric_cfg(interval, false));
    attempt(
        &cluster,
        &f2,
        "elastic",
        FaultPlan::new(),
        MembershipPlan::new(),
    )
}

#[test]
fn resume_from_checkpoint_is_bit_identical_and_balanced() {
    let (clean, total_works) = clean_reference();
    let (resumed, report) = crash_then_resume(
        SimTime::from_millis(1),
        SimTime::from_micros(1_264_000),
        MembershipPlan::new(),
    );
    assert_eq!(resumed, clean, "resumed results must be bit-identical");
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert_eq!(g.restores, 1);
    assert!(g.works_restored > 0, "the snapshot must cover real work");
    assert!(g.works > 0, "the delta past the snapshot must replay");
    // Double entry across the restore boundary: nothing lost, nothing
    // executed twice.
    assert_eq!(g.works_restored + g.works, total_works);
    assert_eq!(report.faults.works_restored, g.works_restored);
    assert_eq!(report.faults.faults_injected, 0, "attempt 2 saw no faults");
    assert_eq!(report.faults.works_failed, 0);
}

/// Snapshot byte identity for a checkpointed batch operator: the crash →
/// resume pair above leaves these exact chain files behind, as `(file,
/// len, crc, epoch)`, and each attempt writes this many snapshots and
/// bytes. The pinned values are the GFCK v2 layout's: any drift in what a
/// segment holds, or in when a chain compacts, shows here.
#[test]
fn checkpointed_operator_snapshots_are_byte_identical() {
    let interval = SimTime::from_millis(1);
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let manifests = || {
        let cl = cluster.lock();
        cl.hdfs
            .list()
            .into_iter()
            .filter(|f| f.starts_with("ckpt/"))
            .map(|f| {
                let m = *cl.hdfs.manifest(&f).expect("snapshot manifest");
                (f, m.len, m.crc, m.epoch)
            })
            .collect::<Vec<_>>()
    };
    let checkpoints = |r: &JobReport| {
        r.gpu
            .as_ref()
            .map_or((0, 0), |g| (g.checkpoints, g.checkpoint_bytes))
    };
    let f1 = make_fabric(fabric_cfg(interval, false));
    let (_, crashed) = attempt(
        &cluster,
        &f1,
        "elastic",
        kill_all_at(SimTime::from_micros(1_264_000)),
        MembershipPlan::new(),
    );
    assert_eq!(checkpoints(&crashed), (4, 24_166));
    assert_eq!(
        manifests(),
        vec![("ckpt/elastic/op0".to_string(), 12_287, 2_229_058_922, 4)]
    );
    let f2 = make_fabric(fabric_cfg(interval, false));
    let (_, resumed) = attempt(
        &cluster,
        &f2,
        "elastic",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    assert_eq!(checkpoints(&resumed), (11, 118_327));
    assert_eq!(
        manifests(),
        vec![("ckpt/elastic/op0".to_string(), 38_801, 3_924_091_430, 15)]
    );
}

/// The differential against the v1 writer for a batch operator. With
/// chain verification on, after every tick of the crash → resume pair the
/// chain folds to exactly the snapshot the v1 writer would have written
/// at that tick: frontier, state bytes, blocks in completion order and
/// cache manifest. And a crash at any tick a clean checkpointed run cuts
/// resumes bit-identically, with a balanced ledger.
#[test]
fn operator_chains_fold_to_the_v1_cut_at_every_tick() {
    let (clean, total_works) = clean_reference();
    let interval = SimTime::from_millis(1);
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let attempts = [
        kill_all_at(SimTime::from_micros(1_264_000)),
        FaultPlan::new(),
    ];
    for (i, faults) in attempts.into_iter().enumerate() {
        let fabric = make_fabric(fabric_cfg(interval, false));
        fabric.with_checkpoints(|c| c.verify_chains());
        let (got, _) = attempt(&cluster, &fabric, "diff", faults, MembershipPlan::new());
        if i == 1 {
            assert_eq!(got, clean);
        }
        let audits = fabric.with_checkpoints(|c| c.take_audits());
        assert!(audits.len() >= 4, "attempt {i}: {audits:?}");
        assert!(
            audits.iter().all(|a| a.written && a.folds_to_cut),
            "attempt {i}: {audits:?}"
        );
    }

    let fabric = make_fabric(fabric_cfg(interval, false));
    fabric.with_checkpoints(|c| c.verify_chains());
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let _ = attempt(
        &cluster,
        &fabric,
        "ticks",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    let mut ticks: Vec<SimTime> = fabric
        .with_checkpoints(|c| c.take_audits())
        .iter()
        .map(|a| a.tick)
        .collect();
    ticks.dedup();
    for tick in ticks {
        let (resumed, report) = crash_then_resume(interval, tick, MembershipPlan::new());
        assert_eq!(resumed, clean, "crash at {tick}");
        let g = report.gpu.as_ref().expect("gpu rollup");
        assert_eq!(g.restores_refused, 0, "crash at {tick}");
        assert_eq!(g.works_restored + g.works, total_works, "crash at {tick}");
    }
}

#[test]
fn faultfree_rerun_restores_everything_from_final_snapshot() {
    let (clean, total_works) = clean_reference();
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let f1 = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
    let (first, _) = attempt(
        &cluster,
        &f1,
        "rerun",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    assert_eq!(first, clean);
    // A relaunched driver re-running the finished operator finds its final
    // full snapshot and executes nothing at all.
    let f2 = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
    let (second, report) = attempt(
        &cluster,
        &f2,
        "rerun",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    assert_eq!(second, clean);
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert_eq!(g.works_restored, total_works);
    assert_eq!(g.works, 0, "a fully covered operator re-executes nothing");
}

#[test]
fn corrupt_snapshot_is_refused_and_job_replays_from_zero() {
    let (clean, total_works) = clean_reference();
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let f1 = make_fabric(fabric_cfg(SimTime::from_millis(1), false));
    let (_, _) = attempt(
        &cluster,
        &f1,
        "corrupt",
        kill_all_at(SimTime::from_micros(1_264_000)),
        MembershipPlan::new(),
    );
    // Rot every snapshot the crashed attempt left behind.
    {
        let mut cl = cluster.lock();
        let files: Vec<String> = cl
            .hdfs
            .list()
            .into_iter()
            .filter(|f| f.starts_with("ckpt/"))
            .collect();
        assert!(!files.is_empty(), "the crashed attempt left snapshots");
        for f in files {
            cl.hdfs.rot(&f).expect("snapshot file rots");
        }
    }
    let f2 = make_fabric(fabric_cfg(SimTime::from_millis(1), false));
    let (resumed, report) = attempt(
        &cluster,
        &f2,
        "corrupt",
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    assert_eq!(resumed, clean, "a refused snapshot still replays correctly");
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert_eq!(g.restores, 0, "a corrupt snapshot must never be restored");
    assert_eq!(g.restores_refused, 1, "the refusal is counted");
    assert_eq!(g.works, total_works, "everything re-executes from zero");
}

#[test]
fn restore_with_another_parallelism_is_refused_and_replays_from_zero() {
    // Another parallelism deals the points out in another order.
    let by_x = |mut pts: Vec<Point>| {
        pts.sort_by(|a, b| a.x.total_cmp(&b.x));
        pts
    };
    let clean = by_x(clean_reference().0);
    for (first_par, second_par) in [(4, 2), (2, 4)] {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let run = |par| {
            let fabric = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
            attempt_with_parallelism(
                &cluster,
                &fabric,
                "reshaped",
                FaultPlan::new(),
                MembershipPlan::new(),
                par,
            )
        };
        let (first, _) = run(first_par);
        assert_eq!(by_x(first), clean);
        // The relaunch under the same name cuts other blocks: the first
        // run's final snapshot is refused, never installed, and every
        // block runs again.
        let (second, report) = run(second_par);
        assert_eq!(by_x(second), clean, "{first_par} -> {second_par}");
        let g = report.gpu.as_ref().expect("gpu rollup");
        assert_eq!(g.restores, 0, "{first_par} -> {second_par}");
        assert_eq!(g.restores_refused, 1, "the refusal is counted");
        assert_eq!(g.works_restored, 0);
        assert!(g.works > 0, "everything re-executes from zero");
    }
}

#[test]
fn restored_block_with_a_bad_emitted_count_is_refused() {
    let (clean, total_works) = clean_reference();
    // `Some(capacity + 1)` claims a row past a per-record block's payload;
    // `None` leaves a bounded block's row count unknown. Both pass the
    // CRC, since the snapshot is written as it is.
    type Bad = fn(usize) -> Option<usize>;
    let cases: [(&str, OutMode, Bad); 2] = [
        ("cudaAddPoint", OutMode::PerRecord, |cap| Some(cap + 1)),
        (
            "cudaAddPointEmitted",
            OutMode::Bounded { per_record: 1 },
            |_| None,
        ),
    ];
    for (kernel, mode, bad) in cases {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let run = || {
            let fabric = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
            let spec = GpuMapSpec::new(kernel).with_out_mode(mode);
            let (got, report) = attempt_op(
                &cluster,
                &fabric,
                "bad-emitted",
                FaultPlan::new(),
                MembershipPlan::new(),
                4,
                spec,
            );
            (got, report, fabric)
        };
        let (first, _, fabric) = run();
        assert_eq!(first, clean, "{mode:?}");
        {
            let mut cl = cluster.lock();
            fabric.with_checkpoints(|ck| {
                let mut snap = ck
                    .read(&mut cl.hdfs, 0, "bad-emitted", 0, SimTime::ZERO)
                    .expect("an intact chain")
                    .expect("the final snapshot")
                    .snapshot;
                let blk = &mut snap.blocks[0];
                blk.emitted = bad(blk.payload.len() / Point::def().size());
                let at = SimTime::from_secs(10);
                let token = ck.write(&mut cl.hdfs, 0, "bad-emitted", &snap, at);
                let covered = snap.blocks.len();
                assert_eq!(token.expect("the snapshot is written").covered, covered);
            });
        }
        let (second, report, _) = run();
        assert_eq!(second, clean, "a refused snapshot still replays correctly");
        let g = report.gpu.as_ref().expect("gpu rollup");
        assert_eq!(g.restores, 0, "{mode:?}");
        assert_eq!(g.restores_refused, 1, "the refusal is counted");
        assert_eq!(g.works, total_works, "everything re-executes from zero");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos: a random crash instant, checkpoint cadence and membership
    /// schedule (joins and leaves interleaved with the kills) — the resumed
    /// attempt is always bit-identical and the double entry always
    /// balances.
    #[test]
    fn chaos_resume_always_bit_identical(
        seed in any::<u64>(),
        crash_off in 0u64..PHASE_SPAN_US,
        interval_ms in 1u64..5,
        n_changes in 0usize..4,
    ) {
        let (clean, total_works) = clean_reference();
        let crash_at = SimTime::from_micros(PHASE_START_US + crash_off);
        let membership = MembershipPlan::random(
            seed,
            2,
            SimTime::from_micros(PHASE_START_US + PHASE_SPAN_US),
            n_changes,
        );
        let (resumed, report) =
            crash_then_resume(SimTime::from_millis(interval_ms), crash_at, membership);
        prop_assert_eq!(resumed, clean);
        let g = report.gpu.as_ref().expect("gpu rollup");
        prop_assert_eq!(g.works_restored + g.works, total_works);
        prop_assert_eq!(report.faults.works_failed, 0);
    }

    /// Elastic membership alone (no faults): any random join/leave
    /// schedule leaves results bit-identical to fixed membership, and
    /// every applied change is ledgered as membership, not as a fault.
    #[test]
    fn chaos_membership_never_changes_results(
        seed in any::<u64>(),
        n_changes in 1usize..5,
    ) {
        let (clean, _) = clean_reference();
        let membership = MembershipPlan::random(
            seed,
            2,
            SimTime::from_micros(PHASE_START_US + PHASE_SPAN_US),
            n_changes,
        );
        let joins = membership
            .events()
            .iter()
            .filter(|e| matches!(e.kind, MembershipKind::Join))
            .count() as u64;
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let fabric = make_fabric(fabric_cfg(SimTime::from_millis(1), true));
        let (got, report) = attempt(&cluster, &fabric, "members", FaultPlan::new(), membership);
        prop_assert_eq!(got, clean);
        prop_assert_eq!(report.faults.members_joined, joins);
        prop_assert_eq!(report.faults.gpus_lost, 0);
        prop_assert_eq!(report.faults.works_failed, 0);
    }
}
