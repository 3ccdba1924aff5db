//! Checkpointed job state + elastic cluster membership: resume from the
//! last checkpoint, not from zero.
//!
//! Act 1 runs a job that crashes mid-operator (every GPU lost, CPU
//! fallback off), then relaunches it against the same cluster: the second
//! attempt restores the last durable HDFS snapshot, replays only the
//! delta, and produces byte-identical results with a quiet fault ledger.
//! Act 2 sweeps the checkpoint interval and shows recovery replay cost
//! scaling with the work since the last snapshot, not the job size.
//! Act 3 exercises elastic membership: a device joins mid-job and absorbs
//! rebalanced blocks; another gracefully leaves — results unchanged.
//!
//! Run with: `cargo run --release --example elastic_recovery`

use gflink::core::CpuFallback;
use gflink::prelude::*;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

fn fabric_cfg(interval: SimTime) -> FabricConfig {
    let mut cfg = FabricConfig {
        // Small blocks so one operator spans many works — checkpoint
        // coverage becomes a meaningful fraction, not all-or-nothing.
        block_bytes: 256 * 1024,
        checkpoint: CheckpointConfig::every(interval),
        ..FabricConfig::default()
    };
    // A crash must crash: no CPU fallback absorbing lost works.
    cfg.worker.cpu_fallback = CpuFallback {
        enabled: false,
        ..CpuFallback::default()
    };
    cfg
}

fn make_fabric(cfg: FabricConfig) -> GpuFabric {
    let fabric = GpuFabric::new(1, cfg);
    fabric.register_kernel("cudaAddPoint", |args: &mut KernelArgs<'_, '_>| {
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
    });
    fabric
}

fn points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect()
}

/// One attempt of the addPoint job named `name` on `cluster` through
/// `fabric`, with optional scripted faults and membership changes.
fn attempt(
    cluster: &SharedCluster,
    fabric: &GpuFabric,
    name: &str,
    n: usize,
    faults: FaultPlan,
    membership: MembershipPlan,
) -> (Vec<Point>, JobReport) {
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(faults);
    });
    fabric.set_membership_plan(0, membership);
    let env = GflinkEnv::submit(cluster, fabric, name, SimTime::ZERO);
    let ds = env.flink.parallelize("pts", points(n), 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(fabric)
        .expect("valid spec");
    let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let got = out.inner().collect("get", 8.0);
    (got, env.finish())
}

fn kill_all_at(t: SimTime) -> FaultPlan {
    FaultPlan::new()
        .with(t, FaultKind::GpuLost { gpu: 0 })
        .with(t, FaultKind::GpuLost { gpu: 1 })
}

fn main() {
    let n = 4_000;
    // The operator's GPU phase spans roughly 1.260s..1.271s of simulated
    // time (the upstream parallelize costs ~1.2s of driver work); this
    // instant lands mid-phase, after some blocks completed and with many
    // still queued or in flight.
    let crash_at = SimTime::from_micros(1_264_000);

    // Fault-free reference on its own cluster: the digests every other
    // run must reproduce bit-identically.
    let ref_cluster = SharedCluster::new(ClusterConfig::standard(1));
    let ref_fabric = make_fabric(fabric_cfg(SimTime::from_millis(1)));
    let (clean, clean_report) = attempt(
        &ref_cluster,
        &ref_fabric,
        "elastic",
        n,
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    let total_works = clean_report.gpu.as_ref().map(|g| g.works).unwrap_or(0);

    // ---------------------------------------------------------------
    println!("=== Act 1: crash mid-operator, resume from the last checkpoint ===");
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric1 = make_fabric(fabric_cfg(SimTime::from_millis(1)));
    let (_, crash_report) = attempt(
        &cluster,
        &fabric1,
        "elastic",
        n,
        kill_all_at(crash_at),
        MembershipPlan::new(),
    );
    let crashed = crash_report.faults.works_failed;
    assert!(crashed > 0, "the crash run must lose works permanently");
    let written = crash_report
        .gpu
        .as_ref()
        .map(|g| g.checkpoints)
        .unwrap_or(0);
    println!("  attempt 1: {crashed} works lost to the crash, {written} snapshots written");
    // Phase boundary: the post-crash health view — both devices lost, the
    // ledger carrying the fault history the resume must recover from.
    print!("{}", fabric1.cluster_snapshot(crash_report.finished_at));

    // Relaunch against the SAME cluster (same durable HDFS) under the
    // same job name: the new fabric finds the snapshot and resumes.
    let fabric2 = make_fabric(fabric_cfg(SimTime::from_millis(1)));
    let (resumed, resume_report) = attempt(
        &cluster,
        &fabric2,
        "elastic",
        n,
        FaultPlan::new(),
        MembershipPlan::new(),
    );
    assert_eq!(resumed, clean, "resumed results must be bit-identical");
    let r = resume_report.gpu.as_ref().expect("gpu rollup");
    assert_eq!(r.restores, 1, "exactly one snapshot restored");
    assert!(r.works_restored > 0, "the snapshot must cover real work");
    // The exactly-once double entry: every one of the operator's works was
    // either satisfied from the snapshot or executed — none lost, none run
    // twice.
    assert_eq!(
        r.works_restored + r.works,
        total_works,
        "restored + executed must equal the operator's total works"
    );
    // Quiet ledger: the resumed attempt absorbed no faults.
    assert_eq!(resume_report.faults.faults_injected, 0);
    assert_eq!(resume_report.faults.works_failed, 0);
    assert_eq!(resume_report.faults.works_restored, r.works_restored);
    println!(
        "  attempt 2: restored {} of {} works from the snapshot, replayed {} \
         (replay delta {})",
        r.works_restored,
        total_works,
        r.works,
        r.recovery_delta.sum()
    );
    println!(
        "  makespan: clean {} | resumed {}",
        clean_report.total, resume_report.total
    );

    // ---------------------------------------------------------------
    println!("\n=== Act 2: replay cost scales with the checkpoint interval ===");
    let mut restored_by_interval = Vec::new();
    for ms in [1u64, 2, 8] {
        let interval = SimTime::from_millis(ms);
        let cl = SharedCluster::new(ClusterConfig::standard(1));
        let f1 = make_fabric(fabric_cfg(interval));
        let (_, rep1) = attempt(
            &cl,
            &f1,
            "elastic",
            n,
            kill_all_at(crash_at),
            MembershipPlan::new(),
        );
        let f2 = make_fabric(fabric_cfg(interval));
        let (got, rep2) = attempt(
            &cl,
            &f2,
            "elastic",
            n,
            FaultPlan::new(),
            MembershipPlan::new(),
        );
        assert_eq!(got, clean, "interval {ms}ms must not change results");
        let g = rep2.gpu.as_ref().expect("gpu rollup");
        restored_by_interval.push(g.works_restored);
        println!(
            "  interval {ms:>2} ms: {:>2} snapshots in attempt 1, restored {:>3}/{total_works} \
             works, replay delta {}",
            rep1.gpu.as_ref().map(|g| g.checkpoints).unwrap_or(0),
            g.works_restored,
            g.recovery_delta.sum()
        );
    }
    assert!(
        restored_by_interval.windows(2).all(|w| w[0] >= w[1]),
        "finer checkpoint intervals must never cover less work: {restored_by_interval:?}"
    );

    // ---------------------------------------------------------------
    println!("\n=== Act 3: elastic membership — join and leave mid-job ===");
    let cl = SharedCluster::new(ClusterConfig::standard(1));
    let f = make_fabric(fabric_cfg(SimTime::from_millis(1)));
    let join_at = SimTime::from_micros(1_263_000);
    let plan = MembershipPlan::new().with(join_at, MembershipKind::Join);
    let (got, rep) = attempt(&cl, &f, "elastic-join", n, FaultPlan::new(), plan);
    assert_eq!(got, clean, "a joining node must not change results");
    assert_eq!(rep.faults.members_joined, 1);
    let per_gpu = f.with_managers(|ms| ms[0].executed_per_gpu().to_vec());
    assert_eq!(per_gpu.len(), 3, "the worker grew from 2 to 3 devices");
    assert!(
        per_gpu[2] > 0,
        "the joined device must pick up rebalanced blocks: {per_gpu:?}"
    );
    println!("  join : works per GPU {per_gpu:?} (device 2 joined at {join_at})");
    // Phase boundary: the post-join health view carries the grown
    // membership — three device lanes, the joined one with real work.
    print!("{}", f.cluster_snapshot(rep.finished_at));

    let cl = SharedCluster::new(ClusterConfig::standard(1));
    let f = make_fabric(fabric_cfg(SimTime::from_millis(1)));
    let leave_at = SimTime::from_micros(1_263_000);
    let plan = MembershipPlan::new().with(leave_at, MembershipKind::Leave { gpu: 1 });
    let (got, rep) = attempt(&cl, &f, "elastic-leave", n, FaultPlan::new(), plan);
    assert_eq!(got, clean, "a leaving node must not change results");
    assert_eq!(rep.faults.members_left, 1);
    assert_eq!(
        rep.faults.gpus_lost, 0,
        "a graceful leave is not a device loss"
    );
    let per_gpu = f.with_managers(|ms| ms[0].executed_per_gpu().to_vec());
    println!("  leave: works per GPU {per_gpu:?} (device 1 retired at {leave_at})");

    println!("\nAll acts: resume, sweep, and membership — byte-identical results throughout.");
}
