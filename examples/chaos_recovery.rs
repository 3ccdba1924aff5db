//! Chaos engineering against the GPU fabric: device loss, degradation,
//! transient kernel faults and hangs — all scripted, all survived.
//!
//! Act 1 kills one of two GPUs mid-job and shows the survivor absorbing
//! the work (queue drained, cache invalidated, results intact). Act 2
//! kills *every* GPU and shows the job degrading to the modeled CPU
//! execution path instead of aborting. Act 3 runs a seeded random storm
//! and shows the failure ledger on the job report.
//!
//! Run with: `cargo run --release --example chaos_recovery`

use gflink::prelude::*;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

fn fabric() -> GpuFabric {
    let fabric = GpuFabric::new(1, FabricConfig::default());
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

/// Run addPoint over `n` points on a 1-worker, 2-GPU cluster with `plan`
/// scripted against the worker, returning the outputs and the job report.
fn run(plan: FaultPlan, n: usize) -> (Vec<Point>, gflink::flink::JobReport, Vec<usize>) {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = fabric();
    fabric.with_managers(|ms| ms[0].set_fault_plan(plan));
    let env = GflinkEnv::submit(&cluster, &fabric, "chaos", SimTime::ZERO);
    let pts: Vec<Point> = (0..n)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(&fabric)
        .expect("valid spec");
    let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let got = out.inner().collect("get", 8.0);
    let gpus_used = fabric.with_managers(|ms| ms[0].executed_per_gpu().to_vec());
    (
        got,
        env.finish(),
        gpus_used.iter().map(|&c| c as usize).collect(),
    )
}

fn main() {
    let n = 4_000;

    // ---------------------------------------------------------------
    println!("=== Act 1: one of two GPUs dies mid-job ===");
    let (clean, clean_report, _) = run(FaultPlan::new(), n);
    let plan = FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 });
    let (got, report, per_gpu) = run(plan, n);
    assert_eq!(got, clean, "results must match the fault-free run");
    println!("  works per GPU after the loss : {per_gpu:?}");
    println!("  faults ledger                : {:?}", report.faults);
    println!(
        "  makespan  fault-free {} -> with loss {}",
        clean_report.total, report.total
    );

    // ---------------------------------------------------------------
    println!("\n=== Act 2: every GPU dies — CPU fallback ===");
    let plan = FaultPlan::new()
        .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 0 })
        .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 1 });
    let (got, report, per_gpu) = run(plan, n);
    assert_eq!(got, clean, "CPU fallback must compute the same bytes");
    assert_eq!(per_gpu, vec![0, 0], "no GPU executed anything");
    println!(
        "  CPU fallbacks taken          : {}",
        report.faults.cpu_fallbacks
    );
    println!(
        "  makespan  fault-free {} -> all-CPU {}",
        clean_report.total, report.total
    );
    let _ = CPU_FALLBACK_GPU; // completions carry this marker as their `gpu`

    // ---------------------------------------------------------------
    println!("\n=== Act 3: a seeded random fault storm ===");
    for seed in [7u64, 8, 9] {
        let plan = FaultPlan::random(seed, 2, SimTime::from_millis(20), 6);
        let (got, report, _) = run(plan, n);
        assert_eq!(got, clean, "storm seed {seed} must not corrupt results");
        let f = report.faults;
        println!(
            "  seed {seed}: injected {} | lost {} | degraded {} | transients {} | hangs {} | \
             retries {} | drained {} | invalidated {} (makespan {})",
            f.faults_injected,
            f.gpus_lost,
            f.gpus_degraded,
            f.transient_faults,
            f.hangs_detected,
            f.retries,
            f.steals_on_drain,
            f.cache_invalidations,
            report.total
        );
    }
    println!("\nAll acts survived with byte-identical results.");
}
