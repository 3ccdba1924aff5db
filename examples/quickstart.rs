//! Quickstart: the paper's Algorithm 3.1, end to end.
//!
//! Declares a GStruct-backed `Point` with `gstruct!` (the analogue of the
//! paper's `extends GStruct_8` + `@StructField`), registers the
//! `cudaAddPoint` kernel, builds a GDST from an HDFS source and runs
//! `gpuMapPartition` over it — then runs the same program on the CPU
//! baseline and compares.
//!
//! Run with: `cargo run --release --example quickstart`

use gflink::prelude::*;

/// The quickstart kernel, shared by the default and hybrid fabrics.
fn register_add_point(fabric: &GpuFabric) {
    fabric.register_elementwise_kernel("cudaAddPoint", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let (dx, dy) = (args.params[0], args.params[1]);
        let input = RecordReader::new(args.inputs[0], Point::def(), DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], Point::def(), DataLayout::Aos, n);
        // Fields are addressed by their typed keys, as `points[i].x` is in
        // the CUDA kernel.
        for i in 0..n {
            let ([x], [y]) = (input.get_field(i, Point::x), input.get_field(i, Point::y));
            out.set_field(i, Point::x, [(x as f64 + dx) as f32]);
            out.set_field(i, Point::y, [(y as f64 + dy) as f32]);
        }
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 16.0)
    });
}

gstruct! {
    /// The paper's §3.5.1 `Point`, as a GStruct-backed record.
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

fn main() {
    // A 2-worker cluster: 4 CPU slots + two Tesla C2050s per worker.
    let cluster = SharedCluster::new(ClusterConfig::standard(2));
    let fabric = GpuFabric::new(2, FabricConfig::default());

    // Provide the CUDA kernel (a Rust closure standing in for addPoint.ptx).
    register_add_point(&fabric);

    // ---- GFlink driver (Algorithm 3.1) ----
    let genv = GflinkEnv::submit(&cluster, &fabric, "quickstart-gpu", SimTime::ZERO);
    let points = genv.flink.read_hdfs(
        "points",
        "/input/points",
        50_000_000, // 50M points at paper scale
        10_000,     // materialized sample driving real computation
        8.0,
        8,
        |i| Point {
            x: (i % 97) as f32,
            y: 0.0,
        },
    );
    let gdst: GDataSet<Point> = genv.to_gdst(points, DataLayout::Aos);
    // `build` validates the spec against the fabric up front (registered
    // kernel, sane extra-input accounting) instead of failing per-block.
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(&fabric)
        .expect("valid spec");
    let moved = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let sample = moved.inner().collect("sample", 8.0);
    let gpu_report = genv.finish();

    // ---- the same program on the original (CPU) Flink ----
    let cluster2 = SharedCluster::new(ClusterConfig::standard(2));
    let env = FlinkEnv::submit(&cluster2, "quickstart-cpu", SimTime::ZERO);
    let points = env.read_hdfs("points", "/input/points", 50_000_000, 10_000, 8.0, 8, |i| {
        Point {
            x: (i % 97) as f32,
            y: 0.0,
        }
    });
    let moved_cpu = points.map("addPoint", OpCost::new(2.0, 16.0), |p| Point {
        x: p.x + 1.0,
        y: p.y + 2.0,
    });
    let sample_cpu = moved_cpu.collect("sample", 8.0);
    let cpu_report = env.finish();

    assert_eq!(sample, sample_cpu, "engines disagree!");
    println!("first five results: {:?}", &sample[..5]);
    println!("Flink:  {}   (simulated, 2 workers)", cpu_report.total);
    println!(
        "GFlink: {}   (simulated, 2 workers x 2 C2050)",
        gpu_report.total
    );
    println!(
        "speedup: {:.2}x",
        cpu_report.total.as_secs_f64() / gpu_report.total.as_secs_f64()
    );
    println!("\nGFlink phase ledger (Eq. 1):\n{}", gpu_report.acct);
    // The per-job GPU rollup: stage histograms, cache hit rate, bytes per
    // channel and per-device lanes, folded into the JobReport.
    let gpu = gpu_report.gpu.as_ref().expect("GPU job carries a rollup");
    println!("{gpu}");
    // The transfer-channel counters (§4.1.2): H2D misses stage through the
    // pinned pool; fused batches only form under backlog, so an uncontended
    // quickstart run typically reports zero.
    println!(
        "transfer channel: pinned pool {:.0}% hit rate ({} hits / {} misses), \
         {} fused batches (mean {:.1} works/batch)",
        gpu.pinned_hit_rate() * 100.0,
        gpu.pinned_hits,
        gpu.pinned_misses,
        gpu.batches,
        gpu.mean_batch_size(),
    );

    // ---- the same program under hybrid CPU+GPU placement ----
    // addPoint is transfer-bound (2 flops per 16 bytes), so the online
    // cost model routes blocks to the host CPU pool when PCIe would cost
    // more than just computing in place — same results, less wall clock.
    let cluster3 = SharedCluster::new(ClusterConfig::standard(2));
    let fabric3 = GpuFabric::new(
        2,
        FabricConfig {
            worker: GpuWorkerConfig {
                scheduling: SchedulingPolicy::HybridCostModel,
                ..GpuWorkerConfig::default()
            },
            ..FabricConfig::default()
        },
    );
    register_add_point(&fabric3);
    let henv = GflinkEnv::submit(&cluster3, &fabric3, "quickstart-hybrid", SimTime::ZERO);
    let points = henv
        .flink
        .read_hdfs("points", "/input/points", 50_000_000, 10_000, 8.0, 8, |i| {
            Point {
                x: (i % 97) as f32,
                y: 0.0,
            }
        });
    let gdst: GDataSet<Point> = henv.to_gdst(points, DataLayout::Aos);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(&fabric3)
        .expect("valid spec");
    let moved = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let sample_hybrid = moved.inner().collect("sample", 8.0);
    let hybrid_report = henv.finish();
    assert_eq!(sample, sample_hybrid, "hybrid placement changed results!");
    let hgpu = hybrid_report.gpu.as_ref().expect("hybrid rollup");
    println!(
        "\nHybrid: {}   ({:.2}x vs GPU-only; {} works on gpu / {} on cpu / {} split)",
        hybrid_report.total,
        gpu_report.total.as_secs_f64() / hybrid_report.total.as_secs_f64(),
        hgpu.hybrid_gpu,
        hgpu.hybrid_cpu,
        hgpu.hybrid_splits,
    );
    println!("{hgpu}");
}
