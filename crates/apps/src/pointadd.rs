//! PointAdd: the paper's running microbenchmark (Algorithm 3.1, Figs. 8b/8c).
//!
//! The `addPoint` kernel translates every 2-D point by a constant — almost
//! no arithmetic, so its GPU time is transfer-dominated. The paper uses it
//! to show that GMapper speedup depends on arithmetic intensity (Fig. 8b:
//! PointAdd's mapper speedup is the lowest of the three kernels).

use crate::common::{AppRun, ExecMode, Setup};
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec};
use gflink_flink::{DataSet, FlinkEnv, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRow, RecordReader, RecordView};
use gflink_sim::SimTime;

/// Default generator seed.
pub const POINTADD_SEED: u64 = 0x50_4F49_4E54;

/// Bytes of one point at paper scale.
pub const POINT_BYTES: f64 = 8.0;

gstruct! {
    /// The paper's `Point` (two floats here; the §3.5.1 listing mixes widths to
    /// demonstrate padding, which `gflink-memory`'s tests cover).
    #[derive(Clone, Debug, PartialEq)]
    pub struct Point2: Align8 {
        /// X coordinate.
        pub x: f32,
        /// Y coordinate.
        pub y: f32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Points at paper scale.
    pub n_logical: u64,
    /// Points actually materialized.
    pub n_actual: usize,
    /// Repeated passes (Algorithm 3.1's `iTimes`).
    pub iterations: usize,
    /// Data parallelism.
    pub parallelism: usize,
    /// Translation applied per pass.
    pub delta: (f32, f32),
}

impl Params {
    /// A default microbenchmark workload.
    pub fn standard(setup: &Setup) -> Params {
        Params {
            n_logical: 100_000_000,
            n_actual: 20_000,
            iterations: 5,
            parallelism: setup.default_parallelism(),
            delta: (1.0, -0.5),
        }
    }
}

/// Register the `cudaAddPoint` kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_elementwise_kernel("cudaAddPoint", add_point_kernel);
}

/// The kernel body: each point is read once, translated in `f64` (the
/// launch parameters' precision) and written back once, row by row at the
/// record's compile-time offsets.
fn add_point_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let (dx, dy) = (args.params[0], args.params[1]);
    let reader = RecordReader::new(args.inputs[0], Point2::def(), DataLayout::Aos, n);
    let mut view = RecordView::new(args.outputs[0], Point2::def(), DataLayout::Aos, n);
    for (src, dst) in reader.rows_of::<Point2>().zip(view.rows_of_mut::<Point2>()) {
        let p = Point2::load_row(src);
        Point2 {
            x: (p.x as f64 + dx) as f32,
            y: (p.y as f64 + dy) as f32,
        }
        .store_row(dst);
    }
    KernelProfile::new(
        args.n_logical as f64 * 2.0,
        args.n_logical as f64 * POINT_BYTES * 2.0,
    )
}

fn read_points(env: &FlinkEnv, params: &Params) -> DataSet<Point2> {
    env.read_hdfs(
        "points",
        "/input/pointadd",
        params.n_logical,
        params.n_actual,
        POINT_BYTES,
        params.parallelism,
        |i| Point2 {
            x: (i % 1000) as f32,
            y: -((i % 777) as f32),
        },
    )
}

fn digest(points: &[Point2]) -> f64 {
    points.iter().map(|p| (p.x + p.y) as f64).sum()
}

/// Per-point CPU cost (two adds over 16 bytes of traffic).
pub fn cpu_add_cost() -> OpCost {
    OpCost::new(2.0, POINT_BYTES * 2.0)
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "pointadd-cpu", at);
    let mut ds = read_points(&env, params);
    let (dx, dy) = params.delta;
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    for _ in 0..params.iterations {
        ds = ds.map("addPoint", cpu_add_cost(), move |p| Point2 {
            x: p.x + dx,
            y: p.y + dy,
        });
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    let got = ds.collect("points", POINT_BYTES);
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&got),
        per_iteration,
    }
}

/// Run on GFlink (Algorithm 3.1's driver).
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "pointadd-gpu", at);
    let ds = read_points(&genv.flink, params);
    let mut gds: GDataSet<Point2> = genv.to_gdst(ds, DataLayout::Aos);
    let (dx, dy) = params.delta;
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = genv.flink.frontier();
    for _ in 0..params.iterations {
        let spec = GpuMapSpec::new("cudaAddPoint")
            .with_params(vec![dx as f64, dy as f64])
            .build(&setup.fabric)
            .expect("pointadd spec");
        gds = gds.gpu_map_partition("addPoint", &spec);
        per_iteration.push(genv.flink.frontier() - last);
        last = genv.flink.frontier();
    }
    let got = gds.inner().collect("points", POINT_BYTES);
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&got),
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;
    use gflink_memory::HBuffer;

    fn small(setup: &Setup) -> Params {
        Params {
            n_logical: 5_000_000,
            n_actual: 2_000,
            iterations: 3,
            parallelism: setup.default_parallelism(),
            delta: (1.0, 2.0),
        }
    }

    #[test]
    fn cpu_and_gpu_agree() {
        let s1 = Setup::standard(1);
        let cpu = run_cpu(&s1, &small(&s1));
        let s2 = Setup::standard(1);
        let gpu = run_gpu(&s2, &small(&s2));
        assert!(
            digests_match(cpu.digest, gpu.digest, 1e-4),
            "{} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    /// The per-element accessor kernel the decode-once kernel replaced:
    /// the reference it must match bit for bit.
    fn oracle_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = Point2::def();
        let n = args.n_actual;
        let (dx, dy) = (args.params[0], args.params[1]);
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut view = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        for i in 0..n {
            view.set_f64(i, 0, 0, reader.get_f64(i, 0, 0) + dx);
            view.set_f64(i, 1, 0, reader.get_f64(i, 1, 0) + dy);
        }
        KernelProfile::new(
            args.n_logical as f64 * 2.0,
            args.n_logical as f64 * POINT_BYTES * 2.0,
        )
    }

    #[test]
    fn decode_once_kernel_matches_accessor_oracle_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9A11);
        // Any finite f32 bit pattern: subnormals, huge magnitudes, -0.0.
        let mut finite = || loop {
            let v = f32::from_bits(rng.next_u32());
            if v.is_finite() {
                return v;
            }
        };
        for (n, dx, dy) in [
            (0, 1.0, -0.5),
            (1, 0.1, 1e-9),
            (2, -3.3e5, 0.7),
            (513, 1e30, -0.3),
        ] {
            let points: Vec<Point2> = (0..n)
                .map(|_| Point2 {
                    x: finite(),
                    y: finite(),
                })
                .collect();
            let mut block = HBuffer::zeroed(n * Point2::def().size());
            let mut view = RecordView::new(&mut block, Point2::def(), DataLayout::Aos, n);
            for (i, p) in points.iter().enumerate() {
                p.store(&mut view, i);
            }
            let run = |kernel: fn(&mut KernelArgs<'_, '_>) -> KernelProfile| {
                let mut out = HBuffer::zeroed(block.len());
                let profile = kernel(&mut KernelArgs {
                    inputs: &[&block],
                    outputs: &mut [&mut out],
                    params: &[dx, dy],
                    n_actual: n,
                    n_logical: n as u64 * 5000 + 3,
                });
                (out, profile)
            };
            assert_eq!(run(add_point_kernel), run(oracle_kernel), "n = {n}");
        }
    }

    #[test]
    fn translation_applied_each_pass() {
        let s = Setup::standard(1);
        let p = Params {
            n_logical: 100,
            n_actual: 100,
            iterations: 2,
            parallelism: 2,
            delta: (1.0, 1.0),
        };
        let base = {
            let s0 = Setup::standard(1);
            let mut p0 = p.clone();
            p0.iterations = 0;
            run_cpu(&s0, &p0).digest
        };
        let run = run_cpu(&s, &p);
        // Each pass adds (1+1) per point; 2 passes over 100 points: +400.
        assert!((run.digest - base - 400.0).abs() < 1e-6);
    }

    #[test]
    fn pointadd_gpu_gains_are_modest() {
        // Fig. 8b: the transfer-bound PointAdd mapper gains far less than
        // KMeans. The end-to-end run should not show a large speedup.
        let s1 = Setup::standard(1);
        let p = Params {
            n_logical: 200_000_000,
            n_actual: 4_000,
            iterations: 3,
            parallelism: s1.default_parallelism(),
            delta: (1.0, 1.0),
        };
        let cpu = run_cpu(&s1, &p);
        let s2 = Setup::standard(1);
        let gpu = run_gpu(&s2, &p);
        let speedup = cpu.total_secs() / gpu.total_secs();
        assert!(
            speedup < super::super::kmeans::K as f64, // loose sanity bound
            "pointadd speedup suspiciously high: {speedup}"
        );
    }
}
