//! KMeans clustering (HiBench workload; Figs. 5a, 7a, 7c, 8b).
//!
//! `k = 10` centers in `d = 20` dimensions (HiBench's defaults of the
//! paper's era), 150–270 M points, 10 iterations. Each iteration assigns
//! every point to its nearest center (`3·k·d` flops/point — the
//! compute-bound part the GPU accelerates) and rebuilds the centers from
//! per-partition (CPU) or per-block (GPU) partial sums. The points are
//! cached in GPU memory after the first iteration, so later GFlink
//! iterations pay no H2D for them (§6.6.1).

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::clustered_point;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, OutMode};
use gflink_flink::{DataSet, FlinkEnv, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, HBuffer, Prim, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::sync::Arc;

/// Feature dimensionality.
pub const D: usize = 16;
/// Number of clusters.
pub const K: usize = 8;

/// Bytes of one point at paper scale.
pub const POINT_BYTES: f64 = (D * 4) as f64;

gstruct! {
    /// A KMeans input point.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Point: Align8 {
        /// Feature vector.
        pub coords: [f32; D],
    }
}

gstruct! {
    /// A partial centroid update: per-center coordinate sums and point count.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Partial: Align8 {
        /// Center index this partial belongs to.
        pub center: u32,
        /// Points assigned.
        pub count: u32,
        /// Coordinate sums.
        pub sums: [f32; D],
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Points at paper scale.
    pub n_logical: u64,
    /// Points actually materialized.
    pub n_actual: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// Data parallelism (task slots used).
    pub parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// A Table 1 size: `millions` of points (150–270 in the paper) on the
    /// given setup, with the standard 1:2000 materialization scale.
    pub fn paper(millions: u64, setup: &Setup) -> Params {
        Params {
            n_logical: millions * 1_000_000,
            n_actual: ((millions * 500) as usize).max(1000),
            iterations: 10,
            parallelism: setup.default_parallelism(),
            seed: KMEANS_SEED,
        }
    }
}

/// Default generator seed ("KMEANS" in hex).
pub const KMEANS_SEED: u64 = 0x4B4D_4541_4E53;

/// Register the KMeans kernel (`cudaKmeansAssign`) with the fabric.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaKmeansAssign", kmeans_assign_kernel);
}

/// The centers widened to `f64` once, stored dimension-major so one step
/// over a dimension advances all `K` running distances together.
struct Centers([[f64; K]; D]);

impl Centers {
    fn new(centers: &[[f32; D]; K]) -> Centers {
        Centers(std::array::from_fn(|d| {
            std::array::from_fn(|c| centers[c][d] as f64)
        }))
    }

    /// Decode the kernel's `k·d` f32 side input.
    fn from_buffer(buf: &HBuffer) -> Centers {
        let bytes = &buf.as_slice()[..K * D * 4];
        Centers(std::array::from_fn(|d| {
            std::array::from_fn(|c| f32::read_le(&bytes[(c * D + d) * 4..]) as f64)
        }))
    }
}

/// Per-center coordinate sums and counts over one block or partition: the
/// single assignment loop the CPU engine and the GPU kernel share.
struct Assignment {
    sums: [[f64; D]; K],
    counts: [u32; K],
}

impl Assignment {
    fn new() -> Assignment {
        Assignment {
            sums: [[0.0; D]; K],
            counts: [0; K],
        }
    }

    /// Fold `point` into its nearest center, the lowest index winning a
    /// tie. Each squared distance sums its dimensions in order, so the
    /// result does not depend on how the loops over centers are arranged.
    #[inline]
    fn add(&mut self, point: &[f32; D], centers: &Centers) {
        let p = point.map(f64::from);
        let mut d2 = [0.0f64; K];
        for (pd, cd) in p.iter().zip(&centers.0) {
            for (acc, cc) in d2.iter_mut().zip(cd) {
                let diff = pd - cc;
                *acc += diff * diff;
            }
        }
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        for (c, &v) in d2.iter().enumerate() {
            if v < best_d2 {
                best_d2 = v;
                best = c;
            }
        }
        self.counts[best] += 1;
        for (s, v) in self.sums[best].iter_mut().zip(p) {
            *s += v;
        }
    }

    fn partial(&self, c: usize) -> Partial {
        Partial {
            center: c as u32,
            count: self.counts[c],
            sums: self.sums[c].map(|v| v as f32),
        }
    }
}

/// The GPU kernel: nearest-center assignment with per-block partial sums.
/// Inputs: `[points block (cached), centers (k·d f32)]`; output: `K`
/// [`Partial`] records.
fn kmeans_assign_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], Point::def(), DataLayout::Aos, n);
    let centers = Centers::from_buffer(args.inputs[1]);
    let mut acc = Assignment::new();
    let coords = reader.field(Point::coords);
    for row in reader.rows() {
        acc.add(&coords.read(row), &centers);
    }
    let mut view = RecordView::new(args.outputs[0], Partial::def(), DataLayout::Aos, K);
    let center = view.field(Partial::center);
    let (count, sums) = (view.field(Partial::count), view.field(Partial::sums));
    for (c, row) in view.rows_mut().enumerate() {
        let p = acc.partial(c);
        center.write(row, [p.center]);
        count.write(row, [p.count]);
        sums.write(row, p.sums);
    }
    KernelProfile::new(
        args.n_logical as f64 * (3 * K * D) as f64,
        args.n_logical as f64 * POINT_BYTES,
    )
}

/// CPU-side assignment over one partition (the baseline's mapPartition).
fn cpu_assign(points: &[Point], centers: &[[f32; D]; K]) -> Vec<Partial> {
    let centers = Centers::new(centers);
    let mut acc = Assignment::new();
    for p in points {
        acc.add(&p.coords, &centers);
    }
    (0..K).map(|c| acc.partial(c)).collect()
}

/// Fold partials (from any granularity) into fresh centers.
fn update_centers(partials: &[Partial], centers: &mut [[f32; D]; K]) {
    let mut sums = vec![[0.0f64; D]; K];
    let mut counts = [0u64; K];
    for p in partials {
        let c = p.center as usize;
        counts[c] += p.count as u64;
        for d in 0..D {
            sums[c][d] += p.sums[d] as f64;
        }
    }
    for c in 0..K {
        if counts[c] > 0 {
            for d in 0..D {
                centers[c][d] = (sums[c][d] / counts[c] as f64) as f32;
            }
        }
    }
}

fn initial_centers(seed: u64) -> [[f32; D]; K] {
    std::array::from_fn(|c| clustered_point::<D>(seed, c as u64, K))
}

fn read_points(env: &FlinkEnv, params: &Params) -> DataSet<Point> {
    let seed = params.seed;
    env.read_hdfs(
        "kmeans-points",
        "/input/kmeans",
        params.n_logical,
        params.n_actual,
        POINT_BYTES,
        params.parallelism,
        move |i| Point {
            coords: clustered_point::<D>(seed, i, K),
        },
    )
}

fn digest(centers: &[[f32; D]; K]) -> f64 {
    centers
        .iter()
        .flat_map(|c| c.iter())
        .map(|v| *v as f64)
        .sum()
}

/// The CPU cost of assigning one point: `3·k·d` flops over `d` floats.
///
/// The record-level overhead factor is below 1: HiBench's KMeans keeps its
/// points in primitive `double[]`s, so the per-record dispatch cost is
/// amortized over the k·d-deep inner loop instead of being paid per field.
pub fn cpu_assign_cost() -> OpCost {
    OpCost::new((3 * K * D) as f64, POINT_BYTES).with_overhead_factor(0.5)
}

/// Run KMeans on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run KMeans on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "kmeans-cpu", at);
    let mut points = read_points(&env, params);
    let mut centers = initial_centers(params.seed);
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    for _ in 0..params.iterations {
        let cs = centers;
        let partials = points.map_partition("kmeans-assign", cpu_assign_cost(), 1.0, move |pts| {
            cpu_assign(pts, &cs)
        });
        let got = partials.collect("partials", Partial::def().size() as f64);
        update_centers(&got, &mut centers);
        env.broadcast_bytes((K * D * 4) as u64);
        points.set_min_ready(env.frontier());
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    // Persist the centers.
    let out = env.parallelize("centers", vec![0u8], 1, 1.0);
    out.write_hdfs("save-centers", "/output/kmeans", (K * D * 4) as f64);
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&centers),
        per_iteration,
    }
}

/// Run KMeans on GFlink.
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run KMeans on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "kmeans-gpu", at);
    let points = read_points(&genv.flink, params);
    let mut gpoints: GDataSet<Point> = genv.to_gdst(points, DataLayout::Aos);
    let mut centers = initial_centers(params.seed);
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = genv.flink.frontier();
    for _ in 0..params.iterations {
        let mut cbuf = HBuffer::zeroed(K * D * 4);
        for c in 0..K {
            for d in 0..D {
                cbuf.write_f32((c * D + d) * 4, centers[c][d]);
            }
        }
        let spec = GpuMapSpec::new("cudaKmeansAssign")
            .with_params(vec![K as f64, D as f64])
            .with_out_mode(OutMode::PerBlock(K))
            .with_out_scale(1.0)
            .with_extra_input(Arc::new(cbuf), (K * D * 4) as u64)
            .build(&setup.fabric)
            .expect("kmeans spec");
        let partials: GDataSet<Partial> = gpoints.gpu_map_partition("kmeans-assign", &spec);
        let got = partials
            .inner()
            .collect("partials", Partial::def().size() as f64);
        update_centers(&got, &mut centers);
        genv.flink.broadcast_bytes((K * D * 4) as u64);
        gpoints.set_min_ready(genv.flink.frontier());
        per_iteration.push(genv.flink.frontier() - last);
        last = genv.flink.frontier();
    }
    let out = genv.flink.parallelize("centers", vec![0u8], 1, 1.0);
    out.write_hdfs("save-centers", "/output/kmeans", (K * D * 4) as f64);
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&centers),
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;

    fn small_params(setup: &Setup) -> Params {
        Params {
            n_logical: 10_000_000,
            n_actual: 2_000,
            iterations: 3,
            parallelism: setup.default_parallelism(),
            seed: 42,
        }
    }

    #[test]
    fn cpu_and_gpu_agree_on_centers() {
        let setup = Setup::standard(2);
        let p = small_params(&setup);
        let cpu = run_cpu(&setup, &p);
        let setup2 = Setup::standard(2);
        let gpu = run_gpu(&setup2, &p);
        assert!(
            digests_match(cpu.digest, gpu.digest, 1e-3),
            "digests differ: {} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    #[test]
    fn gpu_beats_cpu_on_compute_bound_kmeans() {
        let setup = Setup::standard(2);
        let p = Params {
            n_logical: 100_000_000,
            n_actual: 4_000,
            iterations: 5,
            parallelism: setup.default_parallelism(),
            seed: 1,
        };
        let cpu = run_cpu(&setup, &p);
        let setup2 = Setup::standard(2);
        let gpu = run_gpu(&setup2, &p);
        assert!(
            gpu.report.total < cpu.report.total,
            "GFlink {} should beat Flink {}",
            gpu.report.total,
            cpu.report.total
        );
    }

    #[test]
    fn later_gpu_iterations_hit_the_cache() {
        let setup = Setup::standard(1);
        let p = small_params(&setup);
        let gpu = run_gpu(&setup, &p);
        assert!(gpu.per_iteration.len() == 3);
        // Iterations after the first are cheaper (points cached on GPU).
        assert!(
            gpu.per_iteration[1] < gpu.per_iteration[0],
            "{:?}",
            gpu.per_iteration
        );
    }

    #[test]
    fn centers_converge_toward_generator_clusters() {
        // With K == generator cluster count, centers should approach the
        // lattice 10·c + 0.1·d.
        let setup = Setup::standard(1);
        let p = Params {
            n_logical: 1_000_000,
            n_actual: 5_000,
            iterations: 5,
            parallelism: 4,
            seed: 7,
        };
        let cpu = run_cpu(&setup, &p);
        // Digest of perfect centers: sum over c,d of (10c + 0.1d).
        let ideal: f64 = (0..K)
            .flat_map(|c| (0..D).map(move |d| 10.0 * c as f64 + 0.1 * d as f64))
            .sum();
        assert!(
            (cpu.digest - ideal).abs() / ideal < 0.05,
            "digest {} vs ideal {ideal}",
            cpu.digest
        );
    }

    /// The per-element accessor kernel the decode-once kernel replaced:
    /// the reference it must match bit for bit.
    fn oracle_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = Point::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let centers = args.inputs[1];
        let mut sums = vec![[0.0f64; D]; K];
        let mut counts = [0u32; K];
        for i in 0..n {
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for c in 0..K {
                let mut d2 = 0.0f64;
                for d in 0..D {
                    let pc = reader.get_f64(i, 0, d);
                    let cc = centers.read_f32((c * D + d) * 4) as f64;
                    let diff = pc - cc;
                    d2 += diff * diff;
                }
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = c;
                }
            }
            counts[best] += 1;
            for d in 0..D {
                sums[best][d] += reader.get_f64(i, 0, d);
            }
        }
        let out_def = Partial::def();
        let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, K);
        for c in 0..K {
            view.set_u64(c, 0, 0, c as u64);
            view.set_u64(c, 1, 0, counts[c] as u64);
            for d in 0..D {
                view.set_f64(c, 2, d, sums[c][d] as f32 as f64);
            }
        }
        KernelProfile::new(
            args.n_logical as f64 * (3 * K * D) as f64,
            args.n_logical as f64 * POINT_BYTES,
        )
    }

    fn launch(
        kernel: fn(&mut KernelArgs<'_, '_>) -> KernelProfile,
        points: &[Point],
        centers: &[[f32; D]; K],
    ) -> (HBuffer, KernelProfile) {
        let n = points.len();
        let mut block =
            HBuffer::zeroed(RecordView::required_bytes(Point::def(), DataLayout::Aos, n));
        let mut view = RecordView::new(&mut block, Point::def(), DataLayout::Aos, n);
        for (i, p) in points.iter().enumerate() {
            p.store(&mut view, i);
        }
        let cbuf = HBuffer::from_f32s(centers.as_flattened());
        let mut out = HBuffer::zeroed(K * Partial::def().size());
        let profile = kernel(&mut KernelArgs {
            inputs: &[&block, &cbuf],
            outputs: &mut [&mut out],
            params: &[K as f64, D as f64],
            n_actual: n,
            n_logical: n as u64 * 2000 + 7,
        });
        (out, profile)
    }

    /// Random blocks of clustered points, plus a grid block: the centers
    /// alternate between all −1 and all +1, and every point whose
    /// coordinates cycle through ±0.5, ±1.5 is exactly as far from each.
    fn differential_cases() -> Vec<(Vec<Point>, [[f32; D]; K])> {
        let mut cases = Vec::new();
        for (seed, n) in [(1u64, 0usize), (2, 1), (3, 2), (4, 33), (5, 257)] {
            let points = (0..n as u64)
                .map(|i| Point {
                    coords: clustered_point::<D>(seed, i, K),
                })
                .collect();
            cases.push((points, initial_centers(seed ^ 0xC0FFEE)));
        }
        let grid: [[f32; D]; K] = std::array::from_fn(|c| [(c % 2) as f32 * 2.0 - 1.0; D]);
        let points = (0..96u64)
            .map(|i| Point {
                coords: std::array::from_fn(|d| ((i / 3 + d as u64 * (i % 3)) % 4) as f32 - 1.5),
            })
            .collect();
        cases.push((points, grid));
        cases
    }

    #[test]
    fn decode_once_kernel_matches_accessor_oracle_bit_for_bit() {
        for (points, centers) in differential_cases() {
            let (got, got_profile) = launch(kmeans_assign_kernel, &points, &centers);
            let (want, want_profile) = launch(oracle_kernel, &points, &centers);
            assert_eq!(got, want, "n = {}", points.len());
            assert_eq!(got_profile, want_profile);
        }
    }

    #[test]
    fn gpu_block_partials_equal_cpu_assign_bit_for_bit() {
        for (points, centers) in differential_cases() {
            let (got, _) = launch(kmeans_assign_kernel, &points, &centers);
            let mut want = HBuffer::zeroed(K * Partial::def().size());
            let mut view = RecordView::new(&mut want, Partial::def(), DataLayout::Aos, K);
            for (c, p) in cpu_assign(&points, &centers).iter().enumerate() {
                p.store(&mut view, c);
            }
            assert_eq!(got, want, "n = {}", points.len());
        }
    }

    #[test]
    fn record_roundtrip() {
        let def = Point::def();
        let p = Point {
            coords: std::array::from_fn(|i| i as f32),
        };
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, DataLayout::Aos, 1));
        {
            let mut view = RecordView::new(&mut buf, def, DataLayout::Aos, 1);
            p.store(&mut view, 0);
        }
        let reader = RecordReader::new(&buf, def, DataLayout::Aos, 1);
        assert_eq!(Point::load(&reader, 0), p);
    }
}
