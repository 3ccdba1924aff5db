//! Sparse matrix–vector multiplication (Figs. 6a, 7b, 7d, 8a, 8b).
//!
//! The matrix is stored in ELLPACK form (`NNZ = 8` nonzeros per row — the
//! GPU-friendly fixed-width sparse format), 2–32 GB at paper scale. The
//! matrix is rectangular: however many rows the size sweep dictates, times
//! a fixed ≈30.75 M columns, so the dense vector is always the 123 MB the
//! paper's single-machine experiment quotes (§6.6.1) and fits in every
//! GPU's cache region alongside its matrix slice. The
//! benchmark repeats `y = A·x` for a fixed dense vector, as the paper's
//! cache discussion implies ("the matrix and the vector need to be
//! transferred to GPUs in each iteration if the cache scheme is not
//! adopted", Fig. 8a): with the cache on, both operands stay resident after
//! the first iteration and later iterations are kernel-only. The GPU side
//! uses cuBLAS-grade throughput in the paper; here the kernel's roofline is
//! memory-bound, which is the same regime.

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::ell_row;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec};
use gflink_flink::{DataSet, FlinkEnv, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRow, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::sync::Arc;

/// Nonzeros per row (ELLPACK width).
pub const NNZ: usize = 8;
/// Default generator seed.
pub const SPMV_SEED: u64 = 0x53_50_4D_56; // "SPMV"
/// Dense-vector length at paper scale (123 MB of f32, §6.6.1).
pub const COLS_LOGICAL: u64 = 30_750_000;

/// Bytes of one row at paper scale: NNZ column indices + NNZ values.
pub const ROW_BYTES: f64 = (NNZ * 8) as f64;

gstruct! {
    /// One ELLPACK row.
    #[derive(Clone, Debug, PartialEq)]
    pub struct EllRow: Align8 {
        /// Column indices.
        pub cols: [u32; NNZ],
        /// Values.
        pub vals: [f32; NNZ],
    }
}

gstruct! {
    /// One output value of `y = A·x`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct YVal: Align4 {
        /// The row's dot product.
        pub y: f32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Matrix rows at paper scale.
    pub rows_logical: u64,
    /// Rows actually materialized.
    pub rows_actual: usize,
    /// Iterations of `y = A·x`.
    pub iterations: usize,
    /// Data parallelism.
    pub parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// A Table 1 size: a matrix of `gb` gigabytes (2–32 in the paper).
    pub fn paper(gb: u64, setup: &Setup) -> Params {
        let rows_logical = gb * 1_000_000_000 / ROW_BYTES as u64;
        Params {
            rows_logical,
            rows_actual: ((rows_logical / 2000) as usize).clamp(1000, 100_000),
            iterations: 10,
            parallelism: setup.default_parallelism(),
            seed: SPMV_SEED,
        }
    }

    /// The Fig. 7b single-machine workload: a 1.0 GB matrix whose vector is
    /// 123 MB (≈30.75 M columns at paper scale).
    pub fn fig7b(setup: &Setup) -> Params {
        let mut p = Params::paper(1, setup);
        p.parallelism = setup.default_parallelism();
        p
    }

    /// The dense vector's logical byte size (one f32 per column).
    pub fn vector_logical_bytes(&self) -> u64 {
        COLS_LOGICAL * 4
    }

    /// Matrix logical bytes.
    pub fn matrix_logical_bytes(&self) -> u64 {
        (self.rows_logical as f64 * ROW_BYTES) as u64
    }
}

/// Register the SpMV kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaSpmvEll", spmv_kernel);
}

fn spmv_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let def = EllRow::def();
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
    let x = args.inputs[1];
    let x_len = x.len() / 4;
    let out_def = YVal::def();
    let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, n);
    for (src, dst) in reader.rows_of::<EllRow>().zip(view.rows_of_mut::<YVal>()) {
        let row = EllRow::load_row(src);
        let mut acc = 0.0f64;
        for (col, v) in row.cols.into_iter().zip(row.vals) {
            acc += v as f64 * x.read_f32((col as usize % x_len.max(1)) * 4) as f64;
        }
        YVal { y: acc as f32 }.store_row(dst);
    }
    // 2 flops per nonzero; traffic: row bytes + gathered x values + y.
    KernelProfile::new(
        args.n_logical as f64 * (2 * NNZ) as f64,
        args.n_logical as f64 * (ROW_BYTES + (NNZ * 4) as f64 + 4.0),
    )
    // The gather of x is irregular (random column indices): charge heavily
    // reduced coalescing.
    .with_coalescing(0.45)
}

fn cpu_spmv(rows: &[EllRow], x: &[f32]) -> Vec<YVal> {
    let x_len = x.len().max(1);
    rows.iter()
        .map(|r| {
            let mut acc = 0.0f64;
            for k in 0..NNZ {
                acc += r.vals[k] as f64 * x[r.cols[k] as usize % x_len] as f64;
            }
            YVal { y: acc as f32 }
        })
        .collect()
}

fn make_vector(params: &Params) -> Vec<f32> {
    // Deterministic dense vector over the ACTUAL column space.
    (0..params.rows_actual)
        .map(|i| ((i as f32 * 0.37).sin() + 1.5) * 0.5)
        .collect()
}

fn read_matrix(env: &FlinkEnv, params: &Params) -> DataSet<EllRow> {
    let seed = params.seed;
    let ncols = params.rows_actual as u64;
    env.read_hdfs(
        "spmv-matrix",
        "/input/spmv",
        params.rows_logical,
        params.rows_actual,
        ROW_BYTES,
        params.parallelism,
        move |i| {
            let (cols, vals) = ell_row::<NNZ>(seed, i, ncols);
            EllRow { cols, vals }
        },
    )
}

fn digest(y: &[YVal]) -> f64 {
    y.iter().map(|v| v.y as f64).sum()
}

/// Per-row CPU cost of the SpMV map: 2 flops/nnz plus the gather traffic,
/// with extra dispatch overhead for the per-row sparse object and its boxed
/// column iterator.
pub fn cpu_spmv_cost() -> OpCost {
    OpCost::new((2 * NNZ) as f64, ROW_BYTES + (NNZ * 4) as f64 + 4.0).with_overhead_factor(2.5)
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "spmv-cpu", at);
    let mut matrix = read_matrix(&env, params);
    let x = Arc::new(make_vector(params));
    // Ship the dense vector to every worker once.
    env.broadcast_bytes(params.vector_logical_bytes());
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    let mut result = 0.0;
    for it in 0..params.iterations {
        let xv = Arc::clone(&x);
        let y = matrix.map_partition(
            "spmv",
            cpu_spmv_cost(),
            params.rows_logical as f64 / params.rows_actual as f64,
            move |rows| cpu_spmv(rows, &xv),
        );
        matrix.set_min_ready(env.frontier());
        if it == params.iterations - 1 {
            let ys = y.collect("y", 4.0);
            result = digest(&ys);
            y.write_hdfs("save-y", "/output/spmv", 4.0);
        }
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: result,
        per_iteration,
    }
}

/// Run on GFlink (matrix and vector cached on the devices, Fig. 8a).
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "spmv-gpu", at);
    let matrix = read_matrix(&genv.flink, params);
    let mut gmatrix: GDataSet<EllRow> = genv.to_gdst(matrix, DataLayout::Aos);
    let x = make_vector(params);
    let mut xbuf = HBuffer::zeroed(x.len() * 4);
    for (i, v) in x.iter().enumerate() {
        xbuf.write_f32(i * 4, *v);
    }
    let xbuf = Arc::new(xbuf);
    let x_token = setup.fabric.new_cache_token();
    genv.flink.broadcast_bytes(params.vector_logical_bytes());
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = genv.flink.frontier();
    let mut result = 0.0;
    let out_scale = params.rows_logical as f64 / params.rows_actual as f64;
    for it in 0..params.iterations {
        let spec = GpuMapSpec::new("cudaSpmvEll")
            .with_out_scale(out_scale)
            .with_cached_extra_input(Arc::clone(&xbuf), params.vector_logical_bytes(), x_token)
            .build(&setup.fabric)
            .expect("spmv spec");
        let y: GDataSet<YVal> = gmatrix.gpu_map_partition("spmv", &spec);
        // The driver consumes y before relaunching (sequential supersteps).
        gmatrix.set_min_ready(genv.flink.frontier());
        if it == params.iterations - 1 {
            let ys = y.inner().collect("y", 4.0);
            result = digest(&ys);
            y.inner().write_hdfs("save-y", "/output/spmv", 4.0);
        }
        per_iteration.push(genv.flink.frontier() - last);
        last = genv.flink.frontier();
    }
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: result,
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;
    use crate::common::oracle::{aos_block, assert_same_launch, SIZES};
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The kernel body before field handles, per-element accessors: the
    /// reference the row walk must match byte for byte.
    fn oracle_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = EllRow::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let x = args.inputs[1];
        let x_len = x.len() / 4;
        let out_def = YVal::def();
        let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, n);
        for i in 0..n {
            let mut acc = 0.0f64;
            for k in 0..NNZ {
                let col = reader.get_u64(i, 0, k) as usize;
                let v = reader.get_f64(i, 1, k);
                acc += v * x.read_f32((col % x_len.max(1)) * 4) as f64;
            }
            view.set_f64(i, 0, 0, acc);
        }
        KernelProfile::new(
            args.n_logical as f64 * (2 * NNZ) as f64,
            args.n_logical as f64 * (ROW_BYTES + (NNZ * 4) as f64 + 4.0),
        )
        .with_coalescing(0.45)
    }

    #[test]
    fn row_walk_kernel_matches_accessor_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x5B3F);
        for n in SIZES {
            let rows: Vec<EllRow> = (0..n)
                .map(|_| EllRow {
                    cols: std::array::from_fn(|_| rng.next_u32()),
                    vals: std::array::from_fn(|_| rng.gen_range(-2.0f32..2.0)),
                })
                .collect();
            let x: Vec<f32> = (0..37).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (block, x) = (aos_block(&rows), HBuffer::from_f32s(&x));
            let out_bytes = n * YVal::def().size();
            assert_same_launch(spmv_kernel, oracle_kernel, &[&block, &x], &[], n, out_bytes);
        }
    }

    fn small(setup: &Setup) -> Params {
        Params {
            rows_logical: 10_000_000,
            rows_actual: 2_000,
            iterations: 4,
            parallelism: setup.default_parallelism(),
            seed: 3,
        }
    }

    #[test]
    fn cpu_and_gpu_agree() {
        let s1 = Setup::standard(2);
        let cpu = run_cpu(&s1, &small(&s1));
        let s2 = Setup::standard(2);
        let gpu = run_gpu(&s2, &small(&s2));
        assert!(
            digests_match(cpu.digest, gpu.digest, 1e-3),
            "{} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    #[test]
    fn later_iterations_much_cheaper_with_cache() {
        // Fig. 7b's shape: iteration 1 pays IO + H2D; iterations 2..n-1 are
        // kernel-only; the last pays the HDFS write.
        let s = Setup::standard(1);
        let p = Params {
            rows_logical: 60_000_000, // ~3.8 GB matrix... scaled to device
            rows_actual: 4_000,
            iterations: 5,
            parallelism: 4,
            seed: 3,
        };
        let gpu = run_gpu(&s, &p);
        assert!(
            gpu.per_iteration[1] < gpu.per_iteration[0],
            "{:?}",
            gpu.per_iteration
        );
        assert!(
            gpu.per_iteration[4] > gpu.per_iteration[2],
            "last iteration pays the sink write: {:?}",
            gpu.per_iteration
        );
    }

    #[test]
    fn spmv_values_match_dense_reference() {
        let p = Params {
            rows_logical: 100,
            rows_actual: 100,
            iterations: 1,
            parallelism: 2,
            seed: 3,
        };
        let x = make_vector(&p);
        let rows: Vec<EllRow> = (0..100)
            .map(|i| {
                let (cols, vals) = ell_row::<NNZ>(3, i, 100);
                EllRow { cols, vals }
            })
            .collect();
        let y = cpu_spmv(&rows, &x);
        // Spot-check one row by hand.
        let r = &rows[17];
        let expect: f64 = (0..NNZ)
            .map(|k| r.vals[k] as f64 * x[r.cols[k] as usize] as f64)
            .sum();
        assert!((y[17].y as f64 - expect).abs() < 1e-6);
    }

    #[test]
    fn gpu_beats_cpu_at_scale() {
        // 60 M rows = 3.84 GB matrix: each of the 4 GPUs caches ~1 GB,
        // within its 2 GB cache region.
        let s1 = Setup::standard(2);
        let p = Params {
            rows_logical: 60_000_000,
            rows_actual: 4_000,
            iterations: 6,
            parallelism: s1.default_parallelism(),
            seed: 1,
        };
        let cpu = run_cpu(&s1, &p);
        let s2 = Setup::standard(2);
        let gpu = run_gpu(&s2, &p);
        assert!(gpu.report.total < cpu.report.total);
    }
}
