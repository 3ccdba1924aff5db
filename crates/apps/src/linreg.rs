//! Linear regression by batch gradient descent (Fig. 6b).
//!
//! 150–270 M labelled samples in `d = 12` dimensions, 10 iterations. Each
//! iteration computes the full-batch gradient of the squared loss — the
//! "bounded by calculations on each data point" workload for which the
//! paper reports its best speedup (≈9.2×) — then the driver takes a
//! gradient step and broadcasts the new weights.

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::regression_sample;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, OutMode};
use gflink_flink::{DataSet, FlinkEnv, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::sync::Arc;

/// Feature dimensionality.
pub const D: usize = 12;
/// Learning rate.
pub const LEARNING_RATE: f64 = 0.5;
/// Default generator seed.
pub const LINREG_SEED: u64 = 0x4C49_4E52_4547; // "LINREG"

/// Bytes of one sample at paper scale (features + label).
pub const SAMPLE_BYTES: f64 = ((D + 1) * 4) as f64;

gstruct! {
    /// One labelled sample.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Sample: Align8 {
        /// Features.
        pub x: [f32; D],
        /// Label.
        pub y: f32,
    }
}

gstruct! {
    /// A gradient partial: Σ residual·x per dimension, Σ residual (bias), count.
    #[derive(Clone, Debug, PartialEq)]
    pub struct GradPartial: Align8 {
        /// Per-dimension gradient sums.
        pub grad: [f32; D],
        /// Bias gradient sum.
        pub bias: f32,
        /// Samples folded in.
        pub count: u32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Samples at paper scale.
    pub n_logical: u64,
    /// Samples actually materialized.
    pub n_actual: usize,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Data parallelism.
    pub parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// A Table 1 size: `millions` of samples (150–270 in the paper).
    pub fn paper(millions: u64, setup: &Setup) -> Params {
        Params {
            n_logical: millions * 1_000_000,
            n_actual: ((millions * 500) as usize).max(1000),
            iterations: 10,
            parallelism: setup.default_parallelism(),
            seed: LINREG_SEED,
        }
    }
}

/// Register the gradient kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaLinregGrad", linreg_grad_kernel);
}

/// Per-sample work: predict (2·(d+1) flops) + gradient accumulate (2·(d+1)).
fn flops_per_sample() -> f64 {
    (4 * (D + 1)) as f64
}

/// Gradient sums over one block or partition: the per-sample fold the CPU
/// engine and the GPU kernel share.
struct Gradient {
    grad: [f64; D],
    bias: f64,
    count: u32,
}

impl Gradient {
    fn new() -> Gradient {
        Gradient {
            grad: [0.0; D],
            bias: 0.0,
            count: 0,
        }
    }

    /// Fold one sample's squared-loss gradient under weights `w`, bias `b`.
    #[inline]
    fn add(&mut self, x: &[f32; D], y: f32, w: &[f64; D], b: f64) {
        let x = x.map(f64::from);
        let mut pred = b;
        for (wd, xd) in w.iter().zip(&x) {
            pred += wd * xd;
        }
        let resid = pred - y as f64;
        for (g, xd) in self.grad.iter_mut().zip(&x) {
            *g += resid * xd;
        }
        self.bias += resid;
        self.count += 1;
    }

    fn partial(&self) -> GradPartial {
        GradPartial {
            grad: self.grad.map(|g| g as f32),
            bias: self.bias as f32,
            count: self.count,
        }
    }
}

fn linreg_grad_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], Sample::def(), DataLayout::Aos, n);
    let weights = args.inputs[1]; // D weights + bias, f32
    let w: [f64; D] = std::array::from_fn(|d| weights.read_f32(d * 4) as f64);
    let b = weights.read_f32(D * 4) as f64;
    let mut acc = Gradient::new();
    let (x, y) = (reader.field(Sample::x), reader.field(Sample::y));
    for row in reader.rows() {
        let [y] = y.read(row);
        acc.add(&x.read(row), y, &w, b);
    }
    let mut view = RecordView::new(args.outputs[0], GradPartial::def(), DataLayout::Aos, 1);
    acc.partial().store(&mut view, 0);
    KernelProfile::new(
        args.n_logical as f64 * flops_per_sample(),
        args.n_logical as f64 * SAMPLE_BYTES,
    )
}

fn cpu_gradient(samples: &[Sample], w: &[f64; D], b: f64) -> GradPartial {
    let mut acc = Gradient::new();
    for s in samples {
        acc.add(&s.x, s.y, w, b);
    }
    acc.partial()
}

fn apply_step(partials: &[GradPartial], w: &mut [f64; D], b: &mut f64) {
    let mut grad = [0.0f64; D];
    let mut bias = 0.0f64;
    let mut count = 0u64;
    for p in partials {
        for d in 0..D {
            grad[d] += p.grad[d] as f64;
        }
        bias += p.bias as f64;
        count += p.count as u64;
    }
    if count == 0 {
        return;
    }
    for d in 0..D {
        w[d] -= LEARNING_RATE * grad[d] / count as f64;
    }
    *b -= LEARNING_RATE * bias / count as f64;
}

fn read_samples(env: &FlinkEnv, params: &Params) -> DataSet<Sample> {
    let seed = params.seed;
    env.read_hdfs(
        "linreg-samples",
        "/input/linreg",
        params.n_logical,
        params.n_actual,
        SAMPLE_BYTES,
        params.parallelism,
        move |i| {
            let (x, y) = regression_sample::<D>(seed, i);
            Sample { x, y }
        },
    )
}

fn digest(w: &[f64; D], b: f64) -> f64 {
    // Weighted so sign-alternating truth weights do not cancel.
    w.iter()
        .enumerate()
        .map(|(d, v)| v * (d as f64 + 1.0))
        .sum::<f64>()
        + b
}

/// Per-sample CPU cost of the gradient map.
///
/// The 2016-era Flink ML examples wrap every sample in a
/// `LabeledVector(DenseVector)` and allocate fresh vectors inside the
/// gradient closure — several object allocations and virtual dispatches per
/// sample on top of the arithmetic, hence the large overhead factor. This
/// churn is what makes LinearRegression the paper's best GPU case (9.2x).
pub fn cpu_grad_cost() -> OpCost {
    OpCost::new(flops_per_sample(), SAMPLE_BYTES).with_overhead_factor(3.0)
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "linreg-cpu", at);
    let mut samples = read_samples(&env, params);
    let mut w = [0.0f64; D];
    let mut b = 0.0f64;
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    for _ in 0..params.iterations {
        let (wc, bc) = (w, b);
        let partials = samples.map_partition("linreg-grad", cpu_grad_cost(), 1.0, move |ss| {
            vec![cpu_gradient(ss, &wc, bc)]
        });
        let got = partials.collect("grads", GradPartial::def().size() as f64);
        apply_step(&got, &mut w, &mut b);
        env.broadcast_bytes(((D + 1) * 4) as u64);
        samples.set_min_ready(env.frontier());
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    let out = env.parallelize("weights", vec![0u8], 1, 1.0);
    out.write_hdfs("save-weights", "/output/linreg", ((D + 1) * 4) as f64);
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&w, b),
        per_iteration,
    }
}

/// Run on GFlink.
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "linreg-gpu", at);
    let samples = read_samples(&genv.flink, params);
    let mut gsamples: GDataSet<Sample> = genv.to_gdst(samples, DataLayout::Aos);
    let mut w = [0.0f64; D];
    let mut b = 0.0f64;
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = genv.flink.frontier();
    for _ in 0..params.iterations {
        let mut wbuf = HBuffer::zeroed((D + 1) * 4);
        for d in 0..D {
            wbuf.write_f32(d * 4, w[d] as f32);
        }
        wbuf.write_f32(D * 4, b as f32);
        let spec = GpuMapSpec::new("cudaLinregGrad")
            .with_out_mode(OutMode::PerBlock(1))
            .with_out_scale(1.0)
            .with_extra_input(Arc::new(wbuf), ((D + 1) * 4) as u64)
            .build(&setup.fabric)
            .expect("linreg spec");
        let partials: GDataSet<GradPartial> = gsamples.gpu_map_partition("linreg-grad", &spec);
        let got = partials
            .inner()
            .collect("grads", GradPartial::def().size() as f64);
        apply_step(&got, &mut w, &mut b);
        genv.flink.broadcast_bytes(((D + 1) * 4) as u64);
        gsamples.set_min_ready(genv.flink.frontier());
        per_iteration.push(genv.flink.frontier() - last);
        last = genv.flink.frontier();
    }
    let out = genv.flink.parallelize("weights", vec![0u8], 1, 1.0);
    out.write_hdfs("save-weights", "/output/linreg", ((D + 1) * 4) as f64);
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&w, b),
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;
    use crate::common::oracle::{aos_block, assert_same_launch, SIZES};
    use gflink_memory::FieldKey;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The kernel body before field handles, a `get_field` per record: the
    /// reference the row walk must match byte for byte.
    fn oracle_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], Sample::def(), DataLayout::Aos, n);
        let weights = args.inputs[1]; // D weights + bias, f32
        let w: [f64; D] = std::array::from_fn(|d| weights.read_f32(d * 4) as f64);
        let b = weights.read_f32(D * 4) as f64;
        let mut acc = Gradient::new();
        for i in 0..n {
            let [y] = reader.get_field(i, FieldKey::new(1));
            acc.add(&reader.get_field(i, FieldKey::new(0)), y, &w, b);
        }
        let mut view = RecordView::new(args.outputs[0], GradPartial::def(), DataLayout::Aos, 1);
        acc.partial().store(&mut view, 0);
        KernelProfile::new(
            args.n_logical as f64 * flops_per_sample(),
            args.n_logical as f64 * SAMPLE_BYTES,
        )
    }

    #[test]
    fn row_walk_kernel_matches_accessor_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x11AE);
        for n in SIZES {
            let samples: Vec<Sample> = (0..n)
                .map(|_| Sample {
                    x: std::array::from_fn(|_| rng.gen_range(-4.0f32..4.0)),
                    y: rng.gen_range(-10.0f32..10.0),
                })
                .collect();
            let weights: Vec<f32> = (0..=D).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (block, weights) = (aos_block(&samples), HBuffer::from_f32s(&weights));
            assert_same_launch(
                linreg_grad_kernel,
                oracle_kernel,
                &[&block, &weights],
                &[],
                n,
                GradPartial::def().size(),
            );
        }
    }

    fn small(setup: &Setup) -> Params {
        Params {
            n_logical: 10_000_000,
            n_actual: 2_000,
            iterations: 4,
            parallelism: setup.default_parallelism(),
            seed: 5,
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
    fn gradient_descent_moves_toward_ground_truth() {
        let s = Setup::standard(1);
        let p = Params {
            n_logical: 1_000_000,
            n_actual: 4_000,
            iterations: 8,
            parallelism: 4,
            seed: 5,
        };
        let run = run_cpu(&s, &p);
        // Digest of the generator's ground truth under the weighted digest.
        let truth_digest: f64 = (0..D)
            .map(|d| {
                let w = (d as f64 + 1.0) / D as f64 * if d % 2 == 0 { 1.0 } else { -1.0 };
                w * (d as f64 + 1.0)
            })
            .sum::<f64>()
            + 0.5;
        let start_dist = truth_digest.abs(); // digest of the all-zero start
        assert!(
            (run.digest - truth_digest).abs() < start_dist * 0.8,
            "digest {} did not move toward truth {truth_digest}",
            run.digest
        );
    }

    #[test]
    fn gpu_faster_at_scale() {
        let s1 = Setup::standard(2);
        let p = Params {
            n_logical: 200_000_000,
            n_actual: 4_000,
            iterations: 5,
            parallelism: s1.default_parallelism(),
            seed: 2,
        };
        let cpu = run_cpu(&s1, &p);
        let s2 = Setup::standard(2);
        let gpu = run_gpu(&s2, &p);
        assert!(gpu.report.total < cpu.report.total);
    }
}
