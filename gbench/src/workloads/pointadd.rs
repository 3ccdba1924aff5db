//! `pointadd-hybrid`: the transfer-bound microbenchmark under the hybrid
//! CPU+GPU cost model.
//!
//! PointAdd (Algorithm 3.1) with 400 passes over 100 M points on two
//! workers, `HybridCostModel` placement. Two flops per 16 bytes make it
//! PCIe-bound, so the cost model sends almost every block to the host
//! engine: this is the only workload that exercises `core::costmodel` and
//! `sim::host`, and it has no cache reuse.
//!
//! The point generator's seed is a crate constant, so the seed draws the
//! translation `delta` and the input size (±0.25 % of 100 M points).
//! Correctness: the hybrid digest must equal, bit for bit, a GPU-only
//! locality-aware run of the same job.

use super::{batch, jitter, timed, unit, Outcome, RunCfg};
use crate::spans::Spans;
use crate::stats::median;
use gflink_apps::{pointadd, Setup};
use gflink_core::{FabricConfig, SchedulingPolicy};
use gflink_flink::ClusterConfig;

const WORKERS: usize = 2;
const PASSES: usize = 400;
/// Seed tags of the draws.
const SIZE_TAG: u64 = 0x5053;
const DX_TAG: u64 = 0x5058;
const DY_TAG: u64 = 0x5059;

fn setup(policy: SchedulingPolicy) -> Setup {
    let mut fabric = FabricConfig::default();
    fabric.worker.scheduling = policy;
    let s = Setup::with_configs(ClusterConfig::standard(WORKERS), fabric);
    pointadd::register_kernels(&s.fabric);
    s
}

fn params(seed: u64) -> pointadd::Params {
    let base = pointadd::Params::standard(&Setup::standard(WORKERS));
    pointadd::Params {
        iterations: PASSES,
        n_logical: jitter(base.n_logical, seed, SIZE_TAG, 0.0025),
        // Quarter steps keep every translated coordinate exact in f32.
        delta: (
            0.25 * (1 + (unit(seed, DX_TAG) * 8.0) as u32) as f32,
            -0.25 * (1 + (unit(seed, DY_TAG) * 8.0) as u32) as f32,
        ),
        ..base
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Outcome {
    let p = params(cfg.seed);
    let mut out = Outcome::default();
    let reference = spans.span("core.gdst", "locality-aware reference job", |_| {
        pointadd::run_gpu(&setup(SchedulingPolicy::LocalityAware), &p)
    });
    let hybrid = batch::run(
        cfg,
        spans,
        &mut out,
        || setup(SchedulingPolicy::HybridCostModel),
        |s| pointadd::run_gpu(s, &p),
    );
    out.checks.expect(
        hybrid.digest.to_bits() == reference.digest.to_bits(),
        || {
            format!(
                "hybrid digest {} differs from the locality-aware reference {}",
                hybrid.digest, reference.digest
            )
        },
    );
    if cfg.trace {
        let (cpu, cpu_wall) = spans.span("flink", "CPU-engine reference job", |_| {
            timed(|| pointadd::run_cpu(&Setup::standard(WORKERS), &p))
        });
        let med = median(&out.rep_wall_s).unwrap_or(f64::NAN);
        out.layers.insert("flink.cpu_job_s", cpu.total_secs());
        out.layers.insert("flink.cpu_wall_s", cpu_wall);
        out.layers.insert("core.gpu_path_wall_s", med - cpu_wall);
        out.detail
            .push(("locality_aware_sim_s".into(), reference.report.total.into()));
    }
    out
}
