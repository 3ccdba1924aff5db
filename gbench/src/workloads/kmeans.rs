//! `kmeans-iter`: the paper's flagship iterative job on GFlink.
//!
//! KMeans at Table 1's smallest size (150 M points, 10 iterations) on two
//! workers with two C2050s each, locality-aware scheduling. The points are
//! cached on the GPUs after the first iteration, and the cache runs under
//! eviction pressure, so this workload exercises the GDataSet → GpuManager
//! path, the GPU cache and the H2D channel. It bypasses the cost model,
//! the host engine, streams and checkpoints.
//!
//! The seed draws the point data and the input size (±0.25 % of 150 M
//! points). Correctness: the GPU digest must be within 1e-3 of the same
//! job on the Flink CPU engine.

use super::{batch, jitter, timed, Outcome, RunCfg};
use crate::spans::Spans;
use crate::stats::median;
use gflink_apps::common::digests_match;
use gflink_apps::{kmeans, Setup};

const WORKERS: usize = 2;
const MILLIONS: u64 = 150;
/// Seed tag of the input-size draw.
const SIZE_TAG: u64 = 0x4B53;

fn params(seed: u64) -> kmeans::Params {
    let mut p = kmeans::Params::paper(MILLIONS, &Setup::standard(WORKERS));
    p.seed = seed;
    p.n_logical = jitter(p.n_logical, seed, SIZE_TAG, 0.0025);
    p
}

/// Run the workload.
pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Outcome {
    let p = params(cfg.seed);
    let mut out = Outcome::default();
    let (cpu, cpu_wall) = spans.span("flink", "CPU-engine reference job", |_| {
        timed(|| kmeans::run_cpu(&Setup::standard(WORKERS), &p))
    });
    let gpu = batch::run(
        cfg,
        spans,
        &mut out,
        || {
            let s = Setup::standard(WORKERS);
            kmeans::register_kernels(&s.fabric);
            s
        },
        |s| kmeans::run_gpu(s, &p),
    );
    out.checks
        .expect(digests_match(cpu.digest, gpu.digest, 1e-3), || {
            format!(
                "GPU digest {} differs from the CPU engine's {} by more than 1e-3",
                gpu.digest, cpu.digest
            )
        });
    if cfg.trace {
        let med = median(&out.rep_wall_s).unwrap_or(f64::NAN);
        out.layers.insert("flink.cpu_job_s", cpu.total_secs());
        out.layers.insert("flink.cpu_wall_s", cpu_wall);
        out.layers.insert("core.gpu_path_wall_s", med - cpu_wall);
    }
    out
}
