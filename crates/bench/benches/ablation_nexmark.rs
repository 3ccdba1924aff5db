//! Ablation: Nexmark q6 windowed aggregation, CPU engine vs GPU fabric
//! (ISSUE 10).
//!
//! The q6-shaped load — keyed tumbling windows of average bid price per
//! seller over a bounded-out-of-orderness event stream — runs the same
//! DataStream pipeline on three engines: the baseline CPU slots, the GPU
//! fabric under locality-aware scheduling, and the GPU fabric under the
//! hybrid cost model. Placement transparency requires all three to agree
//! bit-for-bit on the window digest and the watermark timeline; the
//! performance gates require the GPU path to *earn* the port:
//!
//! * GPU mean window latency must beat the CPU engine by **>= 1.2x**;
//! * the GPU path must be sustained (late window latency within 1.5x of
//!   mean) at the offered rate, with every window's latency **<= 100 ms**.
//!   The bound is on the maximum: a 3 s run fires 12 windows, too few for
//!   a p99 to be anything but the largest sample. The anchor file keeps
//!   its `max_p99_ms` key, so it still diffs clean against earlier runs.

use gflink_apps::nexmark::{self, NexmarkConfig};
use gflink_bench::{header, jobj, row, write_results, Json};
use gflink_core::{FabricConfig, GpuFabric, SchedulingPolicy, StreamEnv, WindowedRun};
use gflink_flink::ClusterConfig;
use gflink_sim::SimTime;

const WORKERS: usize = 2;
const MIN_SPEEDUP: f64 = 1.2;
const SUSTAIN_FACTOR: f64 = 1.5;
const MAX_LATENCY: SimTime = SimTime::from_millis(100);

fn config() -> NexmarkConfig {
    let mut cfg = NexmarkConfig::standard(42);
    cfg.events_per_sec = 50e6;
    cfg.duration = SimTime::from_secs(3);
    cfg
}

fn gpu_env(policy: SchedulingPolicy) -> StreamEnv {
    let mut fcfg = FabricConfig::default();
    fcfg.worker.scheduling = policy;
    let fabric = GpuFabric::new(WORKERS, fcfg);
    nexmark::register_kernels(&fabric);
    StreamEnv::gpu(&fabric)
}

fn stats(name: &str, run: &WindowedRun) -> Json {
    jobj! {
        "engine": name,
        "windows": run.windows.len() as u64,
        "digest": format!("{:016x}", run.digest()),
        "mean_latency_secs": run.report.latency.mean(),
        "p50_ms": run.report.latency.p50().as_millis_f64(),
        "p95_ms": run.report.latency.p95().as_millis_f64(),
        "p99_ms": run.report.latency.p99().as_millis_f64(),
        "sustained": run.report.sustained(SUSTAIN_FACTOR),
        "late_records": run.report.late_records,
        "lost": run.report.lost.len() as u64,
    }
}

fn main() {
    let cfg = config();
    header(
        "Ablation: Nexmark q6 windowed aggregation, CPU engine vs GPU fabric",
        "50M events/s, 250ms tumbling windows, 25ms disorder under a 40ms watermark bound",
    );
    row(&[
        "engine".into(),
        "windows".into(),
        "mean lat".into(),
        "p99 lat".into(),
        "sustained".into(),
    ]);

    let cpu =
        nexmark::q6(&StreamEnv::cpu(&ClusterConfig::standard(WORKERS)), &cfg).expect("cpu q6 runs");
    let gpu = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg).expect("gpu q6 runs");
    let hybrid =
        nexmark::q6(&gpu_env(SchedulingPolicy::HybridCostModel), &cfg).expect("hybrid q6 runs");

    for (name, run) in [("cpu", &cpu), ("gpu", &gpu), ("gpu+hybrid", &hybrid)] {
        row(&[
            name.into(),
            format!("{}", run.windows.len()),
            format!("{:.1}ms", run.report.latency.mean() * 1e3),
            format!("{}", run.report.latency.p99()),
            format!("{}", run.report.sustained(SUSTAIN_FACTOR)),
        ]);
    }

    // --- gates -----------------------------------------------------------
    assert_eq!(
        cpu.digest(),
        gpu.digest(),
        "engine change drifted the q6 digest"
    );
    assert_eq!(
        gpu.digest(),
        hybrid.digest(),
        "placement policy drifted the q6 digest"
    );
    assert_eq!(cpu.watermark_digest(), gpu.watermark_digest());
    let speedup = cpu.report.latency.mean() / gpu.report.latency.mean().max(1e-12);
    assert!(
        speedup >= MIN_SPEEDUP,
        "GPU windowed aggregation must win >={MIN_SPEEDUP}x on mean window latency, \
         got {speedup:.3}x"
    );
    assert!(
        gpu.report.sustained(SUSTAIN_FACTOR),
        "GPU path is not sustained at the offered rate"
    );
    assert!(
        gpu.report.latency.max() <= MAX_LATENCY,
        "GPU max window latency {} exceeds {MAX_LATENCY}",
        gpu.report.latency.max()
    );
    println!(
        "(gates: GPU {speedup:.2}x >= {MIN_SPEEDUP}x over CPU; sustained; max {} <= {MAX_LATENCY})",
        gpu.report.latency.max()
    );

    let results = Json::Arr(vec![
        stats("cpu", &cpu),
        stats("gpu_locality", &gpu),
        stats("gpu_hybrid", &hybrid),
    ]);
    write_results("ablation_nexmark", &results);

    // BENCH trajectory anchor at the workspace root, for future re-anchors
    // to diff and gate streaming regressions against.
    let bench = jobj! {
        "bench": "nexmark",
        "scenario": "q6_50M_events_2workers",
        "gates": jobj! {
            "min_speedup": MIN_SPEEDUP,
            "sustain_factor": SUSTAIN_FACTOR,
            "max_p99_ms": MAX_LATENCY.as_millis_f64(),
        },
        "rows": results,
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut text = bench.render();
    text.push('\n');
    let _ = std::fs::write(format!("{root}/BENCH_nexmark.json"), text);
}
