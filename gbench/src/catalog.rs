//! The metric catalog: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root declares the same names with
//! their direction and (end-to-end only) regression bound; a test keeps
//! the two in step, and `--sets` reads the bounds from it.

use crate::json;

/// End-to-end metrics: printed by every timed run (`--trace 0`).
///
/// * `wall_ms` — wall-clock time of the fastest timed repetition (one job,
///   one stream run, or one 512-work round averaged over the solo and
///   fused paths);
/// * `sim_ms` — the workload's simulated end-to-end figure: job time from
///   submit to `JobReport` for the batch jobs, exact p99 window latency
///   for the stream, simulated time per round for the harness;
/// * `setup_s` — median wall-clock time to build the cluster, fabric or
///   manager and register kernels (the harness's warm-up round included);
/// * `peak_rss_mb` — peak resident memory through the reference runs and
///   the warm-up repetition.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_ms", "ms"),
    ("sim_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`); a layer
/// a workload bypasses reads zero.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("flink.map_s", "s"),
    ("flink.reduce_s", "s"),
    ("flink.shuffle_s", "s"),
    ("flink.io_s", "s"),
    ("flink.submit_s", "s"),
    ("flink.schedule_s", "s"),
    ("flink.cpu_job_s", "s"),
    ("flink.cpu_wall_s", "s"),
    ("gpu.h2d_s", "s"),
    ("gpu.kernel_s", "s"),
    ("gpu.d2h_s", "s"),
    ("gpu.h2d_busy_s", "s"),
    ("gpu.kernel_busy_s", "s"),
    ("gpu.d2h_busy_s", "s"),
    ("gpu.kernel_util", "ratio"),
    ("gpu.kernel_body_ns", "ns"),
    ("core.gmemory.hit_rate", "ratio"),
    ("core.gmemory.h2d_bytes", "bytes"),
    ("core.gmemory.d2h_bytes", "bytes"),
    ("core.gstream.queue_ms_mean", "ms"),
    ("core.gstream.steals", "count"),
    ("core.gstream.works", "count"),
    ("core.costmodel.host_share", "ratio"),
    ("core.costmodel.splits", "count"),
    ("core.costmodel.err_bp_p50", "bp"),
    ("sim.host.busy_s", "s"),
    ("memory.pinned.hit_rate", "ratio"),
    ("core.jobsched.parked_works", "count"),
    ("core.jobsched.park_delay_ms", "ms"),
    ("core.stream.window_p50_ms", "ms"),
    ("core.stream.windows", "count"),
    ("core.stream.fires", "count"),
    ("core.stream.late_records", "count"),
    ("core.stream.watermark_wait_ms_p50", "ms"),
    ("core.stream.watermark_wait_ms_p99", "ms"),
    ("core.stream.engine_ms_p50", "ms"),
    ("core.stream.engine_ms_p99", "ms"),
    ("core.stream.watermark_lag_ms", "ms"),
    ("core.stream.max_rate_meps", "Mev/s"),
    ("core.stream.ladder_steps", "count"),
    ("core.checkpoint.snapshots", "count"),
    ("hdfs.snapshot_bytes_last", "bytes"),
    ("core.checkpoint.wall_s", "s"),
    ("core.recovery.retries", "count"),
    ("core.recovery.failed", "count"),
    ("core.manager.solo_submit_ns", "ns"),
    ("core.manager.fused_submit_ns", "ns"),
    ("core.manager.solo_drain_ns", "ns"),
    ("core.manager.fused_drain_ns", "ns"),
    ("core.manager.solo_gworks_per_s", "1/s"),
    ("core.manager.fused_gworks_per_s", "1/s"),
    ("core.fused.works_per_batch", "count"),
    ("alloc.solo_per_work", "count"),
    ("alloc.fused_per_work", "count"),
    ("sim.metrics.overhead", "ratio"),
    ("core.gpu_path_wall_s", "s"),
    ("harness.gworks_per_s", "1/s"),
    ("sim.trace.overhead", "ratio"),
    ("sim.trace.dropped", "count"),
];

/// `BENCHMARK.json`, as built into the binary.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric's gate: whether higher is better, and the share
/// of the baseline median it may worsen by.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_better: bool,
    /// Allowed worsening, as a share of the baseline.
    pub bound: f64,
}

/// The end-to-end gates declared in `BENCHMARK.json`.
pub fn gates() -> Result<Vec<Gate>, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let Some(gflink_bench::Json::Arr(items)) = json::get(&doc, "end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let field = |k| json::get(m, k).ok_or(format!("BENCHMARK.json: metric without {k}"));
            Ok(Gate {
                name: json::string(field("name")?).unwrap_or_default().to_string(),
                higher_better: json::string(field("better")?) == Some("higher"),
                bound: json::num(field("bound")?).unwrap_or(0.0),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gflink_bench::Json;

    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = json::get(&doc, list) else {
            panic!("BENCHMARK.json lacks {list}");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| {
                    json::string(json::get(m, k).expect("field"))
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn gates_are_within_the_allowed_range() {
        let g = gates().expect("gates parse");
        assert_eq!(g.len(), END_TO_END.len());
        let setup = g
            .iter()
            .find(|g| g.name == "setup_s")
            .expect("setup_s gated");
        for gate in &g {
            assert!(gate.bound > 0.0 && gate.bound <= 0.25, "{gate:?}");
            assert!(
                gate.bound <= setup.bound,
                "setup_s carries the largest bound"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
