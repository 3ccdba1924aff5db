//! The four workloads and what they share: the run configuration, the
//! correctness ledger, the timed-repetition loop, seed-derived inputs and
//! the per-layer readings taken from a traced fabric.

mod batch;
mod kmeans;
mod pointadd;
mod q6;
mod tiny;

use crate::spans::Spans;
use gflink_bench::Json;
use gflink_core::GpuFabric;
use gflink_flink::JobReport;
use gflink_sim::{Cat, Metrics, Phase, PipelineProfile, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload's entry point.
type Runner = fn(&RunCfg, &mut Spans) -> Outcome;

/// Every workload by name, in the order `--workload all` runs them.
pub const WORKLOADS: [(&str, Runner); 4] = [
    ("kmeans-iter", kmeans::run),
    ("pointadd-hybrid", pointadd::run),
    ("q6-stream", q6::run),
    ("harness-tiny", tiny::run),
];

/// How one workload run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Wall-clock seconds the timed repetitions may take.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// timed run (end-to-end metrics).
    pub trace: bool,
}

impl RunCfg {
    /// Wall seconds for the timed repetitions: all of `seconds`, or half
    /// of them in the traced run, which spends the rest on its extras.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunCfg, spans: &mut Spans) -> Option<Outcome> {
    let (_, runner) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    Some(runner(cfg, spans))
}

/// Correctness checks that failed, in the order they were made.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Record a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Per-layer readings by metric name (see `catalog::PER_LAYER`); a layer
/// the workload bypasses keeps no entry and reads as zero.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks.
    pub checks: Checks,
    /// Operations attempted in the timed repetitions (GWorks, or fired
    /// windows for the stream).
    pub attempted: u64,
    /// Attempted operations that failed, were lost or were refused.
    pub failed: u64,
    /// Wall seconds of each timed repetition.
    pub rep_wall_s: Vec<f64>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident memory after the warm-up repetition, MB.
    pub peak_rss_mb: Option<f64>,
    /// The workload's simulated end-to-end figure in ms (identical on
    /// every repetition).
    pub sim_ms: f64,
    /// Scheduled GWorks (GPU and host) per timed repetition.
    pub works_per_rep: u64,
    /// Per-layer readings (traced run only).
    pub layers: Layers,
    /// Workload-specific detail for the results file.
    pub detail: Vec<(String, Json)>,
}

/// Constructions timed together as one set-up sample.
const SETUP_BATCH: u32 = 5;

/// Build what one repetition runs on with `make`, timing set-up on the
/// way: `SETUP_BATCH` constructions in a row (all but the last dropped),
/// averaged into one sample. A fixed batch gives every sample the same
/// mix of cold and warm allocator state, and one sample per repetition
/// spreads the samples over the run like the repetitions themselves.
pub fn set_up<S>(make: impl Fn() -> S) -> (S, f64) {
    let t = Instant::now();
    for _ in 1..SETUP_BATCH {
        drop(std::hint::black_box(make()));
    }
    let s = std::hint::black_box(make());
    (s, t.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// The repetitions of one run.
pub struct Reps<T> {
    /// The untimed warm-up call's result.
    pub warm: T,
    /// The timed calls' results.
    pub timed: Vec<T>,
    /// Peak resident memory (MB) right after the warm-up, before the
    /// timed repetitions, so that it does not depend on how many of them
    /// fit in the run.
    pub peak_rss_mb: Option<f64>,
}

/// One untimed warm-up call (`call(true)`), then timed calls
/// (`call(false)`) until `budget_s` seconds of wall clock have passed and
/// at least `min` calls ran. Each call measures itself.
pub fn repeat<T>(budget_s: f64, min: usize, mut call: impl FnMut(bool) -> T) -> Reps<T> {
    let warm = call(true);
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let start = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < min || start.elapsed().as_secs_f64() < budget_s {
        timed.push(call(false));
    }
    Reps {
        warm,
        timed,
        peak_rss_mb,
    }
}

/// Pairs a knock-out or overhead reading is the median over.
const PAIRS: usize = 3;

/// Run `rep(false)` and `rep(true)` `PAIRS` times each, alternating which
/// of the two goes first so both see the same stretch of machine, and
/// return each pair's readings as `(off, on)`.
pub fn interleaved(mut rep: impl FnMut(bool) -> f64) -> Vec<(f64, f64)> {
    (0..PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let off = rep(false);
                (off, rep(true))
            } else {
                let on = rep(true);
                (rep(false), on)
            }
        })
        .collect()
}

/// Median over pairs of `on / off − 1`: what switching something on costs.
pub fn overhead(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|(off, on)| on / off - 1.0).collect();
    crate::stats::median(&ratios).unwrap_or(f64::NAN)
}

/// Time `f` on the wall clock, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// SplitMix64 of `(seed, tag)`: the entropy every seed-derived input is
/// drawn from.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, tag)`.
pub fn unit(seed: u64, tag: u64) -> f64 {
    (mix(seed, tag) >> 11) as f64 / (1u64 << 53) as f64
}

/// `nominal` scaled by a seed-drawn factor in `[1 − share, 1 + share)`.
/// Input sizes vary a little between seeds so that simulated times do
/// too, while one seed always gives the same size.
pub fn jitter(nominal: u64, seed: u64, tag: u64, share: f64) -> u64 {
    (nominal as f64 * (1.0 + share * (2.0 * unit(seed, tag) - 1.0))).round() as u64
}

/// Turn on the fabric's tracer and metrics plane (before any work runs).
pub fn observe(fabric: &GpuFabric) -> (Tracer, Metrics) {
    (fabric.enable_tracing(), fabric.enable_metrics())
}

/// `(worker, gpus)` of every manager on the fabric.
pub fn devices(fabric: &GpuFabric) -> Vec<(usize, usize)> {
    fabric.with_managers(|ms| ms.iter().map(|m| (m.worker_id(), m.gpu_count())).collect())
}

/// Per-layer readings every GPU workload shares, folded from the traced
/// run's engine spans and metrics-plane counters: Eq. (4) stage times,
/// engine busy times and utilization, host-pool busy time, cache and
/// transfer counters, scheduling counters and retries.
pub fn fabric_layers(
    l: &mut Layers,
    tracer: &Tracer,
    metrics: &Metrics,
    devices: &[(usize, usize)],
) {
    let (stages, host_busy) = tracer.with_events(|evs| {
        let mut stages = [0u64; 3];
        let mut host = 0u64;
        for ev in evs {
            let Some((s, e)) = ev.interval() else {
                continue;
            };
            let d = e.saturating_sub(s).as_nanos();
            match (ev.cat, ev.name.as_str()) {
                (Cat::Stage, "h2d") => stages[0] += d,
                (Cat::Stage, "kernel") => stages[1] += d,
                (Cat::Stage, "d2h") => stages[2] += d,
                (Cat::Cpu, _) => host += d,
                _ => {}
            }
        }
        (stages, host)
    });
    let profile: PipelineProfile = tracer.profile();
    let busy = profile.total();
    let lanes = profile.lanes.len().max(1) as f64;
    let util = profile
        .lanes
        .values()
        .map(|lane| lane.kernel_utilization())
        .sum::<f64>()
        / lanes;
    let ns = |v: u64| v as f64 * 1e-9;
    l.insert("gpu.h2d_s", ns(stages[0]));
    l.insert("gpu.kernel_s", ns(stages[1]));
    l.insert("gpu.d2h_s", ns(stages[2]));
    l.insert("gpu.h2d_busy_s", busy.h2d_busy.as_secs_f64());
    l.insert("gpu.kernel_busy_s", busy.kernel_busy.as_secs_f64());
    l.insert("gpu.d2h_busy_s", busy.d2h_busy.as_secs_f64());
    l.insert("gpu.kernel_util", util);
    l.insert("sim.host.busy_s", ns(host_busy));
    l.insert("sim.trace.dropped", tracer.dropped() as f64);

    let count = |name: &str| metrics.counter(name, "").get();
    let (mut hits, mut misses, mut h2d, mut d2h) = (0, 0, 0, 0);
    let (mut works, mut steals, mut retries, mut host, mut gpu, mut splits) = (0, 0, 0, 0, 0, 0);
    for &(w, gpus) in devices {
        for g in 0..gpus {
            let lab = format!("{{worker=\"{w}\",gpu=\"{g}\"}}");
            hits += count(&format!("gflink_cache_hits_total{lab}"));
            misses += count(&format!("gflink_cache_misses_total{lab}"));
            h2d += count(&format!("gflink_bytes_h2d_total{lab}"));
            d2h += count(&format!("gflink_bytes_d2h_total{lab}"));
        }
        let lab = format!("{{worker=\"{w}\"}}");
        works += count(&format!("gflink_works_completed_total{lab}"));
        steals += count(&format!("gflink_steals_total{lab}"));
        retries += count(&format!("gflink_retries_total{lab}"));
        host += count(&format!("gflink_hybrid_cpu_total{lab}"));
        gpu += count(&format!("gflink_hybrid_gpu_total{lab}"));
        splits += count(&format!("gflink_hybrid_splits_total{lab}"));
    }
    l.insert("core.gmemory.hit_rate", share(hits, misses));
    l.insert("core.gmemory.h2d_bytes", h2d as f64);
    l.insert("core.gmemory.d2h_bytes", d2h as f64);
    l.insert("core.gstream.works", works as f64);
    l.insert("core.gstream.steals", steals as f64);
    l.insert("core.recovery.retries", retries as f64);
    l.insert("core.costmodel.host_share", share(host, gpu));
    l.insert("core.costmodel.splits", splits as f64);
}

/// `part / (part + rest)`, or 0 when both are 0.
pub fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Pinned staging-pool hit rate over every manager of the fabric.
pub fn pinned_hit_rate(fabric: &GpuFabric) -> f64 {
    let (hits, misses) = fabric.with_managers(|ms| {
        ms.iter().fold((0, 0), |(h, m), mgr| {
            let p = mgr.pinned_stats();
            (h + p.hits, m + p.misses)
        })
    });
    share(hits, misses)
}

/// Per-layer readings of a batch job's report: the Eq. (1) phases, the
/// GPU rollup's queueing, backpressure and cost-model error, and the fault
/// ledger. `core.costmodel.err_bp_p50` is a log-histogram bucket edge —
/// fine for a per-layer reading, never used for a gated number.
pub fn job_layers(l: &mut Layers, report: &JobReport) {
    let acct = |p: Phase| report.acct.get(p).as_secs_f64();
    l.insert("flink.map_s", acct(Phase::Map));
    l.insert("flink.reduce_s", acct(Phase::Reduce));
    l.insert("flink.shuffle_s", acct(Phase::Shuffle));
    l.insert("flink.io_s", acct(Phase::Io));
    l.insert("flink.submit_s", acct(Phase::Submit));
    l.insert("flink.schedule_s", acct(Phase::Schedule));
    if let Some(g) = &report.gpu {
        l.insert("core.gstream.queue_ms_mean", g.queue.mean() * 1e3);
        l.insert("core.jobsched.parked_works", g.parked_works as f64);
        l.insert("core.jobsched.park_delay_ms", g.park_delay.as_millis_f64());
        l.insert(
            "core.costmodel.err_bp_p50",
            g.hybrid_err.p50().as_nanos() as f64,
        );
    }
    l.insert("core.recovery.failed", report.faults.works_failed as f64);
}

/// GWorks a batch job scheduled (GPU and host).
pub fn job_works(report: &JobReport) -> u64 {
    report.gpu.as_ref().map_or(0, |g| g.works + g.cpu_works)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_draws_are_pure_and_bounded() {
        assert_eq!(mix(42, 1), mix(42, 1));
        assert_ne!(mix(42, 1), mix(7, 1));
        for s in 0..1_000 {
            let u = unit(s, 3);
            assert!((0.0..1.0).contains(&u));
            let j = jitter(1_000_000, s, 3, 0.005);
            assert!((995_000..=1_005_000).contains(&j));
        }
    }

    #[test]
    fn interleaving_alternates_order_and_pairs_readings() {
        let mut calls = Vec::new();
        let pairs = interleaved(|on| {
            calls.push(on);
            if on {
                3.0
            } else {
                2.0
            }
        });
        assert_eq!(calls, vec![false, true, true, false, false, true]);
        assert_eq!(pairs, vec![(2.0, 3.0); 3]);
        assert_eq!(overhead(&pairs), 0.5);
    }

    #[test]
    fn repeat_runs_warmup_then_at_least_min() {
        let mut n = 0;
        let reps = repeat(0.0, 3, |first| {
            n += 1;
            (n, first)
        });
        assert_eq!(reps.warm, (1, true));
        assert_eq!(reps.timed, vec![(2, false), (3, false), (4, false)]);
    }
}
