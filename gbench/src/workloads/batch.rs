//! The closed loop both batch workloads share: a fresh cluster and fabric
//! per repetition, one job per repetition, submit → `JobReport`.

use super::{
    devices, fabric_layers, interleaved, job_layers, job_works, observe, overhead, pinned_hit_rate,
    repeat, set_up, timed, Outcome, RunCfg,
};
use crate::spans::Spans;
use crate::stats::median;
use gflink_apps::{AppRun, Setup};
use gflink_bench::jobj;
use gflink_sim::SimTime;

/// Repetitions at the least, however long one takes.
const MIN_REPS: usize = 3;

/// What one repetition measured and must repeat exactly.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    total: SimTime,
    digest: u64,
    works: u64,
    failed: u64,
}

/// Set up a fresh cluster and fabric (timed as set-up), then run the job
/// (timed as the repetition). The full run is kept only when asked for
/// (`keep`), so that holding repetitions does not grow the process.
fn rep(
    spans: &mut Spans,
    setup: &impl Fn() -> Setup,
    job: &impl Fn(&Setup) -> AppRun,
    keep: bool,
) -> (Rep, Option<AppRun>) {
    let (s, setup_s) = spans.span("setup", "cluster + fabric + kernels", |_| set_up(setup));
    let (run, wall_s) = spans.span("core.gdst", "job", |_| timed(|| job(&s)));
    let r = Rep {
        setup_s,
        wall_s,
        total: run.report.total,
        digest: run.digest.to_bits(),
        works: job_works(&run.report),
        failed: run.report.faults.works_failed,
    };
    (r, keep.then_some(run))
}

/// Drive the timed repetitions (and, in the traced run, the traced
/// repetitions) of `job`, filling `out` with everything the two batch
/// workloads measure alike. Returns the warm-up run, whose results every
/// repetition must repeat bit for bit.
pub fn run(
    cfg: &RunCfg,
    spans: &mut Spans,
    out: &mut Outcome,
    setup: impl Fn() -> Setup,
    job: impl Fn(&Setup) -> AppRun,
) -> AppRun {
    let reps = repeat(cfg.budget(), MIN_REPS, |first| {
        rep(spans, &setup, &job, first)
    });
    let (warm, warm_run) = reps.warm;
    let warm_run = warm_run.expect("the warm-up repetition keeps its run");
    out.peak_rss_mb = reps.peak_rss_mb;
    for (i, (r, _)) in reps.timed.iter().enumerate() {
        out.checks.expect(
            r.total == warm.total && r.digest == warm.digest && r.works == warm.works,
            || {
                format!(
                    "determinism: repetition {i} simulated {} (digest {:x}) vs warm-up {} \
                     (digest {:x})",
                    r.total, r.digest, warm.total, warm.digest
                )
            },
        );
        out.attempted += r.works;
        out.failed += r.failed;
        out.rep_wall_s.push(r.wall_s);
        out.setup_s.push(r.setup_s);
    }
    out.sim_ms = warm.total.as_millis_f64();
    out.works_per_rep = warm.works;
    let g = warm_run.report.gpu.clone().unwrap_or_default();
    out.detail.push((
        "job".into(),
        jobj! {
            "sim_s": warm.total,
            "digest": warm_run.digest,
            "gworks": warm.works,
            "cache_hits": g.cache_hits,
            "cache_misses": g.cache_misses,
            "h2d_bytes": g.bytes_h2d,
            "hybrid_cpu": g.hybrid_cpu,
            "hybrid_gpu": g.hybrid_gpu,
        },
    ));

    if cfg.trace {
        // Untraced and traced repetitions, interleaved; the first traced
        // one also gives the per-layer readings.
        let mut observed = None;
        let pairs = interleaved(|traced| {
            let s = setup();
            let probes = traced.then(|| observe(&s.fabric));
            let name = if traced { "traced job" } else { "job" };
            let (run, wall) = spans.span("core.gdst", name, |_| timed(|| job(&s)));
            if let (Some(p), None) = (probes, &observed) {
                observed = Some((s, p, run));
            }
            wall
        });
        let (s, (tracer, metrics), traced) = observed.expect("interleaved runs traced ones");
        out.checks.expect(
            traced.report.total == warm.total && traced.digest.to_bits() == warm.digest,
            || "tracing changed the simulated result".to_string(),
        );
        let l = &mut out.layers;
        job_layers(l, &traced.report);
        fabric_layers(l, &tracer, &metrics, &devices(&s.fabric));
        l.insert("memory.pinned.hit_rate", pinned_hit_rate(&s.fabric));
        l.insert("sim.trace.overhead", overhead(&pairs));
        let med = median(&out.rep_wall_s).unwrap_or(f64::NAN);
        l.insert("harness.gworks_per_s", out.works_per_rep as f64 / med);
    }
    warm_run
}
