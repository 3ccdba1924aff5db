//! `q6-stream`: Nexmark q6 through the event-time DataStream layer, with
//! checkpoints.
//!
//! Average bid price per seller over 250 ms tumbling event-time windows,
//! offered at 50 M events/s for 30 s of simulated time on two workers,
//! locality-aware scheduling, window state checkpointed to HDFS every
//! second. This is the only workload that uses event time, windows,
//! `core::checkpoint` and HDFS snapshot writes, and the only one with a
//! latency limit. The loop is open: the source schedule never slows down
//! for the engine, and a window's latency is timed from its span end —
//! when its last event was due — to the instant its result landed.
//!
//! The seed draws the whole event stream (sellers, prices, disorder).
//! Correctness: window and watermark digests equal the CPU engine's; for
//! every window, watermark wait + engine time equals end-to-end latency
//! exactly; no window lost or restored.

use super::{
    devices, fabric_layers, interleaved, observe, overhead, pinned_hit_rate, repeat, set_up, timed,
    Outcome, RunCfg,
};
use crate::spans::Spans;
use crate::stats::{highest_meeting, ladder, median, quantile, sorted, supported_tail};
use gflink_apps::nexmark::{self, NexmarkConfig};
use gflink_bench::{jobj, Json};
use gflink_core::{CheckpointConfig, FabricConfig, GpuFabric, StreamEnv, WindowedRun};
use gflink_flink::{ClusterConfig, SharedCluster};
use gflink_sim::{Cat, SimTime};

const WORKERS: usize = 2;
/// Offered rate of the timed runs, events/s.
const RATE: f64 = 50e6;
/// Simulated length of a timed run.
const DURATION: SimTime = SimTime::from_secs(30);
/// Snapshot interval.
const CHECKPOINT_EVERY: SimTime = SimTime::from_secs(1);
/// The window-latency limit a sustainable rate must meet at p99.
const LIMIT_MS: f64 = 150.0;
/// Last-window latency may exceed the mean by this factor and still count
/// as sustained (no backlog growth).
const SUSTAIN: f64 = 1.5;
/// Rate ladder: from 20 M events/s in 10 % steps up to 400 M, 5 s each.
const LADDER_START: f64 = 20e6;
const LADDER_STEP: f64 = 1.1;
const LADDER_MAX: f64 = 400e6;
const LADDER_DURATION: SimTime = SimTime::from_secs(5);
/// Job name: the checkpoint snapshot key.
const JOB: &str = "gbench-q6";
const MIN_REPS: usize = 3;

fn config(seed: u64, rate: f64, duration: SimTime) -> NexmarkConfig {
    let mut c = NexmarkConfig::standard(seed);
    c.events_per_sec = rate;
    c.duration = duration;
    c
}

/// A fresh cluster and fabric with the q6 stream environment over them.
struct Stack {
    cluster: SharedCluster,
    fabric: GpuFabric,
    env: StreamEnv,
}

fn stack(checkpoints: bool) -> Stack {
    let mut fcfg = FabricConfig::default();
    if checkpoints {
        fcfg.checkpoint = CheckpointConfig::every(CHECKPOINT_EVERY);
    }
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = GpuFabric::new(WORKERS, fcfg);
    nexmark::register_kernels(&fabric);
    let env = StreamEnv::gpu(&fabric).with_cluster(&cluster).named(JOB);
    Stack {
        cluster,
        fabric,
        env,
    }
}

/// Every window's latency, split at the instant the watermark released
/// it. All in ms, each vector ascending.
struct Latencies {
    /// Result landed − span end.
    e2e: Vec<f64>,
    /// Release instant (from the watermark timeline) − span end.
    wait: Vec<f64>,
    /// Result landed − release instant (`WindowOutput::latency`).
    engine: Vec<f64>,
    /// Windows whose wait + engine differs from end-to-end.
    mismatched: usize,
    /// Mean of `stamp.at − stamp.watermark` over the watermark timeline.
    watermark_lag_ms: f64,
    /// Engine latency summed over fires (one per distinct span), ns.
    engine_per_fire_ns: u128,
}

fn latencies(run: &WindowedRun) -> Latencies {
    let stamps = &run.watermarks;
    let ms = |ns: i128| ns as f64 * 1e-6;
    let (mut e2e, mut wait, mut engine) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatched = 0;
    let mut engine_per_fire_ns = 0u128;
    let mut last_span = None;
    for w in &run.windows {
        let end = w.span.end.as_nanos() as i128;
        // The first stamp whose watermark reached the span end released
        // it; windows still open at end of stream fire at the final stamp.
        let at = stamps.partition_point(|s| s.watermark < w.span.end);
        let fire = stamps
            .get(at)
            .or(stamps.last())
            .map_or(end, |s| s.at.as_nanos() as i128);
        let total = w.fired_at.as_nanos() as i128 - end;
        let eng = w.latency.as_nanos() as i128;
        if (fire - end) + eng != total {
            mismatched += 1;
        }
        if last_span != Some(w.span) {
            engine_per_fire_ns += eng.max(0) as u128;
            last_span = Some(w.span);
        }
        e2e.push(ms(total));
        wait.push(ms(fire - end));
        engine.push(ms(eng));
    }
    let lag: f64 = stamps
        .iter()
        .map(|s| ms(s.at.as_nanos() as i128 - s.watermark.as_nanos() as i128))
        .sum();
    Latencies {
        e2e: sorted(&e2e),
        wait: sorted(&wait),
        engine: sorted(&engine),
        mismatched,
        watermark_lag_ms: lag / stamps.len().max(1) as f64,
        engine_per_fire_ns,
    }
}

fn p(v: &[f64], q: f64) -> f64 {
    quantile(v, q).unwrap_or(f64::NAN)
}

/// What one repetition measured and must repeat exactly.
#[derive(Clone, Copy, PartialEq)]
struct Summary {
    digest: u64,
    p99_bits: u64,
    finished_at: SimTime,
    /// Fired windows (one GWork each), executed or lost.
    fires: u64,
    lost: u64,
}

impl Summary {
    fn of(run: &WindowedRun) -> Summary {
        Summary {
            digest: run.digest(),
            p99_bits: p(&latencies(run).e2e, 0.99).to_bits(),
            finished_at: run.report.finished_at,
            fires: (run.report.batches + run.report.lost.len()) as u64,
            lost: run.report.lost.len() as u64,
        }
    }
}

struct Rep {
    setup_s: f64,
    wall_s: f64,
    summary: Result<Summary, String>,
    /// The full run, kept only when asked for, so that holding
    /// repetitions does not grow the process.
    run: Option<WindowedRun>,
}

fn rep(spans: &mut Spans, cfg: &NexmarkConfig, checkpoints: bool, keep: bool) -> Rep {
    let (s, setup_s) = spans.span("setup", "cluster + fabric + stream env", |_| {
        set_up(|| stack(checkpoints))
    });
    let (run, wall_s) = spans.span("core.stream", "q6 run", |_| {
        timed(|| nexmark::q6(&s.env, cfg).map_err(|e| e.to_string()))
    });
    Rep {
        setup_s,
        wall_s,
        summary: run.as_ref().map(Summary::of).map_err(Clone::clone),
        run: run.ok().filter(|_| keep),
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Outcome {
    let nx = config(cfg.seed, RATE, DURATION);
    let mut out = Outcome::default();
    let (cpu, cpu_wall) = spans.span("flink", "CPU-engine reference stream", |_| {
        timed(|| nexmark::q6(&StreamEnv::cpu(&ClusterConfig::standard(WORKERS)), &nx))
    });
    let cpu = match cpu {
        Ok(run) => run,
        Err(e) => {
            out.checks
                .0
                .push(format!("CPU reference refused to run: {e}"));
            return out;
        }
    };

    let reps = repeat(cfg.budget(), MIN_REPS, |first| rep(spans, &nx, true, first));
    out.peak_rss_mb = reps.peak_rss_mb;
    let warm = &reps.warm;
    let (Some(base), Ok(expected)) = (&warm.run, &warm.summary) else {
        out.checks.0.push(format!(
            "q6 refused to run: {:?}",
            warm.summary.as_ref().err()
        ));
        return out;
    };
    let lat = latencies(base);
    let p99 = p(&lat.e2e, 0.99);
    let c = &mut out.checks;
    c.expect(base.digest() == cpu.digest(), || {
        "window digest differs from the CPU engine's".into()
    });
    c.expect(base.watermark_digest() == cpu.watermark_digest(), || {
        "watermark timeline differs from the CPU engine's".into()
    });
    c.expect(base.windows.len() == cpu.windows.len(), || {
        format!(
            "{} windows vs the CPU engine's {}",
            base.windows.len(),
            cpu.windows.len()
        )
    });
    c.expect(lat.mismatched == 0, || {
        format!(
            "{} windows: watermark wait + engine ≠ end-to-end latency",
            lat.mismatched
        )
    });
    c.expect(base.report.lost.is_empty(), || {
        format!("{} fired windows lost", base.report.lost.len())
    });
    c.expect(base.windows_restored == 0, || {
        "windows restored on a fresh fabric".into()
    });
    c.expect(base.checkpoints > 0, || "no snapshot written".into());
    for (i, r) in reps.timed.iter().enumerate() {
        match &r.summary {
            Ok(s) => {
                out.checks.expect(s == expected, || {
                    format!("determinism: repetition {i} differs from the warm-up run")
                });
                out.attempted += s.fires;
                out.failed += s.lost;
            }
            Err(e) => {
                out.checks
                    .0
                    .push(format!("repetition {i} refused to run: {e}"));
                out.attempted += expected.fires;
                out.failed += expected.fires;
            }
        }
        out.rep_wall_s.push(r.wall_s);
        out.setup_s.push(r.setup_s);
    }
    out.sim_ms = p99;
    out.works_per_rep = expected.fires;
    let tail = supported_tail(&lat.e2e).map_or(Json::Null, |(pct, v)| {
        jobj! { "percentile": pct, "ms": v }
    });
    out.detail.push((
        "windows".into(),
        jobj! {
            "samples": lat.e2e.len(),
            "fires": expected.fires,
            "p50_ms": p(&lat.e2e, 0.5),
            "p99_ms": p99,
            "tail": tail,
            "max_ms": lat.e2e.last().copied().unwrap_or(f64::NAN),
            "snapshots": base.checkpoints,
        },
    ));

    if cfg.trace {
        trace_layers(
            cfg,
            spans,
            &nx,
            &mut out,
            &lat,
            base,
            (cpu.report.finished_at, cpu_wall),
        );
    }
    out
}

/// Everything the traced run adds: traced repetitions, the checkpoint
/// knock-out and the rate ladder.
fn trace_layers(
    cfg: &RunCfg,
    spans: &mut Spans,
    nx: &NexmarkConfig,
    out: &mut Outcome,
    lat: &Latencies,
    base: &WindowedRun,
    (cpu_finish, cpu_wall): (SimTime, f64),
) {
    let med = median(&out.rep_wall_s).unwrap_or(f64::NAN);
    // Untraced and traced runs, interleaved; the first traced one also
    // gives the per-layer readings.
    let mut observed = None;
    let pairs = interleaved(|traced| {
        let s = stack(true);
        let probes = traced.then(|| observe(&s.fabric));
        let name = if traced { "traced q6 run" } else { "q6 run" };
        let (run, wall) = spans.span("core.stream", name, |_| timed(|| nexmark::q6(&s.env, nx)));
        if let (Some(p), None) = (probes, &observed) {
            observed = Some((s, p, run));
        }
        wall
    });
    let (s, (tracer, metrics), traced) = observed.expect("interleaved runs traced ones");
    let l = &mut out.layers;
    match &traced {
        Ok(t) => {
            out.checks.expect(t.digest() == base.digest(), || {
                "tracing changed the window results".into()
            });
            fabric_layers(l, &tracer, &metrics, &devices(&s.fabric));
            let stage_ns: u128 = tracer.with_events(|evs| {
                evs.iter()
                    .filter(|e| e.cat == Cat::Stage)
                    .filter_map(|e| e.interval())
                    .map(|(a, b)| b.saturating_sub(a).as_nanos() as u128)
                    .sum()
            });
            let fires = t.report.batches.max(1) as f64;
            l.insert(
                "core.gstream.queue_ms_mean",
                lat.engine_per_fire_ns.saturating_sub(stage_ns) as f64 * 1e-6 / fires,
            );
            let file = s.fabric.with_checkpoints(|c| c.file_name(JOB, 0));
            let bytes = s.cluster.lock().hdfs.manifest(&file).map_or(0, |m| m.len);
            l.insert("hdfs.snapshot_bytes_last", bytes as f64);
            l.insert("core.checkpoint.snapshots", t.checkpoints as f64);
        }
        Err(e) => out.checks.0.push(format!("traced q6 refused to run: {e}")),
    }
    l.insert("memory.pinned.hit_rate", pinned_hit_rate(&s.fabric));
    l.insert("sim.trace.overhead", overhead(&pairs));
    l.insert("harness.gworks_per_s", out.works_per_rep as f64 / med);
    l.insert("flink.cpu_job_s", cpu_finish.as_secs_f64());
    l.insert("flink.cpu_wall_s", cpu_wall);
    l.insert("core.gpu_path_wall_s", med - cpu_wall);
    l.insert(
        "core.jobsched.parked_works",
        base.report.parked_works as f64,
    );
    l.insert(
        "core.jobsched.park_delay_ms",
        base.report.park_delay.as_millis_f64(),
    );
    l.insert("core.recovery.failed", base.report.lost.len() as f64);
    l.insert("core.stream.window_p50_ms", p(&lat.e2e, 0.5));
    l.insert("core.stream.windows", lat.e2e.len() as f64);
    l.insert("core.stream.fires", out.works_per_rep as f64);
    l.insert("core.stream.late_records", base.report.late_records as f64);
    l.insert("core.stream.watermark_wait_ms_p50", p(&lat.wait, 0.5));
    l.insert("core.stream.watermark_wait_ms_p99", p(&lat.wait, 0.99));
    l.insert("core.stream.engine_ms_p50", p(&lat.engine, 0.5));
    l.insert("core.stream.engine_ms_p99", p(&lat.engine, 0.99));
    l.insert("core.stream.watermark_lag_ms", lat.watermark_lag_ms);

    // Knock-out: the same run with checkpointing off against on.
    let pairs = interleaved(|on| rep(spans, nx, on, false).wall_s);
    let cost: Vec<f64> = pairs.iter().map(|(off, on)| on - off).collect();
    out.layers
        .insert("core.checkpoint.wall_s", median(&cost).unwrap_or(f64::NAN));

    // The rate ladder: the highest offered rate whose exact p99 window
    // latency meets the limit with no lost pane and no backlog growth.
    let mut steps = Vec::new();
    let (best, tried) = highest_meeting(&ladder(LADDER_START, LADDER_STEP, LADDER_MAX), |rate| {
        let step = config(cfg.seed, rate, LADDER_DURATION);
        let s = stack(true);
        let run = spans.span(
            "core.stream",
            format!("ladder {:.1} M/s", rate / 1e6),
            |_| nexmark::q6(&s.env, &step),
        );
        match &run {
            Ok(r) => {
                let p99 = p(&latencies(r).e2e, 0.99);
                let lost = r.report.lost.len();
                let sustained = r.report.sustained(SUSTAIN);
                let meets = p99 <= LIMIT_MS && lost == 0 && sustained;
                steps.push(jobj! {
                    "rate_meps": rate / 1e6,
                    "p99_ms": p99,
                    "lost": lost,
                    "sustained": sustained,
                    "meets": meets,
                });
                meets
            }
            Err(e) => {
                steps.push(jobj! { "rate_meps": rate / 1e6, "error": e.to_string() });
                false
            }
        }
    });
    out.layers
        .insert("core.stream.max_rate_meps", best.unwrap_or(0.0) / 1e6);
    out.layers.insert("core.stream.ladder_steps", tried as f64);
    out.detail.push(("ladder".into(), Json::Arr(steps)));
}
