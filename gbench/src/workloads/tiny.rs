//! `harness-tiny`: the per-GWork wall-clock hot path of one `GpuManager`.
//!
//! One worker with two C2050s and four streams each; every round submits
//! 512 works of 16 floats and drains them. The works are so small that
//! kernel arithmetic is noise and the wall clock measures the harness
//! itself: event queue, placement, engine reservation and bookkeeping.
//! Blocks of 400 rounds alternate the solo flight path (batching off) and
//! the fused one (transfer batching on); each pair swaps which side runs
//! first, so both see the same machine. Every block gets a fresh manager.
//!
//! The seed draws the input values and each work's logical size (16 to
//! 1024 floats), which moves simulated transfer time but not the wall
//! clock. Correctness: every round's digest equals the one computed from
//! the inputs, on both paths.

use super::{fabric_layers, interleaved, overhead, repeat, share, Outcome, RunCfg};
use crate::spans::Spans;
use crate::stats::median;
use crate::sys::allocs;
use gflink_core::{
    BatchConfig, CompletedWork, GWork, GpuManager, GpuWorkerConfig, JobId, TransferConfig, WorkBuf,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{Metrics, SimTime, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const JOB: JobId = JobId(1);
const WORKS_PER_ROUND: usize = 512;
const FLOATS: usize = 16;
const ROUNDS_PER_BLOCK: usize = 400;
/// Rounds of the short blocks that time the kernel body or run traced.
const SHORT_ROUNDS: usize = 20;
/// Distinct input buffers the works cycle through.
const INPUTS: usize = 8;
const MIN_PAIRS: usize = 3;
const KERNEL: &str = "gbenchScale";

/// When set, the kernel times its own body into the counters below. Only
/// the traced run sets it, on a block of its own.
static TIME_KERNEL: AtomicBool = AtomicBool::new(false);
static KERNEL_NS: AtomicU64 = AtomicU64::new(0);
static KERNEL_CALLS: AtomicU64 = AtomicU64::new(0);

/// `out[i] = 2 · in[i]` over the materialized floats.
fn scale_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let t = TIME_KERNEL.load(Ordering::Relaxed).then(Instant::now);
    let input = args.inputs[0];
    let out = &mut args.outputs[0];
    for i in 0..args.n_actual {
        out.write_f32(i * 4, input.read_f32(i * 4) * 2.0);
    }
    if let Some(t) = t {
        KERNEL_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        KERNEL_CALLS.fetch_add(1, Ordering::Relaxed);
    }
    KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
}

/// The seed-drawn inputs every block replays.
struct Inputs {
    bufs: Vec<Arc<HBuffer>>,
    /// Logical floats of work `i` of a round.
    logical: Vec<u64>,
    /// The digest every round must produce: Σ 2·x over all works.
    digest: f64,
}

fn inputs(seed: u64) -> Inputs {
    let mut digest = 0.0;
    let bufs: Vec<Arc<HBuffer>> = (0..INPUTS)
        .map(|b| {
            let mut buf = HBuffer::zeroed(FLOATS * 4);
            for i in 0..FLOATS {
                // Small integers: every sum below is exact in f64, so the
                // digest does not depend on completion order.
                let x = (1 + super::mix(seed, (b * FLOATS + i) as u64) % 1000) as f32;
                buf.write_f32(i * 4, x);
            }
            Arc::new(buf)
        })
        .collect();
    for w in 0..WORKS_PER_ROUND {
        for i in 0..FLOATS {
            digest += 2.0 * bufs[w % INPUTS].read_f32(i * 4) as f64;
        }
    }
    let logical = (0..WORKS_PER_ROUND as u64)
        .map(|w| (FLOATS as u64) * (1 + super::mix(seed ^ 0x4C, w) % 64))
        .collect();
    Inputs {
        bufs,
        logical,
        digest,
    }
}

/// Operator-shared fields of every work, as a built `GpuMapSpec` would
/// hold them: interned names and params, the kernel id resolved once.
struct Spec {
    name: Arc<str>,
    ptx: Arc<str>,
    params: Arc<[f64]>,
    kernel: KernelId,
}

fn work(spec: &Spec, inp: &Inputs, round: u32, i: usize) -> GWork {
    let logical = inp.logical[i];
    GWork {
        name: Arc::clone(&spec.name),
        execute_name: Arc::clone(&spec.name),
        kernel: spec.kernel,
        ptx_path: Arc::clone(&spec.ptx),
        block_size: 256,
        grid_size: 1,
        inputs: vec![WorkBuf::transient(
            Arc::clone(&inp.bufs[i % INPUTS]),
            logical * 4,
        )],
        out_actual_bytes: FLOATS * 4,
        out_logical_bytes: logical * 4,
        out_records: FLOATS,
        params: Arc::clone(&spec.params),
        n_actual: FLOATS,
        n_logical: logical,
        coalescing: 1.0,
        tag: (round, i as u32),
    }
}

fn digest(done: &[CompletedWork]) -> f64 {
    done.iter()
        .map(|w| {
            (0..FLOATS)
                .map(|i| w.output.read_f32(i * 4) as f64)
                .sum::<f64>()
        })
        .sum()
}

/// What a block observes besides the wall clock.
#[derive(Clone, Copy, PartialEq)]
enum Watch {
    /// Dark: no metrics plane, no tracer.
    Dark,
    /// The live metrics plane attached.
    Metrics,
    /// Metrics plane and tracer attached.
    Traced,
}

/// One block's measurements.
#[derive(Default)]
struct Block {
    setup_s: f64,
    wall_s: f64,
    /// Wall seconds inside `submit_for` and `drain_job` (split-timed
    /// blocks only).
    submit_s: f64,
    drain_s: f64,
    /// Simulated time per round, ns.
    sim_round_ns: u64,
    allocs: u64,
    works: u64,
    completed: u64,
    failed: u64,
    bad_rounds: u64,
    fused_batches: u64,
    fused_works: u64,
    queue_s: f64,
    pinned: (u64, u64),
    observed: Option<(Tracer, Metrics)>,
}

/// A fresh manager, one untimed warm-up round (both part of set-up), then
/// `rounds` timed submit/drain rounds.
fn block(inp: &Inputs, batch: BatchConfig, rounds: usize, watch: Watch, split: bool) -> Block {
    let mut b = Block::default();
    let t = Instant::now();
    let mut reg = KernelRegistry::new();
    reg.register(KERNEL, scale_kernel);
    let kernel = reg.resolve(KERNEL).expect("registered just above");
    let cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        transfer: TransferConfig {
            batch,
            ..TransferConfig::default()
        },
        ..GpuWorkerConfig::default()
    };
    let mut m = GpuManager::new(0, cfg, Arc::new(Mutex::new(reg)));
    if watch != Watch::Dark {
        let metrics = Metrics::new(Metrics::DEFAULT_CADENCE);
        m.set_metrics(&metrics);
        let tracer = if watch == Watch::Traced {
            let t = Tracer::new(Tracer::DEFAULT_CAPACITY);
            m.set_tracer(t.clone());
            t
        } else {
            Tracer::disabled()
        };
        b.observed = Some((tracer, metrics));
    }
    let spec = Spec {
        name: "gbench-tiny".into(),
        ptx: "/gbench-tiny.ptx".into(),
        params: Arc::from([]),
        kernel,
    };
    m.begin_job(JOB);
    for i in 0..WORKS_PER_ROUND {
        m.submit_for(JOB, work(&spec, inp, 0, i), SimTime::ZERO);
    }
    let warm = m.drain_job(JOB);
    let sim_start = warm
        .iter()
        .map(|w| w.timing.completed)
        .max()
        .unwrap_or_default();
    b.setup_s = t.elapsed().as_secs_f64();

    let mut sim_end = sim_start;
    let allocs_before = allocs();
    let start = Instant::now();
    for round in 1..=rounds as u32 {
        let t0 = split.then(Instant::now);
        for i in 0..WORKS_PER_ROUND {
            m.submit_for(JOB, work(&spec, inp, round, i), SimTime::ZERO);
        }
        let t1 = split.then(Instant::now);
        let done = m.drain_job(JOB);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            b.submit_s += (t1 - t0).as_secs_f64();
            b.drain_s += t1.elapsed().as_secs_f64();
        }
        b.completed += done.len() as u64;
        if done.len() != WORKS_PER_ROUND || digest(&done).to_bits() != inp.digest.to_bits() {
            b.bad_rounds += 1;
        }
        if round as usize == rounds {
            sim_end = done
                .iter()
                .map(|w| w.timing.completed)
                .max()
                .unwrap_or(sim_end);
        }
        if watch == Watch::Traced {
            b.queue_s += done
                .iter()
                .map(|w| {
                    w.timing
                        .started
                        .saturating_sub(w.timing.submitted)
                        .as_secs_f64()
                })
                .sum::<f64>();
        }
    }
    b.wall_s = start.elapsed().as_secs_f64();
    b.allocs = allocs() - allocs_before;
    b.works = (rounds * WORKS_PER_ROUND) as u64;
    b.failed = m.take_job_failed(JOB).len() as u64 + b.works.saturating_sub(b.completed);
    b.sim_round_ns = (sim_end.saturating_sub(sim_start)).as_nanos() / rounds as u64;
    b.fused_batches = m.fused_batches();
    b.fused_works = m.fused_works();
    let p = m.pinned_stats();
    b.pinned = (p.hits, p.misses);
    m.end_job(JOB);
    b
}

/// A solo block and a fused block, in the given order.
fn pair(inp: &Inputs, solo_first: bool, split: bool, spans: &mut Spans) -> (Block, Block) {
    let mut run = |batch: BatchConfig, name: &str| {
        spans.span("core.manager", name.to_string(), |_| {
            block(inp, batch, ROUNDS_PER_BLOCK, Watch::Dark, split)
        })
    };
    if solo_first {
        let s = run(BatchConfig::default(), "solo block");
        (s, run(BatchConfig::enabled(), "fused block"))
    } else {
        let f = run(BatchConfig::enabled(), "fused block");
        (run(BatchConfig::default(), "solo block"), f)
    }
}

/// Median of `f` over `blocks`.
fn med(blocks: &[&Block], f: impl Fn(&Block) -> f64) -> f64 {
    median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Run the workload.
pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Outcome {
    let inp = inputs(cfg.seed);
    let mut out = Outcome::default();
    let mut n = 0usize;
    let reps = repeat(cfg.budget(), MIN_PAIRS, |_| {
        n += 1;
        pair(&inp, n % 2 == 1, cfg.trace, spans)
    });
    out.peak_rss_mb = reps.peak_rss_mb;
    let (warm, pairs) = (&reps.warm, &reps.timed);
    let sim = (warm.0.sim_round_ns, warm.1.sim_round_ns);
    for (i, (s, f)) in pairs.iter().enumerate() {
        out.checks
            .expect((s.sim_round_ns, f.sim_round_ns) == sim, || {
                format!(
                    "determinism: pair {i} simulated {s_ns}/{f_ns} ns per round vs {}/{}",
                    sim.0,
                    sim.1,
                    s_ns = s.sim_round_ns,
                    f_ns = f.sim_round_ns
                )
            });
        for b in [s, f] {
            out.checks.expect(b.bad_rounds == 0, || {
                format!(
                    "pair {i}: {} rounds with a wrong digest or count",
                    b.bad_rounds
                )
            });
            out.attempted += b.works;
            out.failed += b.failed;
            out.setup_s.push(b.setup_s);
        }
        out.rep_wall_s
            .push((s.wall_s + f.wall_s) / (2 * ROUNDS_PER_BLOCK) as f64);
    }
    out.checks
        .expect(warm.0.bad_rounds + warm.1.bad_rounds == 0, || {
            "warm-up pair: a round with a wrong digest or count".into()
        });
    out.sim_ms = (sim.0 + sim.1) as f64 / 2.0 * 1e-6;
    out.works_per_rep = WORKS_PER_ROUND as u64;
    let solo: Vec<&Block> = pairs.iter().map(|(s, _)| s).collect();
    let fused: Vec<&Block> = pairs.iter().map(|(_, f)| f).collect();
    let rate = |b: &Block| b.works as f64 / b.wall_s;
    out.detail.push((
        "paths".into(),
        gflink_bench::jobj! {
            "pairs": pairs.len(),
            "solo_gworks_per_s": med(&solo, rate),
            "fused_gworks_per_s": med(&fused, rate),
            "solo_sim_round_ns": sim.0,
            "fused_sim_round_ns": sim.1,
        },
    ));

    if cfg.trace {
        trace_layers(&inp, spans, &mut out, &solo, &fused);
    }
    out
}

/// A per-layer reading: the metric, the blocks it is the median over, and
/// what it reads off one block.
type Reading<'a> = (&'static str, &'a [&'a Block], fn(&Block) -> f64);

/// The traced run's extras: the submit/drain split, allocations, the
/// kernel body, the metrics-plane knock-out and traced blocks.
fn trace_layers(
    inp: &Inputs,
    spans: &mut Spans,
    out: &mut Outcome,
    solo: &[&Block],
    fused: &[&Block],
) {
    let readings: [Reading<'_>; 9] = [
        ("core.manager.solo_submit_ns", solo, |b| {
            b.submit_s * 1e9 / b.works as f64
        }),
        ("core.manager.fused_submit_ns", fused, |b| {
            b.submit_s * 1e9 / b.works as f64
        }),
        ("core.manager.solo_drain_ns", solo, |b| {
            b.drain_s * 1e9 / b.works as f64
        }),
        ("core.manager.fused_drain_ns", fused, |b| {
            b.drain_s * 1e9 / b.works as f64
        }),
        ("core.manager.solo_gworks_per_s", solo, |b| {
            b.works as f64 / b.wall_s
        }),
        ("core.manager.fused_gworks_per_s", fused, |b| {
            b.works as f64 / b.wall_s
        }),
        ("alloc.solo_per_work", solo, |b| {
            b.allocs as f64 / b.works as f64
        }),
        ("alloc.fused_per_work", fused, |b| {
            b.allocs as f64 / b.works as f64
        }),
        ("core.fused.works_per_batch", fused, |b| {
            b.fused_works as f64 / b.fused_batches.max(1) as f64
        }),
    ];
    for (name, blocks, f) in readings {
        out.layers.insert(name, med(blocks, f));
    }
    let per_round = median(&out.rep_wall_s).unwrap_or(f64::NAN);
    out.layers
        .insert("harness.gworks_per_s", WORKS_PER_ROUND as f64 / per_round);

    TIME_KERNEL.store(true, Ordering::Relaxed);
    spans.span("gpu", "kernel-timed block", |_| {
        block(
            inp,
            BatchConfig::default(),
            SHORT_ROUNDS,
            Watch::Dark,
            false,
        )
    });
    TIME_KERNEL.store(false, Ordering::Relaxed);
    let calls = KERNEL_CALLS.load(Ordering::Relaxed).max(1);
    let body_ns = KERNEL_NS.load(Ordering::Relaxed) as f64 / calls as f64;
    out.layers.insert("gpu.kernel_body_ns", body_ns);

    // Knock-out of the metrics plane: dark against metered solo blocks.
    let pairs = interleaved(|lit| {
        let watch = if lit { Watch::Metrics } else { Watch::Dark };
        spans.span("sim.metrics", "metrics knock-out block", |_| {
            block(
                inp,
                BatchConfig::default(),
                ROUNDS_PER_BLOCK / 2,
                watch,
                false,
            )
            .wall_s
        })
    });
    out.layers.insert("sim.metrics.overhead", overhead(&pairs));

    // Dark against traced short solo blocks; the first traced block also
    // gives the per-layer readings.
    let mut observed = None;
    let pairs = interleaved(|traced| {
        let watch = if traced { Watch::Traced } else { Watch::Dark };
        let b = spans.span("core.manager", "short block", |_| {
            block(inp, BatchConfig::default(), SHORT_ROUNDS, watch, false)
        });
        let wall = b.wall_s;
        if traced && observed.is_none() {
            observed = Some(b);
        }
        wall
    });
    let traced = observed.expect("interleaved runs traced blocks");
    out.checks.expect(traced.bad_rounds == 0, || {
        "tracing changed a round's digest or count".into()
    });
    let l = &mut out.layers;
    if let Some((tracer, metrics)) = &traced.observed {
        fabric_layers(l, tracer, metrics, &[(0, 2)]);
    }
    l.insert("sim.trace.overhead", overhead(&pairs));
    l.insert(
        "core.gstream.queue_ms_mean",
        traced.queue_s * 1e3 / traced.works as f64,
    );
    let (hits, misses) = traced.pinned;
    l.insert("memory.pinned.hit_rate", share(hits, misses));
    l.insert("core.recovery.failed", out.failed as f64);
}
