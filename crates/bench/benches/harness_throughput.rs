//! Harness throughput: scheduled GWorks/sec through one `GpuManager` on
//! one core (ISSUE 7 / ROADMAP item 5).
//!
//! The paper's pipelined architecture only shows its scaling behaviour if
//! the harness itself is not the bottleneck, so this bench measures the
//! *harness* — wall-clock cost of the per-GWork hot path (submit, event
//! queue, staging, dispatch, kernel launch, D2H split, completion), not
//! simulated time. Works are deliberately tiny (16 floats) so per-work
//! bookkeeping dominates and kernel arithmetic is noise: the number is
//! scheduled GWorks per wall-clock second on one core.
//!
//! Two paths are timed:
//! * `solo`  — batching off, one flight per GWork (the legacy pipeline);
//! * `fused` — transfer batching on, works coalesced into fused flights.
//!
//! Wall-clock numbers are machine-dependent, so every throughput is also
//! reported *normalized* by a calibration loop (boxed binary-heap churn —
//! allocator + heap ops, the same primitive costs the hot path pays)
//! measured in the same process. The normalized ratio is stable across
//! machine speeds and is what the regression gate compares.
//!
//! Artifacts:
//! * `results/harness_throughput.json` — this run plus the committed
//!   pre-refactor baseline;
//! * `BENCH_throughput.json` (workspace root, one JSON object per line) —
//!   the trajectory file future re-anchors diff and gate against.
//!
//! Gates (skipped when `GFLINK_BENCH_BASELINE=1`, the re-measuring mode):
//! * allocation: steady-state allocations per scheduled GWork must stay
//!   at most 2 on both paths (measured 1.02 solo / 1.03 fused) — the
//!   pre-refactor path paid ~15; the
//!   refactored flight itself pays 0 (the residue is the bench's own
//!   per-work `GWork::inputs` Vec and per-batch bookkeeping). This is the
//!   deterministic "allocation-free steady state" criterion;
//! * speedup: normalized throughput must beat the committed pre-refactor
//!   baseline by at least 1.15x (measured speedup is ~1.5-1.8x; the gate
//!   sits below the machine-noise band so CI does not flake);
//! * regression: normalized throughput must not drop more than 20% below
//!   the last committed `BENCH_throughput.json` entry;
//! * metrics: each path runs [`METRIC_PAIRS`] short dark/metrics pairs,
//!   alternating which goes first; the metrics runs must stay inside the
//!   same allocation budgets, and the median of the pairs' throughput
//!   ratios must cost at most 5% of the dark path. One pair alone cannot
//!   tell 5% from this harness's run-to-run noise; the median of ten
//!   adjacent pairs can. The dark runs themselves are the
//!   disabled-is-zero-cost check — they never touch the plane.

use gflink_bench::{header, jobj, row, write_results};
use gflink_core::{
    BatchConfig, CompletedWork, GWork, GpuManager, GpuWorkerConfig, JobId, TransferConfig, WorkBuf,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{Metrics, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Pre-refactor baseline, measured at the parent of the hot-path refactor
/// commit with `GFLINK_BENCH_BASELINE=1` on an otherwise idle core. The
/// absolute GWorks/sec are recorded for the curious; the *normalized*
/// values (GWorks/sec divided by calibration ops/sec on the same machine)
/// are what the speedup gate compares, so the gate holds on slower CI
/// runners.
mod baseline {
    /// Scheduled GWorks/sec, batching off (absolute, reference machine).
    pub const SOLO_GWORKS_PER_SEC: f64 = 497_000.0;
    /// Scheduled GWorks/sec, fused batching on (absolute, reference machine).
    pub const FUSED_GWORKS_PER_SEC: f64 = 498_000.0;
    /// Calibration ops/sec on the reference machine.
    pub const CALIB_OPS_PER_SEC: f64 = 19_900_000.0;
    /// Allocations per scheduled GWork the pre-refactor solo path paid
    /// (HashMap flight tables, per-flight Vecs, fresh result buffers).
    pub const SOLO_ALLOCS_PER_WORK: f64 = 15.04;
}

/// Enforced gate floors (see module docs). The throughput floor is set
/// below the observed machine-noise band on purpose: the deterministic
/// allocation gate is the primary steady-state criterion, the throughput
/// floor only catches gross regressions.
mod gates {
    pub const MIN_SPEEDUP: f64 = 1.15;
    pub const MAX_SOLO_ALLOCS_PER_WORK: f64 = 2.0;
    pub const MAX_FUSED_ALLOCS_PER_WORK: f64 = 2.0;
    /// The metrics plane may cost at most this fraction of throughput when
    /// enabled, as the median over the metrics pairs — its per-work feeds
    /// are plain adds to tallies published at samples, so the steady state
    /// should be within noise of the dark path.
    pub const MAX_METRICS_OVERHEAD: f64 = 0.05;
}

/// Counting allocator: heap allocations are the cost the hot-path refactor
/// removes, so the bench reports allocations per scheduled GWork alongside
/// throughput (the acceptance metric for "allocation-free steady state").
/// Relaxed counters; negligible overhead next to the allocation itself.
struct CountingAlloc;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const JOB: JobId = JobId(1);
/// Dark/metrics pairs per path behind the metrics overhead gate.
const METRIC_PAIRS: usize = 10;
/// Timed wall clock of each run in a metrics pair, in seconds.
const PAIR_SECONDS: f64 = 0.25;

/// Works submitted per submit/drain round.
const WORKS_PER_ROUND: usize = 512;
/// Floats per work — tiny on purpose; bookkeeping must dominate.
const N_FLOATS: usize = 16;

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("bumpScale", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let input = args.inputs[0];
        let out = &mut args.outputs[0];
        for i in 0..n {
            out.write_f32(i * 4, input.read_f32(i * 4) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

fn manager(batch: BatchConfig) -> (GpuManager, KernelId) {
    let reg = registry();
    let id = reg.lock().resolve("bumpScale").expect("registered above");
    let m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
            transfer: TransferConfig {
                batch,
                ..TransferConfig::default()
            },
            ..GpuWorkerConfig::default()
        },
        reg,
    );
    (m, id)
}

/// Operator-shared GWork fields, mirroring a built `GpuMapSpec`: names and
/// params are interned `Arc`s, the kernel id resolved once.
struct SharedSpec {
    name: Arc<str>,
    execute_name: Arc<str>,
    ptx_path: Arc<str>,
    params: Arc<[f64]>,
    kernel: KernelId,
}

/// One tiny GWork, built the way the `gpu_map_partition` producer builds
/// blocks: per-work name/kernel/params cloned off a shared spec (pointer
/// bumps, not string copies). The input buffer is shared (`Arc`), as for a
/// cached dataset.
fn mk_work(spec: &SharedSpec, input: &Arc<HBuffer>, tag: (u32, u32)) -> GWork {
    GWork {
        name: Arc::clone(&spec.name),
        execute_name: Arc::clone(&spec.execute_name),
        kernel: spec.kernel,
        ptx_path: Arc::clone(&spec.ptx_path),
        block_size: 256,
        grid_size: 1,
        inputs: vec![WorkBuf::transient(Arc::clone(input), (N_FLOATS * 4) as u64)],
        out_actual_bytes: N_FLOATS * 4,
        out_logical_bytes: (N_FLOATS * 4) as u64,
        out_records: N_FLOATS,
        params: Arc::clone(&spec.params),
        n_actual: N_FLOATS,
        n_logical: N_FLOATS as u64,
        coalescing: 1.0,
        tag,
    }
}

fn digest_of(done: &[CompletedWork]) -> f64 {
    done.iter()
        .map(|w| {
            let mut s = 0.0f64;
            for i in 0..N_FLOATS {
                s += w.output.read_f32(i * 4) as f64;
            }
            s
        })
        .sum()
}

struct PathResult {
    gworks_per_sec: f64,
    works: u64,
    rounds: u64,
    digest_per_work: f64,
    allocs_per_work: f64,
}

/// A path's metrics overhead over [`METRIC_PAIRS`] dark/metrics pairs.
struct MetricsCost {
    /// Median of the metrics runs' GWorks/sec.
    gworks_per_sec: f64,
    /// `1 -` the median of the pairs' metrics/dark throughput ratios.
    overhead: f64,
    /// Interquartile range of the per-pair overheads.
    overhead_iqr: (f64, f64),
    /// Allocations per work over every metrics run.
    allocs_per_work: f64,
    digest_per_work: f64,
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// [`METRIC_PAIRS`] adjacent dark/metrics runs of `batch`'s path, the
/// order alternating each pair so drift in machine speed falls on both
/// sides; the gate reads the median ratio, not any one run.
fn metrics_cost(batch: &BatchConfig, metrics: &Metrics) -> MetricsCost {
    let (mut overheads, mut lit_rates) = (Vec::new(), Vec::new());
    let (mut lit_allocs, mut lit_works, mut digest) = (0.0, 0u64, f64::NAN);
    for pair in 0..METRIC_PAIRS {
        let run = |lit: bool| run_path(batch.clone(), PAIR_SECONDS, lit.then_some(metrics));
        let (dark, lit) = if pair % 2 == 0 {
            let dark = run(false);
            (dark, run(true))
        } else {
            let lit = run(true);
            (run(false), lit)
        };
        overheads.push(1.0 - lit.gworks_per_sec / dark.gworks_per_sec);
        lit_rates.push(lit.gworks_per_sec);
        lit_allocs += lit.allocs_per_work * lit.works as f64;
        lit_works += lit.works;
        digest = lit.digest_per_work;
    }
    MetricsCost {
        gworks_per_sec: quantile(&lit_rates, 0.5),
        overhead: quantile(&overheads, 0.5),
        overhead_iqr: (quantile(&overheads, 0.25), quantile(&overheads, 0.75)),
        allocs_per_work: lit_allocs / lit_works as f64,
        digest_per_work: digest,
    }
}

/// Submit/drain rounds of tiny works until at least `min_elapsed` of wall
/// clock has been timed (after one untimed warmup round), returning
/// scheduled GWorks per wall-clock second. With `metrics`, the manager
/// runs with the live metrics plane attached — the enabled-overhead path
/// the metrics gates measure; without, the plane stays dark (the default
/// zero-cost configuration the solo/fused allocation gates certify).
fn run_path(batch: BatchConfig, min_elapsed: f64, metrics: Option<&Metrics>) -> PathResult {
    let input = {
        let mut b = HBuffer::zeroed(N_FLOATS * 4);
        for i in 0..N_FLOATS {
            b.write_f32(i * 4, (i + 1) as f32);
        }
        Arc::new(b)
    };
    let (mut m, kernel) = manager(batch);
    if let Some(mx) = metrics {
        m.set_metrics(mx);
    }
    let spec = SharedSpec {
        name: "thr".into(),
        execute_name: "bumpScale".into(),
        ptx_path: "/bump.ptx".into(),
        params: Arc::from([]),
        kernel,
    };
    m.begin_job(JOB);

    // Warmup: pools, free lists and queue capacity reach steady state.
    for i in 0..WORKS_PER_ROUND {
        m.submit_for(JOB, mk_work(&spec, &input, (0, i as u32)), SimTime::ZERO);
    }
    let warm = m.drain_job(JOB);
    assert_eq!(warm.len(), WORKS_PER_ROUND);
    let digest_per_work = digest_of(&warm) / WORKS_PER_ROUND as f64;

    let mut works = 0u64;
    let mut rounds = 0u64;
    let allocs_at_start = ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    let start = Instant::now();
    loop {
        let round = rounds + 1;
        for i in 0..WORKS_PER_ROUND {
            m.submit_for(
                JOB,
                mk_work(&spec, &input, (round as u32, i as u32)),
                SimTime::ZERO,
            );
        }
        let done = m.drain_job(JOB);
        assert_eq!(done.len(), WORKS_PER_ROUND);
        let d = digest_of(&done);
        assert_eq!(
            d.to_bits(),
            (digest_per_work * WORKS_PER_ROUND as f64).to_bits(),
            "round digest drifted"
        );
        works += WORKS_PER_ROUND as u64;
        rounds += 1;
        if start.elapsed().as_secs_f64() >= min_elapsed && rounds >= 3 {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - allocs_at_start;
    PathResult {
        gworks_per_sec: works as f64 / elapsed,
        works,
        rounds,
        digest_per_work,
        allocs_per_work: allocs as f64 / works as f64,
    }
}

/// Machine-speed proxy: ops/sec of a boxed binary-heap churn loop —
/// allocation plus heap sift, the primitive costs the pre-refactor hot
/// path pays per work. Refactor-independent (it never touches gflink
/// code), so normalized throughput is comparable across machines.
fn calibrate() -> f64 {
    let mut heap = std::collections::BinaryHeap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut ops = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            heap.push(Box::new(x));
            if heap.len() > 256 {
                std::hint::black_box(heap.pop());
            }
        }
        ops += 4096;
        if start.elapsed().as_secs_f64() >= 0.25 {
            break;
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Last committed trajectory entry's normalized throughputs, parsed from
/// `BENCH_throughput.json` (one JSON object per line). Hand-rolled — the
/// image ships no serde; the file is machine-written so a flat key scan is
/// enough.
fn committed_normalized(text: &str) -> Option<(f64, f64)> {
    let line = text.lines().rev().find(|l| !l.trim().is_empty())?;
    let grab = |key: &str| -> Option<f64> {
        let at = line.find(&format!("\"{key}\":"))?;
        let rest = &line[at + key.len() + 3..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse::<f64>().ok()
    };
    Some((grab("norm_solo")?, grab("norm_fused")?))
}

fn main() {
    header(
        "Harness throughput: scheduled GWorks/sec on one core",
        "1 worker x 2 GPUs x 4 streams, 512 tiny works (16 f32) per \
         submit/drain round; wall-clock, not simulated time",
    );

    let baseline_mode = std::env::var("GFLINK_BENCH_BASELINE").is_ok_and(|v| v == "1");
    let calib = calibrate();
    let solo = run_path(BatchConfig::default(), 1.0, None);
    let fused = run_path(BatchConfig::enabled(), 1.0, None);
    assert_eq!(
        solo.digest_per_work.to_bits(),
        fused.digest_per_work.to_bits(),
        "fused path must be digest-identical to solo"
    );

    // The same two paths with the metrics plane live: counters, gauges and
    // histograms feed on every work, so the delta against the dark runs is
    // the plane's whole steady-state cost.
    let m_solo_reg = Metrics::new(Metrics::DEFAULT_CADENCE);
    let m_solo = metrics_cost(&BatchConfig::default(), &m_solo_reg);
    let m_fused_reg = Metrics::new(Metrics::DEFAULT_CADENCE);
    let m_fused = metrics_cost(&BatchConfig::enabled(), &m_fused_reg);
    for m in [&m_solo, &m_fused] {
        assert_eq!(
            solo.digest_per_work.to_bits(),
            m.digest_per_work.to_bits(),
            "the metrics plane must not change results"
        );
    }
    assert!(
        m_solo_reg.export_prometheus().contains("gflink_"),
        "the enabled run must actually feed the registry"
    );
    let (overhead_solo, overhead_fused) = (m_solo.overhead, m_fused.overhead);

    let norm_solo = solo.gworks_per_sec / calib;
    let norm_fused = fused.gworks_per_sec / calib;
    let base_norm_solo = baseline::SOLO_GWORKS_PER_SEC / baseline::CALIB_OPS_PER_SEC;
    let base_norm_fused = baseline::FUSED_GWORKS_PER_SEC / baseline::CALIB_OPS_PER_SEC;
    let speedup_solo = if base_norm_solo > 0.0 {
        norm_solo / base_norm_solo
    } else {
        f64::NAN
    };
    let speedup_fused = if base_norm_fused > 0.0 {
        norm_fused / base_norm_fused
    } else {
        f64::NAN
    };

    row(&[
        "path".into(),
        "GWorks/s".into(),
        "works".into(),
        "rounds".into(),
        "allocs/work".into(),
        "normalized".into(),
        "vs baseline".into(),
    ]);
    row(&[
        "solo".into(),
        format!("{:.0}", solo.gworks_per_sec),
        format!("{}", solo.works),
        format!("{}", solo.rounds),
        format!("{:.2}", solo.allocs_per_work),
        format!("{norm_solo:.4}"),
        format!("{speedup_solo:.2}x"),
    ]);
    row(&[
        "fused".into(),
        format!("{:.0}", fused.gworks_per_sec),
        format!("{}", fused.works),
        format!("{}", fused.rounds),
        format!("{:.2}", fused.allocs_per_work),
        format!("{norm_fused:.4}"),
        format!("{speedup_fused:.2}x"),
    ]);
    for (path, m) in [("solo+metrics", &m_solo), ("fused+metrics", &m_fused)] {
        row(&[
            path.into(),
            format!("{:.0}", m.gworks_per_sec),
            format!("{METRIC_PAIRS} pairs"),
            "-".into(),
            format!("{:.2}", m.allocs_per_work),
            format!("{:.4}", m.gworks_per_sec / calib),
            format!(
                "{:+.1}% cost (IQR {:+.1}…{:+.1}%)",
                100.0 * m.overhead,
                100.0 * m.overhead_iqr.0,
                100.0 * m.overhead_iqr.1
            ),
        ]);
    }
    println!("(calibration: {calib:.0} boxed-heap ops/s on this machine)");

    let entry = jobj! {
        "bench": "harness_throughput",
        "works_per_round": WORKS_PER_ROUND,
        "floats_per_work": N_FLOATS,
        "calib_ops_per_sec": calib,
        "solo_gworks_per_sec": solo.gworks_per_sec,
        "fused_gworks_per_sec": fused.gworks_per_sec,
        "solo_allocs_per_work": solo.allocs_per_work,
        "fused_allocs_per_work": fused.allocs_per_work,
        "norm_solo": norm_solo,
        "norm_fused": norm_fused,
        "baseline_solo_gworks_per_sec": baseline::SOLO_GWORKS_PER_SEC,
        "baseline_fused_gworks_per_sec": baseline::FUSED_GWORKS_PER_SEC,
        "baseline_calib_ops_per_sec": baseline::CALIB_OPS_PER_SEC,
        "speedup_solo": speedup_solo,
        "speedup_fused": speedup_fused,
        "metrics_solo_gworks_per_sec": m_solo.gworks_per_sec,
        "metrics_fused_gworks_per_sec": m_fused.gworks_per_sec,
        "metrics_solo_allocs_per_work": m_solo.allocs_per_work,
        "metrics_fused_allocs_per_work": m_fused.allocs_per_work,
        "metrics_overhead_solo": overhead_solo,
        "metrics_overhead_fused": overhead_fused,
        "metrics_pairs": METRIC_PAIRS,
        "metrics_overhead_solo_q1": m_solo.overhead_iqr.0,
        "metrics_overhead_solo_q3": m_solo.overhead_iqr.1,
        "metrics_overhead_fused_q1": m_fused.overhead_iqr.0,
        "metrics_overhead_fused_q3": m_fused.overhead_iqr.1,
    };
    write_results("harness_throughput", &entry);

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let trajectory_path = format!("{root}/BENCH_throughput.json");
    let committed = std::fs::read_to_string(&trajectory_path).unwrap_or_default();

    if baseline_mode {
        println!("(baseline mode: gates skipped)");
    } else {
        assert!(
            solo.allocs_per_work <= gates::MAX_SOLO_ALLOCS_PER_WORK,
            "allocation gate: solo path pays {:.2} allocs per scheduled \
             GWork (pre-refactor: {:.2}; gate: {:.1})",
            solo.allocs_per_work,
            baseline::SOLO_ALLOCS_PER_WORK,
            gates::MAX_SOLO_ALLOCS_PER_WORK
        );
        assert!(
            fused.allocs_per_work <= gates::MAX_FUSED_ALLOCS_PER_WORK,
            "allocation gate: fused path pays {:.2} allocs per scheduled \
             GWork (gate: {:.1})",
            fused.allocs_per_work,
            gates::MAX_FUSED_ALLOCS_PER_WORK
        );
        // The metrics plane must stay inside the same allocation budget —
        // its per-work feeds are tallies and interned handles, not fresh heap —
        // and within the overhead ceiling of the dark runs.
        assert!(
            m_solo.allocs_per_work <= gates::MAX_SOLO_ALLOCS_PER_WORK,
            "metrics allocation gate: solo-with-metrics pays {:.2} allocs \
             per scheduled GWork (gate: {:.1})",
            m_solo.allocs_per_work,
            gates::MAX_SOLO_ALLOCS_PER_WORK
        );
        assert!(
            m_fused.allocs_per_work <= gates::MAX_FUSED_ALLOCS_PER_WORK,
            "metrics allocation gate: fused-with-metrics pays {:.2} allocs \
             per scheduled GWork (gate: {:.1})",
            m_fused.allocs_per_work,
            gates::MAX_FUSED_ALLOCS_PER_WORK
        );
        assert!(
            overhead_solo <= gates::MAX_METRICS_OVERHEAD,
            "metrics overhead gate: the enabled plane costs a median {:.1}% \
             of solo throughput over {METRIC_PAIRS} pairs (gate: {:.0}%)",
            100.0 * overhead_solo,
            100.0 * gates::MAX_METRICS_OVERHEAD
        );
        assert!(
            overhead_fused <= gates::MAX_METRICS_OVERHEAD,
            "metrics overhead gate: the enabled plane costs a median {:.1}% \
             of fused throughput over {METRIC_PAIRS} pairs (gate: {:.0}%)",
            100.0 * overhead_fused,
            100.0 * gates::MAX_METRICS_OVERHEAD
        );
        assert!(
            speedup_solo >= gates::MIN_SPEEDUP,
            "solo throughput regressed to {speedup_solo:.2}x the pre-refactor \
             baseline (normalized {norm_solo:.4} vs baseline {base_norm_solo:.4})"
        );
        assert!(
            speedup_fused >= gates::MIN_SPEEDUP,
            "fused throughput regressed to {speedup_fused:.2}x the pre-refactor \
             baseline (normalized {norm_fused:.4} vs baseline {base_norm_fused:.4})"
        );
        if let Some((solo_ref, fused_ref)) = committed_normalized(&committed) {
            assert!(
                norm_solo >= 0.8 * solo_ref,
                "regression gate: normalized solo throughput {norm_solo:.4} \
                 dropped >20% below committed {solo_ref:.4}"
            );
            assert!(
                norm_fused >= 0.8 * fused_ref,
                "regression gate: normalized fused throughput {norm_fused:.4} \
                 dropped >20% below committed {fused_ref:.4}"
            );
            println!(
                "(regression gate: solo {:.0}% / fused {:.0}% of committed trajectory)",
                100.0 * norm_solo / solo_ref,
                100.0 * norm_fused / fused_ref
            );
        } else {
            println!("(no committed BENCH_throughput.json entry; regression gate idle)");
        }
    }

    // Append this run to the trajectory file (one JSON object per line).
    let mut text = committed;
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&entry.render());
    text.push('\n');
    let _ = std::fs::write(&trajectory_path, text);
}
