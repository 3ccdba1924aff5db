//! Ablation: the transfer-channel optimization layer (§4.1.2).
//!
//! Compares three configurations of the JVM↔GPU transfer channel on the
//! small-record apps, where per-call overhead (Table 2's α) is largest
//! relative to payload:
//!
//! * **pageable** — every H2D pays an extra synchronous host staging
//!   memcpy at `HOST_STAGING_BYTES_PER_SEC`, the path GFlink's off-heap
//!   direct buffers avoid;
//! * **pinned** — page-locked staging through the [`PinnedPool`]; the
//!   Table 2 fitted path (the default);
//! * **pinned+batched** — additionally coalesces small queued GWorks into
//!   fused H2D/D2H calls, paying one α per direction for the whole group
//!   (CrystalGPU-style task batching).
//!
//! The block size is deliberately small (64 KiB vs the 4 MiB fabric
//! default) so every GWork is transfer-call-bound — the regime the
//! optimization targets. Digests must be bit-identical across all three
//! variants: the channel only changes *when* bytes move, never *what*
//! they decode to.

use gflink_apps::{pointadd, wordcount, AppRun, Setup};
use gflink_bench::{header, jobj, median_map_wall, row, write_results, Json};
use gflink_core::{BatchConfig, FabricConfig};
use gflink_flink::{ClusterConfig, GpuRollup};
use gflink_gpu::{GpuModel, TransferMode};
use gflink_sim::SimTime;

const WORKERS: usize = 4;
const BLOCK_BYTES: u64 = 64 << 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Pageable,
    Pinned,
    PinnedBatched,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Pageable => "pageable",
            Variant::Pinned => "pinned",
            Variant::PinnedBatched => "pinned+batched",
        }
    }
}

const VARIANTS: [Variant; 3] = [Variant::Pageable, Variant::Pinned, Variant::PinnedBatched];

fn setup(v: Variant) -> Setup {
    // One C2050 with a single-stream bulk per worker and fast producers:
    // the 64 KiB blocks then outpace the stream, creating the backlog
    // regime task batching targets (an idle fabric never batches by
    // design — a work that finds an idle stream runs immediately).
    let mut fabric = FabricConfig {
        block_bytes: BLOCK_BYTES,
        producer_overhead: SimTime::from_micros(5),
        ..FabricConfig::default()
    };
    fabric.worker.models = vec![GpuModel::TeslaC2050];
    fabric.worker.streams_per_gpu = 1;
    match v {
        Variant::Pageable => fabric.worker.transfer.mode = TransferMode::Pageable,
        Variant::Pinned => {}
        Variant::PinnedBatched => fabric.worker.transfer.batch = BatchConfig::enabled(),
    }
    Setup::with_configs(ClusterConfig::standard(WORKERS), fabric)
}

fn rollup(run: &AppRun) -> &GpuRollup {
    run.report.gpu.as_ref().expect("GPU app must have a rollup")
}

fn bench_app(name: &str, map_phase: &str, run: impl Fn(&Setup) -> AppRun, out: &mut Vec<Json>) {
    let runs: Vec<AppRun> = VARIANTS
        .iter()
        .map(|&v| {
            let s = setup(v);
            run(&s)
        })
        .collect();
    let [pageable, pinned, batched] = &runs[..] else {
        unreachable!()
    };

    // The channel must be invisible to results: bit-identical digests.
    for (v, r) in VARIANTS.iter().zip(&runs) {
        assert_eq!(
            r.digest.to_bits(),
            pageable.digest.to_bits(),
            "{name}: {} digest drifted from pageable",
            v.label()
        );
    }
    let br = rollup(batched);
    // The transfer effect concentrates in the GPU map phase; the job total
    // also carries HDFS IO and CPU glue, diluting the visible gain.
    let map_pageable = median_map_wall(pageable, map_phase);
    let map_batched = median_map_wall(batched, map_phase);
    row(&[
        name.into(),
        format!("{:.4}", pageable.total_secs()),
        format!("{:.4}", pinned.total_secs()),
        format!("{:.4}", batched.total_secs()),
        format!("{:.2} ms", map_pageable.as_secs_f64() * 1e3),
        format!("{:.2} ms", map_batched.as_secs_f64() * 1e3),
        format!(
            "{:.2}x",
            map_pageable.as_secs_f64() / map_batched.as_secs_f64().max(1e-12)
        ),
        format!("{}", br.batches),
        format!("{:.1}", br.mean_batch_size()),
        format!("{:.0}%", br.pinned_hit_rate() * 100.0),
        format!("{:.3} ms", br.alpha_saved.as_secs_f64() * 1e3),
    ]);

    // The acceptance bar: batched transfers strictly beat the pageable
    // baseline, and batches actually formed (backlog engaged the fuser).
    assert!(
        batched.total_secs() < pageable.total_secs(),
        "{name}: pinned+batched ({:.4}s) must be strictly faster than pageable ({:.4}s)",
        batched.total_secs(),
        pageable.total_secs()
    );
    assert!(
        br.batches > 0,
        "{name}: batching variant dispatched no fused batches"
    );

    out.push(jobj! {
        "app": name,
        "block_bytes": BLOCK_BYTES,
        "pageable_secs": pageable.total_secs(),
        "pinned_secs": pinned.total_secs(),
        "pinned_batched_secs": batched.total_secs(),
        "map_wall_pageable_secs": map_pageable,
        "map_wall_pinned_batched_secs": map_batched,
        "map_speedup_vs_pageable": map_pageable.as_secs_f64() / map_batched.as_secs_f64().max(1e-12),
        "batches": br.batches,
        "batched_works": br.batched_works,
        "mean_batch_size": br.mean_batch_size(),
        "pinned_hit_rate": br.pinned_hit_rate(),
        "alpha_saved_secs": br.alpha_saved,
    });
}

fn main() {
    header(
        "Ablation: transfer channel",
        "pageable vs pinned vs pinned+batched, 64 KiB blocks, 4 workers",
    );
    row(&[
        "app".into(),
        "pageable (s)".into(),
        "pinned (s)".into(),
        "pinned+batched (s)".into(),
        "map pageable".into(),
        "map batched".into(),
        "map gain".into(),
        "batches".into(),
        "works/batch".into(),
        "pool hit".into(),
        "α saved".into(),
    ]);

    let mut results = Vec::new();
    bench_app(
        "wordcount",
        "histogram",
        |s| {
            wordcount::run_gpu(
                s,
                &wordcount::Params {
                    bytes_logical: 64_000_000,
                    words_actual: 4_000,
                    parallelism: s.default_parallelism(),
                    seed: 11,
                },
            )
        },
        &mut results,
    );
    bench_app(
        "pointadd",
        "addPoint",
        |s| {
            pointadd::run_gpu(
                s,
                &pointadd::Params {
                    n_logical: 8_000_000,
                    n_actual: 20_000,
                    iterations: 3,
                    parallelism: s.default_parallelism(),
                    delta: (1.0, -0.5),
                },
            )
        },
        &mut results,
    );

    println!(
        "(expect: pageable pays an extra host memcpy per H2D; batching then \
         amortizes the per-call α across fused small works — digests are \
         bit-identical across all three paths)"
    );
    write_results("ablation_transfer", &Json::Arr(results));
}
