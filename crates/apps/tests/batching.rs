//! Transfer-batching transparency (§4.1.2).
//!
//! Small-GWork transfer batching changes *when* bytes cross the PCIe bus
//! (fused H2D/D2H calls, one α per direction for the whole group) but must
//! never change *what* they decode to. Every app therefore has to produce a
//! bit-identical digest batched vs unbatched, with quiet fault ledgers on
//! both sides — including when all apps share one batching fabric
//! sequentially (the `isolation.rs` pattern, with batching switched on).
//!
//! The fabric is deliberately shaped into the backlog regime (one
//! single-stream C2050 per worker, 64 KiB blocks, fast producers): an idle
//! fabric never batches by design, so a default-shaped fabric would pass
//! this test vacuously.

use gflink_apps::{concomp, kmeans, linreg, pagerank, pointadd, spmv, wordcount, AppRun, Setup};
use gflink_core::{BatchConfig, FabricConfig};
use gflink_flink::ClusterConfig;
use gflink_gpu::GpuModel;
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use proptest::prelude::*;

const WORKERS: usize = 4;

/// A fabric shaped so that 64 KiB GWorks outpace the single stream and
/// queue — the only regime in which the batcher engages.
fn setup(batch: BatchConfig) -> Setup {
    let mut fabric = FabricConfig {
        block_bytes: 64 << 10,
        producer_overhead: SimTime::from_micros(5),
        ..FabricConfig::default()
    };
    fabric.worker.models = vec![GpuModel::TeslaC2050];
    fabric.worker.streams_per_gpu = 1;
    fabric.worker.transfer.batch = batch;
    Setup::with_configs(ClusterConfig::standard(WORKERS), fabric)
}

type App = fn(&Setup) -> AppRun;

/// All seven apps at small scale (two iterations where iterative), enough
/// blocks per partition that fusing genuinely happens.
fn apps() -> Vec<(&'static str, App)> {
    vec![
        ("kmeans", |s: &Setup| {
            let mut p = kmeans::Params::paper(1, s);
            p.iterations = 2;
            kmeans::run_gpu(s, &p)
        }),
        ("pagerank", |s: &Setup| {
            let mut p = pagerank::Params::paper(1, s);
            p.iterations = 2;
            pagerank::run_gpu(s, &p)
        }),
        ("wordcount", |s: &Setup| {
            wordcount::run_gpu(
                s,
                &wordcount::Params {
                    bytes_logical: 64_000_000,
                    words_actual: 4_000,
                    parallelism: s.default_parallelism(),
                    seed: wordcount::WORDCOUNT_SEED,
                },
            )
        }),
        ("concomp", |s: &Setup| {
            let mut p = concomp::Params::paper(1, s);
            p.iterations = 2;
            concomp::run_gpu(s, &p)
        }),
        ("linreg", |s: &Setup| {
            let mut p = linreg::Params::paper(1, s);
            p.iterations = 2;
            linreg::run_gpu(s, &p)
        }),
        ("spmv", |s: &Setup| {
            spmv::run_gpu(
                s,
                &spmv::Params {
                    rows_logical: 1_000_000,
                    rows_actual: 2_000,
                    iterations: 2,
                    parallelism: s.default_parallelism(),
                    seed: spmv::SPMV_SEED,
                },
            )
        }),
        ("pointadd", |s: &Setup| {
            pointadd::run_gpu(
                s,
                &pointadd::Params {
                    n_logical: 8_000_000,
                    n_actual: 20_000,
                    iterations: 2,
                    parallelism: s.default_parallelism(),
                    delta: (1.0, -0.5),
                },
            )
        }),
    ]
}

fn assert_quiet(name: &str, run: &AppRun, setup: &Setup) {
    assert!(
        run.report.faults.is_quiet(),
        "{name}: healthy run must report a zero-delta ledger, got {:?}",
        run.report.faults
    );
    setup.fabric.with_managers(|ms| {
        for m in ms.iter() {
            assert!(
                m.fault_ledger().is_quiet(),
                "{name}: worker {} ledger not quiet: {:?}",
                m.worker_id(),
                m.fault_ledger()
            );
        }
    });
}

#[test]
fn every_app_is_digest_identical_batched_and_unbatched() {
    // Unbatched baselines, each on a fresh (saturating but non-batching)
    // fabric.
    let mut base = Vec::new();
    for (name, run) in apps() {
        let s = setup(BatchConfig::default());
        let r = run(&s);
        assert_quiet(name, &r, &s);
        base.push((name, r.digest));
    }

    // All apps sequentially on ONE shared batching fabric: every digest
    // must match its unbatched baseline bit for bit.
    let shared = setup(BatchConfig::enabled());
    let mut total_batches = 0u64;
    for (i, (name, run)) in apps().iter().enumerate() {
        let r = run(&shared);
        assert_quiet(name, &r, &shared);
        assert_eq!(
            r.digest.to_bits(),
            base[i].1.to_bits(),
            "{name}: batched digest drifted from unbatched baseline"
        );
        total_batches += r.report.gpu.as_ref().map_or(0, |g| g.batches);
    }
    assert!(
        total_batches > 0,
        "shared batching fabric fused no batches — the test exercised nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The transparency property must hold at *any* point of the threshold
    /// space, not just the defaults: batch fill, size cutoff and window all
    /// move which works fuse, never what they compute.
    #[test]
    fn pointadd_digest_invariant_under_batch_thresholds(
        max_works in 2usize..12,
        small_shift in 14u32..20, // 16 KiB ..= 512 KiB cutoff
        window_us in 10u64..200,
    ) {
        let run = |s: &Setup| {
            pointadd::run_gpu(
                s,
                &pointadd::Params {
                    n_logical: 4_000_000,
                    n_actual: 10_000,
                    iterations: 2,
                    parallelism: s.default_parallelism(),
                    delta: (1.0, -0.5),
                },
            )
        };
        let baseline = run(&setup(BatchConfig::default()));
        let batch = BatchConfig {
            enabled: true,
            max_works,
            small_work_bytes: 1u64 << small_shift,
            window: SimTime::from_micros(window_us),
        };
        let s = setup(batch);
        let batched = run(&s);
        assert_quiet("pointadd", &batched, &s);
        prop_assert_eq!(
            batched.digest.to_bits(),
            baseline.digest.to_bits(),
            "digest drifted under batch thresholds (max_works={}, cutoff=2^{}, window={}us)",
            max_works, small_shift, window_us
        );
    }

    /// Killing a worker's only GPU while fused flights are in the air must
    /// not corrupt anything: flight members are recovered one by one, the
    /// survivors (here, the CPU fallback path) recompute them, and the
    /// digest stays bit-identical with a balanced ledger — no work lost,
    /// none left parked.
    #[test]
    fn device_kill_mid_fused_flight_is_digest_identical(
        worker in 0usize..WORKERS,
        kill_us in 1_200_000u64..1_350_000,
    ) {
        let run = |s: &Setup| {
            pointadd::run_gpu(
                s,
                &pointadd::Params {
                    n_logical: 4_000_000,
                    n_actual: 10_000,
                    iterations: 2,
                    parallelism: s.default_parallelism(),
                    delta: (1.0, -0.5),
                },
            )
        };
        let baseline = run(&setup(BatchConfig::enabled()));
        let s = setup(BatchConfig::enabled());
        let plan = FaultPlan::new().with(
            SimTime::from_micros(kill_us),
            FaultKind::GpuLost { gpu: 0 },
        );
        s.fabric.with_managers(|ms| ms[worker].set_fault_plan(plan));
        let faulted = run(&s);
        prop_assert_eq!(
            faulted.digest.to_bits(),
            baseline.digest.to_bits(),
            "digest drifted after killing worker {}'s GPU at {}us",
            worker, kill_us
        );
        // Balanced, not quiet: the loss is ledgered, but nothing failed
        // permanently, leaked from the pen, or went missing.
        let f = &faulted.report.faults;
        prop_assert_eq!(f.works_failed, 0);
        prop_assert_eq!(f.parked_abandoned, 0);
        prop_assert!(
            f.gpus_lost <= 1,
            "only the scripted loss may fire, got {:?}", f
        );
        // The other three workers keep fusing: the regime under test —
        // batching — stayed engaged through the fault.
        let batches = faulted.report.gpu.as_ref().map_or(0, |g| g.batches);
        prop_assert!(batches > 0, "no batches fused; the kill test exercised nothing");
    }
}
