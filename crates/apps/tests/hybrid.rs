//! Hybrid CPU+GPU placement transparency (§5 + the online cost model).
//!
//! The `HybridCostModel` policy changes *where* a GWork executes — GPU,
//! host CPU pool, or split across both — but must never change *what* it
//! computes. Every app therefore has to produce a bit-identical digest
//! under hybrid placement vs locality-aware GPU-only scheduling, with
//! quiet fault ledgers on both sides; the hybrid timeline itself must
//! replay deterministically; and killing a device mid-hybrid-run (split
//! children in flight) must recover without drifting the digest.

use gflink_apps::{concomp, kmeans, linreg, pagerank, pointadd, spmv, wordcount, AppRun, Setup};
use gflink_core::{FabricConfig, HybridConfig, SchedulingPolicy};
use gflink_flink::ClusterConfig;
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use proptest::prelude::*;

const WORKERS: usize = 4;

fn setup(policy: SchedulingPolicy) -> Setup {
    let mut fabric = FabricConfig::default();
    fabric.worker.scheduling = policy;
    Setup::with_configs(ClusterConfig::standard(WORKERS), fabric)
}

/// A hybrid fabric shaped to force adaptive block *splits*: a tiny split
/// floor makes every pointadd block eligible, and a huge balance window
/// accepts splits far from parity.
fn split_setup() -> Setup {
    let mut fabric = FabricConfig::default();
    fabric.worker.scheduling = SchedulingPolicy::HybridCostModel;
    fabric.worker.hybrid = HybridConfig {
        min_split_elems: 128,
        split_balance: 1_000.0,
    };
    Setup::with_configs(ClusterConfig::standard(WORKERS), fabric)
}

type App = fn(&Setup) -> AppRun;

/// All seven apps at small scale (two iterations where iterative) — the
/// same coverage grid as `batching.rs`.
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

fn pointadd_small(s: &Setup) -> AppRun {
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
}

#[test]
fn every_app_is_digest_identical_hybrid_vs_locality_aware() {
    let mut routed_cpu = 0u64;
    for (name, run) in apps() {
        let base_setup = setup(SchedulingPolicy::LocalityAware);
        let base = run(&base_setup);
        assert_quiet(name, &base, &base_setup);

        let hyb_setup = setup(SchedulingPolicy::HybridCostModel);
        let hyb = run(&hyb_setup);
        assert_quiet(name, &hyb, &hyb_setup);

        assert_eq!(
            hyb.digest.to_bits(),
            base.digest.to_bits(),
            "{name}: hybrid placement drifted the digest"
        );
        let g = hyb.report.gpu.as_ref().expect("gpu rollup");
        routed_cpu += g.hybrid_cpu;
    }
    // The grid must actually exercise the hybrid path: the transfer-bound
    // apps route blocks to the host, or this test proved nothing.
    assert!(
        routed_cpu > 0,
        "no app routed a single block to the CPU — hybrid never engaged"
    );
}

#[test]
fn hybrid_timeline_replays_deterministically() {
    let a = pointadd_small(&setup(SchedulingPolicy::HybridCostModel));
    let b = pointadd_small(&setup(SchedulingPolicy::HybridCostModel));
    assert_eq!(a.digest.to_bits(), b.digest.to_bits(), "digest drifted");
    assert_eq!(
        a.report.total, b.report.total,
        "hybrid timeline is not replay-deterministic"
    );
}

#[test]
fn adaptive_splits_are_digest_identical_and_merge_cleanly() {
    let base_setup = setup(SchedulingPolicy::LocalityAware);
    let base = pointadd_small(&base_setup);

    let s = split_setup();
    let split = pointadd_small(&s);
    assert_quiet("pointadd", &split, &s);
    assert_eq!(
        split.digest.to_bits(),
        base.digest.to_bits(),
        "split-and-merge drifted the digest"
    );
    let g = split.report.gpu.as_ref().expect("gpu rollup");
    assert!(
        g.hybrid_splits > 0,
        "split-shaped fabric split nothing — the test exercised nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Killing a GPU mid-hybrid-run — with split children potentially in
    /// flight on the dying device — must recover losslessly: digest
    /// bit-identical to the unfaulted hybrid baseline, nothing failed
    /// permanently, nothing abandoned in the pen.
    #[test]
    fn device_kill_mid_hybrid_run_is_digest_identical(
        worker in 0usize..WORKERS,
        kill_us in 500u64..500_000,
    ) {
        let baseline = pointadd_small(&split_setup());
        let s = split_setup();
        let plan = FaultPlan::new().with(
            SimTime::from_micros(kill_us),
            FaultKind::GpuLost { gpu: 0 },
        );
        s.fabric.with_managers(|ms| ms[worker].set_fault_plan(plan));
        let faulted = pointadd_small(&s);
        prop_assert_eq!(
            faulted.digest.to_bits(),
            baseline.digest.to_bits(),
            "digest drifted after killing worker {}'s gpu0 at {}us",
            worker, kill_us
        );
        // Balanced, not quiet: the loss is ledgered, but no work may fail
        // permanently, leak from the pen, or go missing.
        let f = &faulted.report.faults;
        prop_assert_eq!(f.works_failed, 0);
        prop_assert_eq!(f.parked_abandoned, 0);
        prop_assert!(
            f.gpus_lost <= 1,
            "only the scripted loss may fire, got {:?}", f
        );
    }
}
