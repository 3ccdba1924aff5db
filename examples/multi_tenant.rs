//! Concurrent multi-application execution (§6.6.4, Fig. 8c/8d).
//!
//! Runs KMeans, SpMV and PointAdd **genuinely concurrently** — one driver
//! thread per job — on one shared cluster + GPU fabric. The job scheduler
//! arbitrates GWork dispatch with weighted fair queuing, and a
//! deterministic `JobGate` baton keeps the thread interleaving replayable:
//! the same timelines come out on every run, and every job's digest is
//! bit-identical to its exclusive (solo-fabric) run.
//!
//! Run with: `cargo run --release --example multi_tenant`

use gflink::prelude::*;

fn params_km(s: &Setup) -> kmeans::Params {
    let mut p = kmeans::Params::paper(150, s);
    p.parallelism = 10;
    p
}

fn params_sp(s: &Setup) -> spmv::Params {
    let mut p = spmv::Params::paper(2, s);
    p.parallelism = 10;
    p
}

fn params_pa(s: &Setup) -> pointadd::Params {
    let mut p = pointadd::Params::standard(s);
    p.parallelism = 10;
    p
}

fn main() {
    let workers = 10;
    println!("three applications, parallelism 10 each, {workers} workers\n");

    // Exclusive: each job owns a fresh cluster.
    let s1 = Setup::standard(workers);
    let ek = kmeans::run_gpu(&s1, &params_km(&s1));
    let s2 = Setup::standard(workers);
    let es = spmv::run_gpu(&s2, &params_sp(&s2));
    let s3 = Setup::standard(workers);
    let ep = pointadd::run_gpu(&s3, &params_pa(&s3));

    // Concurrent: one shared cluster + GPU fabric, one OS thread per job,
    // all submitted at t=0. The fabric opts into weighted-fair GWork
    // arbitration and small-GWork transfer batching (§4.1.2); the digest
    // assertions below double as a check that neither contention, fair
    // queuing nor batching ever changes results.
    let mut fabric_cfg = FabricConfig::default();
    fabric_cfg.worker.transfer.batch = BatchConfig::enabled();
    fabric_cfg.worker.scheduler = SchedulerConfig::weighted_fair();
    let shared = Setup::with_configs(ClusterConfig::standard(workers), fabric_cfg);
    let runs = run_concurrent(vec![
        ("kmeans", {
            let s = shared.clone();
            Box::new(move || kmeans::run_gpu_at(&s, &params_km(&s), SimTime::ZERO))
        }),
        ("spmv", {
            let s = shared.clone();
            Box::new(move || spmv::run_gpu_at(&s, &params_sp(&s), SimTime::ZERO))
        }),
        ("pointadd", {
            let s = shared.clone();
            Box::new(move || pointadd::run_gpu_at(&s, &params_pa(&s), SimTime::ZERO))
        }),
    ]);

    println!("app        exclusive   concurrent   gpu rollup (concurrent)");
    for ((name, c), e) in runs.iter().zip([&ek, &es, &ep]) {
        let gpu = c.report.gpu.as_ref().expect("GPU job carries a rollup");
        println!(
            "{name:<10} {:>8.2}s   {:>8.2}s   {}",
            e.report.total.as_secs_f64(),
            c.report.total.as_secs_f64(),
            gpu.one_line()
        );
        println!(
            "           transfer: pinned pool {:.0}% hit rate ({} hits / {} misses), \
             {} fused batches (mean {:.1} works/batch)",
            gpu.pinned_hit_rate() * 100.0,
            gpu.pinned_hits,
            gpu.pinned_misses,
            gpu.batches,
            gpu.mean_batch_size(),
        );
        assert_eq!(
            e.digest.to_bits(),
            c.digest.to_bits(),
            "{name}: a concurrent tenant must produce its exclusive-run digest"
        );
    }
    let makespan = runs
        .iter()
        .map(|(_, r)| r.report.finished_at)
        .max()
        .unwrap();
    println!(
        "\nconcurrent makespan: {makespan} (all jobs share slots, NICs, disks and GPUs \
         under weighted-fair arbitration)"
    );
    // Phase boundary: the shared fabric's health view once every tenant
    // drained — per-device busy time, works executed, and a quiet ledger.
    println!("\ncluster health after the concurrent phase:");
    print!("{}", shared.fabric.cluster_snapshot(makespan));
    println!("results bit-identical to exclusive runs: true");
}
