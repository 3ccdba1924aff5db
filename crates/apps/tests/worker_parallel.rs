//! Worker-parallel GDST operators.
//!
//! A dark `gpu_map_partition` whose workers each hold enough blocks runs
//! every worker's producer and drain on a thread of its own; attaching a
//! tracer keeps the steps in worker order on the calling thread. Both
//! paths must produce the same outputs: digests, `JobReport`s and
//! per-iteration times equal, across cache eviction, bounded outputs,
//! hybrid placement, device loss and a checkpoint restore. Inputs are
//! paper-scale in logical size and tiny in materialised records, so each
//! worker holds hundreds of blocks per op.

use gflink_apps::{kmeans, pagerank, pointadd, run_concurrent, AppRun, ExecMode, Setup};
use gflink_core::{
    CheckpointConfig, CpuFallback, FabricConfig, GflinkEnv, GpuFabric, GpuMapSpec, SchedulingPolicy,
};
use gflink_flink::ClusterConfig;
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRecord, RecordReader, RecordView};
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

const WORKERS: usize = 2;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

/// What a run must repeat exactly on either executor path.
#[derive(Debug, PartialEq)]
struct Outcome {
    digest: u64,
    report: String,
    per_iteration: Vec<SimTime>,
}

impl Outcome {
    fn of(run: &AppRun) -> Outcome {
        Outcome {
            digest: run.digest.to_bits(),
            report: format!("{:?}", run.report),
            per_iteration: run.per_iteration.clone(),
        }
    }
}

/// Run `job` on a fresh setup twice — dark, then with a tracer attached —
/// and assert equal outcomes. Returns the dark run and its setup.
fn dark_and_traced(setup: impl Fn() -> Setup, job: impl Fn(&Setup) -> AppRun) -> (Setup, AppRun) {
    let dark_setup = setup();
    let dark = job(&dark_setup);
    let traced_setup = setup();
    traced_setup.fabric.enable_tracing();
    let traced = job(&traced_setup);
    assert_eq!(Outcome::of(&dark), Outcome::of(&traced));
    (dark_setup, dark)
}

fn multi_core() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// The threads a kernel ran on.
#[derive(Clone, Default)]
struct Threads(Arc<Mutex<HashSet<ThreadId>>>);

impl Threads {
    /// Note the calling thread.
    fn note(&self) {
        self.0.lock().unwrap().insert(std::thread::current().id());
    }

    fn ids(&self) -> HashSet<ThreadId> {
        self.0.lock().unwrap().clone()
    }
}

/// Materialised points of the shift job; at 2·10⁵ logical points each,
/// every one of the 8 partitions cuts into ≈ 190 blocks of 4 MiB, so each
/// worker holds ≈ 760.
const SHIFT_POINTS: usize = 4_000;
const SHIFT_SCALE: f64 = 2.0e5;

/// Register `shift`: `(x, y) → (x + 1, y − 2)`, noting the thread of every
/// launch in `threads`.
fn register_shift(fabric: &GpuFabric, threads: &Threads) {
    let threads = threads.clone();
    fabric.register_kernel("shift", move |args: &mut KernelArgs<'_, '_>| {
        threads.note();
        let (def, n) = (Point::def(), args.n_actual);
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + 1.0);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) - 2.0);
        }
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 16.0)
    });
}

/// Two chained `shift` passes over one resident GDST. Returns the run and
/// the frontier at the start of each pass.
fn shift_job(setup: &Setup, name: &str, threads: &Threads) -> (AppRun, Vec<SimTime>) {
    register_shift(&setup.fabric, threads);
    let env = GflinkEnv::submit(&setup.cluster, &setup.fabric, name, SimTime::ZERO);
    let pts: Vec<Point> = (0..SHIFT_POINTS)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32) * 0.5,
        })
        .collect();
    let ds = env
        .flink
        .parallelize("pts", pts, setup.default_parallelism(), SHIFT_SCALE);
    let mut g = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("shift").build(&setup.fabric).expect("spec");
    let (mut starts, mut per_iteration) = (Vec::new(), Vec::new());
    for pass in 0..2 {
        let start = env.flink.frontier();
        starts.push(start);
        g = g.gpu_map_partition::<Point>(&format!("shift{pass}"), &spec);
        per_iteration.push(env.flink.frontier() - start);
    }
    let got = g.inner().collect("get", 8.0);
    let digest = got
        .iter()
        .enumerate()
        .map(|(i, p)| (i + 1) as f64 * (p.x as f64 + 3.0 * p.y as f64))
        .sum();
    let run = AppRun {
        mode: ExecMode::Gpu,
        report: env.finish(),
        digest,
        per_iteration,
    };
    (run, starts)
}

/// Lose both devices of every worker at `at`.
fn kill_all_at(setup: &Setup, at: SimTime) {
    setup.fabric.with_managers(|ms| {
        for m in ms.iter_mut() {
            m.set_fault_plan(
                FaultPlan::new()
                    .with(at, FaultKind::GpuLost { gpu: 0 })
                    .with(at, FaultKind::GpuLost { gpu: 1 }),
            );
        }
    });
}

#[test]
fn dark_ops_run_on_worker_threads_and_traced_ops_on_one() {
    let (dark_threads, traced_threads) = (Threads::default(), Threads::default());
    let dark = shift_job(&Setup::standard(WORKERS), "shift", &dark_threads).0;
    let traced_setup = Setup::standard(WORKERS);
    traced_setup.fabric.enable_tracing();
    let traced = shift_job(&traced_setup, "shift", &traced_threads).0;
    assert_eq!(Outcome::of(&dark), Outcome::of(&traced));
    let (dark_ids, traced_ids) = (dark_threads.ids(), traced_threads.ids());
    assert_eq!(traced_ids, HashSet::from([std::thread::current().id()]));
    if multi_core() {
        assert!(dark_ids.len() >= 2, "dark ops ran on {dark_ids:?}");
    }
}

/// Below the block threshold, or with only the live metrics plane
/// attached, a dark op keeps to the calling thread.
#[test]
fn small_and_metered_ops_stay_on_the_caller() {
    let caller = HashSet::from([std::thread::current().id()]);
    // One block per partition: 4 per worker.
    let cfg = FabricConfig {
        block_bytes: 1 << 40,
        ..FabricConfig::default()
    };
    let small = Threads::default();
    let setup = Setup::with_configs(ClusterConfig::standard(WORKERS), cfg);
    shift_job(&setup, "shift", &small);
    assert_eq!(small.ids(), caller);
    let metered = Threads::default();
    let setup = Setup::standard(WORKERS);
    setup.fabric.enable_metrics();
    shift_job(&setup, "shift", &metered);
    assert_eq!(metered.ids(), caller);
}

#[test]
fn kmeans_under_cache_eviction_agrees_across_paths() {
    let (setup, run) = dark_and_traced(
        || Setup::standard(WORKERS),
        |s| {
            let mut p = kmeans::Params::paper(150, s);
            p.n_actual = 2_000;
            p.iterations = 3;
            kmeans::run_gpu(s, &p)
        },
    );
    let evictions: u64 = setup.fabric.with_managers(|ms| {
        ms.iter()
            .flat_map(|m| (0..m.gpu_count()).map(move |g| m.cache_stats(g).2))
            .sum()
    });
    assert!(evictions > 0, "the cache never evicted");
    assert!(run.report.gpu.expect("gpu rollup").cache_hits > 0);
}

#[test]
fn pagerank_bounded_outputs_agree_across_paths() {
    dark_and_traced(
        || Setup::standard(WORKERS),
        |s| {
            let mut p = pagerank::Params::paper(100, s);
            p.n_actual = 2_000;
            p.iterations = 2;
            pagerank::run_gpu(s, &p)
        },
    );
}

#[test]
fn hybrid_pointadd_agrees_across_paths() {
    let (_, run) = dark_and_traced(
        || {
            let mut fabric = FabricConfig::default();
            fabric.worker.scheduling = SchedulingPolicy::HybridCostModel;
            Setup::with_configs(ClusterConfig::standard(WORKERS), fabric)
        },
        |s| {
            let p = pointadd::Params {
                n_logical: 400_000_000,
                n_actual: 8_000,
                iterations: 2,
                parallelism: s.default_parallelism(),
                delta: (1.0, -0.5),
            };
            pointadd::run_gpu(s, &p)
        },
    );
    assert!(run.report.gpu.expect("gpu rollup").hybrid_cpu > 0);
}

#[test]
fn device_loss_agrees_across_paths() {
    let clean = shift_job(&Setup::standard(WORKERS), "shift", &Threads::default());
    let crash = clean.1[0] + clean.0.per_iteration[0] / 2;
    let threads = Threads::default();
    let (_, run) = dark_and_traced(
        || Setup::standard(WORKERS),
        |s| {
            // GPU 0 of every worker is lost mid-pass; GPU 1 absorbs it.
            s.fabric.with_managers(|ms| {
                for m in ms.iter_mut() {
                    m.set_fault_plan(FaultPlan::new().with(crash, FaultKind::GpuLost { gpu: 0 }));
                }
            });
            shift_job(s, "shift", &threads).0
        },
    );
    assert_eq!(run.report.faults.gpus_lost, WORKERS as u64);
    assert_eq!(run.report.faults.works_failed, 0);
    assert_eq!(run.digest.to_bits(), clean.0.digest.to_bits());
}

#[test]
fn checkpoint_restore_agrees_across_paths() {
    let clean = shift_job(&Setup::standard(WORKERS), "shift", &Threads::default());
    let (start, span) = (clean.1[0], clean.0.per_iteration[0]);
    let cfg = || {
        let mut cfg = FabricConfig {
            checkpoint: CheckpointConfig::every(span / 8),
            ..FabricConfig::default()
        };
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: false,
            ..CpuFallback::default()
        };
        cfg
    };
    let threads = Threads::default();
    // Attempt 1 loses every device mid-pass; attempt 2, on a fresh fabric
    // of the same cluster, restores its snapshot and replays the rest.
    let (_, resumed) = dark_and_traced(
        || Setup::with_configs(ClusterConfig::standard(WORKERS), cfg()),
        |s| {
            kill_all_at(s, start + span / 2);
            let crashed = shift_job(s, "ckpt", &threads).0;
            assert!(crashed.report.faults.works_failed > 0);
            let relaunch = Setup {
                cluster: s.cluster.clone(),
                fabric: GpuFabric::new(WORKERS, cfg()),
            };
            if s.fabric.tracer().enabled() {
                relaunch.fabric.enable_tracing();
            }
            shift_job(&relaunch, "ckpt", &threads).0
        },
    );
    let g = resumed.report.gpu.as_ref().expect("gpu rollup");
    assert_eq!(g.restores, 1);
    assert!(g.works_restored > 0, "the snapshot must cover real work");
    assert_eq!(resumed.digest.to_bits(), clean.0.digest.to_bits());
}

/// Two tenants behind a `JobGate`, each op above the block threshold: the
/// gate keeps every step on the tenants' own threads, and each
/// tenant's digest equals its solo run's.
#[test]
fn gated_tenants_keep_their_threads_and_solo_digests() {
    let solo: Vec<u64> = ["shift-a", "shift-b"]
        .map(|name| {
            let run = shift_job(&Setup::standard(WORKERS), name, &Threads::default()).0;
            run.digest.to_bits()
        })
        .to_vec();
    let setup = Setup::standard(WORKERS);
    let (threads, tenant_threads) = (Threads::default(), Threads::default());
    let tenant = |name: &'static str| {
        let (setup, threads, tenant_threads) =
            (setup.clone(), threads.clone(), tenant_threads.clone());
        let job = move || {
            tenant_threads.note();
            shift_job(&setup, name, &threads).0
        };
        (name, Box::new(job) as Box<dyn FnOnce() -> AppRun + Send>)
    };
    let runs = run_concurrent(vec![tenant("shift-a"), tenant("shift-b")]);
    let digests: Vec<u64> = runs.iter().map(|(_, r)| r.digest.to_bits()).collect();
    assert_eq!(digests, solo);
    let (launched_on, tenant_threads) = (threads.ids(), tenant_threads.ids());
    assert_eq!(tenant_threads.len(), 2);
    assert!(
        launched_on.is_subset(&tenant_threads),
        "kernels ran on {launched_on:?}, the tenants on {tenant_threads:?}"
    );
}
