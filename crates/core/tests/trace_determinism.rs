//! Trace and metrics determinism: the exported Chrome trace, the metrics
//! plane's Prometheus/JSON exports, and the flight recorder's postmortem
//! bundles are each a pure function of the (seed, FaultPlan) pair. Two
//! runs from the same seed and plan produce byte-identical bytes — so an
//! export attached to a bug report *is* the run, not a run like it —
//! while a different seed produces different bytes.

use gflink_core::{
    CacheKey, FabricConfig, GRecord, GWork, GflinkEnv, GpuFabric, GpuManager, GpuMapSpec,
    GpuWorkerConfig, JobId, WorkBuf,
};
use gflink_flink::{ClusterConfig, SharedCluster};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::{gstruct, DataLayout, HBuffer, RecordReader, RecordView};
use gflink_sim::{
    FaultKind, FaultPlan, Metrics, RecKind, RetryPolicy, SimRng, SimTime, SloPolicy, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// A seeded workload: block sizes and submit instants drawn from the seed,
/// so different seeds yield genuinely different timelines.
fn mk_work(i: u32, rng: &mut SimRng) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.5, -base, base * 3.0]));
    let logical = (1u64 << 21) + rng.gen_range(1 << 22);
    GWork {
        name: format!("w{i}").into(),
        execute_name: "scale2".into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if i.is_multiple_of(2) {
            WorkBuf::cached(
                data,
                logical,
                CacheKey {
                    dataset: 9,
                    partition: i % 4,
                    block: i,
                },
            )
        } else {
            WorkBuf::transient(data, logical)
        }],
        out_actual_bytes: 16,
        out_logical_bytes: logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: logical / 4,
        coalescing: 1.0,
        tag: (0, i),
    }
}

/// The shared fault plan: a transient kernel fault early, one GPU lost
/// mid-run — exercising the Recovery and Health event paths too.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with(
            SimTime::from_micros(200),
            FaultKind::KernelTransient { gpu: 0 },
        )
        .with(SimTime::from_millis(2), FaultKind::GpuLost { gpu: 1 })
}

fn run_once(seed: u64) -> String {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            hang_timeout: SimTime::from_millis(50),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    m.set_fault_plan(plan());
    let job = JobId(1);
    m.begin_job(job);
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    for i in 0..32 {
        at += SimTime::from_micros(10 + rng.gen_range(80));
        m.submit_for(job, mk_work(i, &mut rng), at);
    }
    let done = m.drain_job(job);
    assert_eq!(done.len(), 32, "all works must complete");
    tracer.export_chrome_json()
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let a = run_once(42);
    let b = run_once(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same (seed, FaultPlan) must export identical traces");
}

#[test]
fn different_seed_differs() {
    let a = run_once(42);
    let c = run_once(43);
    assert_ne!(a, c, "a different seed must change the trace");
}

#[test]
fn trace_records_fault_and_recovery_events() {
    let json = run_once(42);
    // The plan's injected faults surface as Recovery instants and the lost
    // device as a Health transition.
    assert!(json.contains("\"cat\":\"recovery\""));
    assert!(json.contains("\"fault-injected\""));
    assert!(json.contains("\"cat\":\"health\""));
    assert!(json.contains("\"lost\""));
}

/// `run_once` with the metrics plane attached instead of the tracer:
/// returns the lifetime-registry exports.
fn run_metrics_once(seed: u64) -> (String, String) {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            hang_timeout: SimTime::from_millis(50),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.set_fault_plan(plan());
    let job = JobId(1);
    m.begin_job(job);
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    for i in 0..32 {
        at += SimTime::from_micros(10 + rng.gen_range(80));
        m.submit_for(job, mk_work(i, &mut rng), at);
    }
    let done = m.drain_job(job);
    assert_eq!(done.len(), 32, "all works must complete");
    (metrics.export_prometheus(), metrics.export_json())
}

#[test]
fn metrics_exports_replay_byte_identically() {
    let (prom_a, json_a) = run_metrics_once(42);
    let (prom_b, json_b) = run_metrics_once(42);
    assert!(prom_a.contains("gflink_works_completed_total{worker=\"0\"} 32"));
    assert!(prom_a.contains("gflink_kernel_launches_total{worker=\"0\",gpu=\"0\"}"));
    assert!(json_a.contains("\"ticks\""));
    assert_eq!(
        prom_a, prom_b,
        "same (seed, FaultPlan) must export identically"
    );
    assert_eq!(json_a, json_b);
}

#[test]
fn metrics_exports_differ_across_seeds() {
    let (prom_a, json_a) = run_metrics_once(42);
    let (prom_c, json_c) = run_metrics_once(43);
    // Seed-drawn logical sizes move the histograms and the time series.
    assert_ne!(prom_a, prom_c, "a different seed must change the export");
    assert_ne!(json_a, json_c);
}

// --- Flight-recorder postmortems through the full GDST stack -----------

gstruct! {
    #[derive(Clone)]
    struct P: Align8 {
        v: f32,
    }
}

/// A scripted device-loss run through `gpu_map_partition` with the metrics
/// plane and a tight SLO armed; returns the postmortem bundles' JSON.
fn run_postmortem_once(dir: &str) -> Vec<String> {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("double", |args: &mut KernelArgs<'_, '_>| {
        let def = P::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    fabric.enable_metrics();
    fabric.set_slo(SloPolicy::max_latency(SimTime::from_micros(100)));
    fabric.set_postmortem_dir(dir);
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(
            FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 }),
        );
    });
    let env = GflinkEnv::submit(&cluster, &fabric, "pm", SimTime::ZERO);
    let pts: Vec<P> = (0..200).map(|i| P { v: i as f32 }).collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<P>("double", &GpuMapSpec::new("double"));
    assert_eq!(out.inner().collect("get", 8.0).len(), 200);
    let report = env.finish();
    assert_eq!(report.faults.gpus_lost, 1);
    fabric.postmortems().iter().map(|b| b.to_json()).collect()
}

#[test]
fn scripted_device_loss_dumps_a_deterministic_postmortem() {
    let a = run_postmortem_once("target/postmortem-test/a");
    let b = run_postmortem_once("target/postmortem-test/b");
    assert!(!a.is_empty(), "the device loss must dump a postmortem");
    assert_eq!(a, b, "postmortem bundles must replay byte-identically");
    // Golden shape: the fault-ledger bundle carries the device-loss event
    // stream, the offending drain's ledger delta, and a health snapshot
    // showing the lost lane.
    let fault = a
        .iter()
        .find(|j| j.contains("\"reason\":\"fault-ledger\""))
        .expect("a fault-ledger bundle");
    assert!(fault.contains(&format!("\"kind\":\"{}\"", RecKind::DeviceLost.as_str())));
    assert!(fault.contains(&format!("\"kind\":\"{}\"", RecKind::FaultInjected.as_str())));
    assert!(fault.contains("\"gpus_lost\":1"));
    assert!(fault.contains("\"state\":\"lost\""));
    // The bundle also landed on disk under its deterministic name.
    let on_disk = std::fs::read_to_string("target/postmortem-test/a/job1-pm000.json")
        .expect("postmortem file written");
    assert_eq!(&on_disk, &a[0]);
}

#[test]
fn disabled_metrics_plane_dumps_nothing() {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("noop", |args: &mut KernelArgs<'_, '_>| {
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64)
    });
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(
            FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 }),
        );
    });
    let env = GflinkEnv::submit(&cluster, &fabric, "quiet", SimTime::ZERO);
    let pts: Vec<P> = (0..50).map(|i| P { v: i as f32 }).collect();
    let ds = env.flink.parallelize("pts", pts, 2, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<P>("noop", &GpuMapSpec::new("noop"));
    assert_eq!(out.inner().collect("get", 8.0).len(), 50);
    let report = env.finish();
    assert_eq!(report.faults.gpus_lost, 1);
    assert!(
        fabric.postmortems().is_empty(),
        "without enable_metrics the flight recorder must stay dark"
    );
    assert!(!fabric.metrics().enabled());
}
