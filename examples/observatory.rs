//! The live metrics plane: deterministic time-series registry, per-job SLO
//! histograms, cluster health snapshots, and the fault flight recorder.
//!
//! Act 1 runs a healthy job with the metrics plane enabled and renders the
//! three observability surfaces: the text dashboard (a point-in-time
//! [`ClusterSnapshot`]), the Prometheus text exposition of the lifetime
//! counter/gauge/histogram registry, and the job's SLO percentile table.
//! Act 2 arms a tight latency SLO and kills a device mid-job: the fault
//! ledger and the SLO breaches each trigger a flight-recorder postmortem
//! dump under `target/postmortem/`. Act 3 replays Act 2 twice from
//! identical seeds and asserts every export — time series, Prometheus,
//! JSON, postmortem bundles — is byte-identical.
//!
//! Run with: `cargo run --release --example observatory`

use gflink::prelude::*;
use std::fs;
use std::path::Path;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

fn make_fabric() -> GpuFabric {
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("cudaAddPoint", |args: &mut KernelArgs<'_, '_>| {
        let def = Point::def();
        let n = args.n_actual;
        let (dx, dy) = (args.params[0], args.params[1]);
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + dx);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + dy);
        }
        KernelProfile::new(
            args.n_logical as f64 * 2.0,
            args.n_logical as f64 * 2.0 * def.size() as f64,
        )
    });
    fabric
}

fn points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect()
}

/// One addPoint job on a fresh cluster through `fabric`; the snapshot is
/// taken while the job is still live (sessions and cache regions intact).
fn run_job(fabric: &GpuFabric, faults: FaultPlan) -> (ClusterSnapshot, JobReport) {
    fabric.with_managers(|ms| ms[0].set_fault_plan(faults));
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let env = GflinkEnv::submit(&cluster, fabric, "observatory", SimTime::ZERO);
    let ds = env.flink.parallelize("pts", points(4_000), 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(fabric)
        .expect("valid spec");
    let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let got = out.inner().collect("get", 8.0);
    assert_eq!(got.len(), 4_000);
    let snapshot = fabric.cluster_snapshot(env.flink.frontier());
    (snapshot, env.finish())
}

/// Act 2/3 configuration: tight SLO plus a device loss mid-operator.
fn chaos_fabric(dir: &str) -> GpuFabric {
    let fabric = make_fabric();
    fabric.enable_metrics();
    fabric.set_slo(SloPolicy::max_latency(SimTime::from_micros(500)));
    fabric.set_postmortem_dir(dir);
    fabric
}

fn chaos_faults() -> FaultPlan {
    FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 })
}

fn main() {
    // ---------------------------------------------------------------
    println!("=== Act 1: the healthy-path dashboard ===");
    let fabric = make_fabric();
    let metrics = fabric.enable_metrics();
    let (snapshot, report) = run_job(&fabric, FaultPlan::new());
    print!("{snapshot}");
    let gpu = report.gpu.as_ref().expect("gpu rollup");
    println!("  slo percentiles (end-to-end GWork latency):");
    for (name, h) in gpu.stages() {
        if !h.is_empty() {
            println!(
                "    {name:<7} p50 {:<12} p95 {:<12} p99 {}",
                h.p50().to_string(),
                h.p95().to_string(),
                h.p99()
            );
        }
    }
    println!(
        "  time series: {} samples at 1 ms cadence across {} registered series",
        metrics.sample_count(),
        metrics.export_prometheus().lines().count()
    );
    fs::create_dir_all("target/metrics").expect("create target/metrics");
    fs::write(
        "target/metrics/observatory.prom",
        metrics.export_prometheus(),
    )
    .expect("write prom export");
    fs::write("target/metrics/observatory.json", metrics.export_json()).expect("write json export");
    fs::write(
        "target/metrics/observatory-snapshot.json",
        snapshot.to_json(),
    )
    .expect("write snapshot export");
    println!("  exports written to target/metrics/observatory{{.prom,.json,-snapshot.json}}");
    assert!(
        fabric.postmortems().is_empty(),
        "a healthy run under the default SLO must not dump postmortems"
    );

    // ---------------------------------------------------------------
    println!("\n=== Act 2: device loss + SLO breach arm the flight recorder ===");
    let dir = "target/postmortem";
    let fabric = chaos_fabric(dir);
    let (snapshot, report) = run_job(&fabric, chaos_faults());
    print!("{snapshot}");
    assert_eq!(report.faults.gpus_lost, 1);
    let bundles = fabric.postmortems();
    assert!(
        !bundles.is_empty(),
        "the device loss must dump a postmortem"
    );
    for b in &bundles {
        println!(
            "  postmortem {}: reason {}, {} events, ledger delta {} faults / {} lost",
            Path::new(dir).join(b.file_name()).display(),
            b.reason,
            b.events.len(),
            b.ledger_delta.faults_injected,
            b.ledger_delta.gpus_lost
        );
    }
    let with_fault = bundles.iter().find(|b| b.reason == "fault-ledger");
    let fault_bundle = with_fault.expect("a fault-ledger bundle");
    println!("  last events before the dump:");
    for ev in fault_bundle.events.iter().rev().take(5).rev() {
        println!(
            "    {} {:?} worker {} gpu {}",
            ev.at, ev.kind, ev.worker, ev.gpu as i64
        );
    }

    // ---------------------------------------------------------------
    println!("\n=== Act 3: every export is byte-deterministic ===");
    let f1 = chaos_fabric("target/postmortem/replay-a");
    let (s1, _) = run_job(&f1, chaos_faults());
    let f2 = chaos_fabric("target/postmortem/replay-b");
    let (s2, _) = run_job(&f2, chaos_faults());
    assert_eq!(
        f1.metrics().export_prometheus(),
        f2.metrics().export_prometheus(),
        "identical runs must export identical Prometheus text"
    );
    assert_eq!(f1.metrics().export_json(), f2.metrics().export_json());
    assert_eq!(s1.to_prometheus(), s2.to_prometheus());
    assert_eq!(s1.to_json(), s2.to_json());
    let (b1, b2) = (f1.postmortems(), f2.postmortems());
    assert_eq!(b1.len(), b2.len());
    for (a, b) in b1.iter().zip(b2.iter()) {
        assert_eq!(a.to_json(), b.to_json(), "postmortem bundles must replay");
    }
    println!(
        "  replayed the chaos run twice: {} postmortems, Prometheus/JSON/snapshot \
         exports all byte-identical",
        b1.len()
    );
}
