//! Ablation: time-to-recover vs checkpoint interval (ISSUE 6).
//!
//! A pointadd-style operator is crashed mid-flight (every GPU lost, CPU
//! fallback off) and relaunched against the same durable HDFS under the
//! same job name. The resumed attempt restores the last snapshot and
//! replays only the delta, so its replay cost is a function of the work
//! completed *since the last snapshot* — i.e. of the checkpoint interval —
//! not of the job size. A finer cadence restores more and replays less, at
//! the price of more snapshot bytes written: the classic checkpointing
//! trade-off, swept here across intervals. Snapshots are incremental
//! chains, so every row's written bytes must stay within three times the
//! folded snapshot the crashed attempt left behind.
//!
//! Besides `results/ablation_recovery.json`, this harness emits the first
//! `BENCH_recovery.json` trajectory file at the workspace root so future
//! re-anchors can gate time-to-recover regressions (ROADMAP item 5).

use gflink_bench::{header, jobj, row, write_results, Json};
use gflink_core::{
    CheckpointConfig, CpuFallback, FabricConfig, GRecord, GflinkEnv, GpuFabric, GpuMapSpec,
};
use gflink_flink::{ClusterConfig, JobReport, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, RecordReader, RecordView};
use gflink_sim::{FaultKind, FaultPlan, SimTime};

const N: usize = 4_000;
/// Late-phase crash instant (the GPU phase spans ~1.260s..1.271s; upstream
/// driver work costs ~1.2s of simulated time): late enough that fine and
/// coarse cadences bracket genuinely different completion frontiers.
const CRASH_AT_US: u64 = 1_270_000;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Point: Align8 {
        x: f32,
        y: f32,
    }
}

fn make_fabric(interval: SimTime) -> GpuFabric {
    let mut cfg = FabricConfig {
        block_bytes: 256 * 1024,
        checkpoint: CheckpointConfig::every(interval),
        ..FabricConfig::default()
    };
    cfg.worker.cpu_fallback = CpuFallback {
        enabled: false,
        ..CpuFallback::default()
    };
    let fabric = GpuFabric::new(1, cfg);
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

fn attempt(cluster: &SharedCluster, fabric: &GpuFabric, faults: FaultPlan) -> (f64, JobReport) {
    fabric.with_managers(|ms| ms[0].set_fault_plan(faults));
    let env = GflinkEnv::submit(cluster, fabric, "recovery", SimTime::ZERO);
    let pts: Vec<Point> = (0..N)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(fabric)
        .expect("valid spec");
    let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
    let got = out.inner().collect("get", 8.0);
    let digest: f64 = got.iter().map(|p| p.x as f64 - p.y as f64).sum();
    (digest, env.finish())
}

struct Outcome {
    snapshots: u64,
    snapshot_bytes: u64,
    /// Encoded size of the crashed attempt's folded snapshot.
    folded_bytes: u64,
    restored: u64,
    replayed: u64,
    replay_delta: SimTime,
    resumed_total: SimTime,
}

fn crash_then_resume(interval: SimTime) -> (f64, Outcome) {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let f1 = make_fabric(interval);
    let crash = FaultPlan::new()
        .with(
            SimTime::from_micros(CRASH_AT_US),
            FaultKind::GpuLost { gpu: 0 },
        )
        .with(
            SimTime::from_micros(CRASH_AT_US),
            FaultKind::GpuLost { gpu: 1 },
        );
    let (_, crash_report) = attempt(&cluster, &f1, crash);
    let snapshots = crash_report
        .gpu
        .as_ref()
        .map(|g| (g.checkpoints, g.checkpoint_bytes))
        .unwrap_or((0, 0));
    // An uncharged fold: the resumed attempt's timeline is untouched.
    let folded = f1
        .with_checkpoints(|c| c.inspect(&cluster.lock().hdfs, "recovery", 0))
        .expect("the crashed attempt's chain is intact")
        .map_or(0, |rs| rs.snapshot.encoded_len() as u64);
    let f2 = make_fabric(interval);
    let (digest, report) = attempt(&cluster, &f2, FaultPlan::new());
    let g = report.gpu.as_ref().expect("resumed attempt has a rollup");
    (
        digest,
        Outcome {
            snapshots: snapshots.0,
            snapshot_bytes: snapshots.1,
            folded_bytes: folded,
            restored: g.works_restored,
            replayed: g.works,
            replay_delta: g.recovery_delta.sum(),
            resumed_total: report.total,
        },
    )
}

fn main() {
    header(
        "Ablation: time-to-recover vs checkpoint interval",
        "1 worker x 2 GPUs, 124 blocks; all GPUs killed at 1.270s (no CPU \
         fallback), then the job relaunches against the same HDFS",
    );
    row(&[
        "interval (ms)".into(),
        "snapshots".into(),
        "snapshot KiB".into(),
        "restored".into(),
        "replayed".into(),
        "replay delta (ms)".into(),
        "resumed total (s)".into(),
    ]);

    let clean_cluster = SharedCluster::new(ClusterConfig::standard(1));
    let clean_fabric = make_fabric(SimTime::from_millis(1));
    let (clean_digest, clean_report) = attempt(&clean_cluster, &clean_fabric, FaultPlan::new());
    let total_works = clean_report.gpu.as_ref().map(|g| g.works).unwrap_or(0);

    let mut results = Vec::new();
    let mut finest_replayed = None;
    let mut last_restored = u64::MAX;
    let mut last_replayed = 0u64;
    for interval_us in [500u64, 1_000, 2_000, 4_000, 8_000] {
        let interval = SimTime::from_micros(interval_us);
        let (digest, out) = crash_then_resume(interval);
        assert_eq!(
            digest.to_bits(),
            clean_digest.to_bits(),
            "resume at interval {interval} must be bit-identical to the clean run"
        );
        assert_eq!(
            out.restored + out.replayed,
            total_works,
            "double entry: restored + replayed must cover the whole operator"
        );
        assert!(
            out.snapshot_bytes <= 3 * out.folded_bytes,
            "interval {interval}: {} snapshot bytes written for a {} B folded \
             snapshot; incremental chains must stay within 3x",
            out.snapshot_bytes,
            out.folded_bytes
        );
        assert!(
            out.restored <= last_restored,
            "a coarser interval must never restore more work"
        );
        assert!(
            out.replayed >= last_replayed,
            "a coarser interval must never replay less work"
        );
        last_restored = out.restored;
        last_replayed = out.replayed;
        finest_replayed.get_or_insert(out.replayed);
        results.push(jobj! {
            "experiment": "interval_sweep",
            "interval_ms": interval.as_millis_f64(),
            "snapshots": out.snapshots,
            "snapshot_bytes": out.snapshot_bytes,
            "works_restored": out.restored,
            "works_replayed": out.replayed,
            "works_total": total_works,
            "replay_delta_ms": out.replay_delta.as_millis_f64(),
            "resumed_total_s": out.resumed_total.as_secs_f64(),
            "clean_total_s": clean_report.total.as_secs_f64(),
        });
        row(&[
            format!("{:.1}", interval.as_millis_f64()),
            format!("{}", out.snapshots),
            format!("{:.1}", out.snapshot_bytes as f64 / 1024.0),
            format!("{}", out.restored),
            format!("{}", out.replayed),
            format!("{:.3}", out.replay_delta.as_millis_f64()),
            format!("{:.3}", out.resumed_total.as_secs_f64()),
        ]);
    }
    println!(
        "(finest cadence replays {} works; coarsest replays {} of {} — replay \
         cost tracks the interval, not the job size)",
        finest_replayed.unwrap_or(0),
        last_replayed,
        total_works
    );

    let json = Json::Arr(results);
    write_results("ablation_recovery", &json);

    // First BENCH trajectory point (ROADMAP item 5): the same sweep, at the
    // workspace root, for future re-anchors to diff and gate against.
    let bench = jobj! {
        "bench": "recovery",
        "scenario": "kill_all_at_1270ms_resume_same_hdfs",
        "works_total": total_works,
        "rows": json,
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut text = bench.render();
    text.push('\n');
    let _ = std::fs::write(format!("{root}/BENCH_recovery.json"), text);
}
