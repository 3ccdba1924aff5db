//! Lowering goldens: FNV-64 fingerprints of the three ways a GPU operator
//! turns its input into `GWork`s, pinned so that a change to the lowering
//! cannot move a simulated instant, a byte of output or a trace event
//! unnoticed.
//!
//! * **gdst**: a traced, checkpointed GDST job running one GPU map under
//!   each `OutMode`, every map with a GPU-cached extra input, then a
//!   relaunch under the same job name that restores every block.
//! * **map**: Nexmark q13, a stream `map_kernel` run with a cached extra
//!   input.
//! * **window**: Nexmark q6 (keyed tumbling windows) with checkpoints, a
//!   driver crash and a resume that restores windows from the snapshot.
//!
//! Each scenario fingerprints its outputs, every `JobReport` field (its
//! `Debug` form) or every `StreamReport` timing field, and the fabric's
//! Chrome-trace export.

use gflink_apps::nexmark::{self, NexmarkConfig};
use gflink_core::{
    CheckpointConfig, FabricConfig, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, OutMode, StreamEnv,
    StreamReport, WindowedRun,
};
use gflink_flink::{ClusterConfig, JobReport, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::sync::Arc;

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(s);
    h.0
}

/// Every timing and accounting field of a stream report. The latency
/// enters through its mean, which is bit-identical however the samples
/// are held.
fn fp_stream_report(r: &StreamReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.batches as u64);
    h.u64(r.latency.mean().to_bits());
    h.u64(r.last_latency.as_nanos());
    h.u64(r.finished_at.as_nanos());
    h.str(&format!("{:?}", r.lost));
    h.u64(r.late_records);
    h.u64(r.parked_works);
    h.u64(r.park_delay.as_nanos());
    h.0
}

fn fp_windowed(run: &WindowedRun) -> u64 {
    let mut h = Fnv::new();
    h.u64(fp_stream_report(&run.report));
    h.str(&format!("{:?}", run.windows));
    h.u64(run.watermark_digest());
    h.u64(run.windows_restored);
    h.u64(run.restores_refused);
    h.u64(run.checkpoints);
    h.u64(run.checkpoint_bytes);
    h.0
}

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Pt: Align8 {
        x: f32,
        y: f32,
    }
}

/// The extra input's `f64` at `i`.
fn extra(args: &KernelArgs<'_, '_>, i: usize) -> f64 {
    args.inputs[1].read_f64(i * 8)
}

fn register_gdst_kernels(fabric: &GpuFabric) {
    // PerRecord: shift every point by the extra input's offsets.
    fabric.register_kernel("gShift", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let (dx, dy) = (extra(args, 0), extra(args, 1));
        let input = RecordReader::new(args.inputs[0], Pt::def(), DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], Pt::def(), DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + dx);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + dy);
        }
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 16.0)
    });
    // PerBlock(2): the block's sums, then its sums scaled by the extra.
    fabric.register_kernel("gSums", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], Pt::def(), DataLayout::Aos, n);
        let (mut sx, mut sy) = (0.0, 0.0);
        for i in 0..n {
            sx += input.get_f64(i, 0, 0);
            sy += input.get_f64(i, 1, 0);
        }
        let k = extra(args, 0);
        let mut out = RecordView::new(args.outputs[0], Pt::def(), DataLayout::Aos, 2);
        out.set_f64(0, 0, 0, sx);
        out.set_f64(0, 1, 0, sy);
        out.set_f64(1, 0, 0, sx * k);
        out.set_f64(1, 1, 0, sy * k);
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 8.0)
    });
    // Bounded { per_record: 2 }: drop points with an odd x, emit twice
    // those with x divisible by 3.
    fabric.register_kernel("gFilter", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let k = extra(args, 1);
        let input = RecordReader::new(args.inputs[0], Pt::def(), DataLayout::Aos, n);
        let cap = 2 * n;
        let mut out = RecordView::new(args.outputs[0], Pt::def(), DataLayout::Aos, cap);
        let mut emitted = 0;
        for i in 0..n {
            let (x, y) = (input.get_f64(i, 0, 0), input.get_f64(i, 1, 0));
            let copies = match x as i64 {
                v if v % 2 != 0 => 0,
                v if v % 3 == 0 => 2,
                _ => 1,
            };
            for _ in 0..copies {
                out.set_f64(emitted, 0, 0, x);
                out.set_f64(emitted, 1, 0, y * k);
                emitted += 1;
            }
        }
        KernelProfile::new(args.n_logical as f64 * 4.0, args.n_logical as f64 * 8.0)
            .with_emitted(emitted)
    });
}

fn gdst_fabric() -> GpuFabric {
    let fabric = GpuFabric::new(
        2,
        FabricConfig {
            block_bytes: 64 * 1024,
            checkpoint: CheckpointConfig::every(SimTime::from_micros(500)),
            ..FabricConfig::default()
        },
    );
    register_gdst_kernels(&fabric);
    fabric
}

/// One attempt of the GDST job: three maps over one cached input, each
/// with a cached extra input. Returns the outputs' fingerprint and the
/// job's report.
fn gdst_attempt(cluster: &SharedCluster, fabric: &GpuFabric) -> (u64, JobReport) {
    let env = GflinkEnv::submit(cluster, fabric, "lowering-golden", SimTime::ZERO);
    let pts: Vec<Pt> = (0..3_000)
        .map(|i| Pt {
            x: i as f32,
            y: (i % 17) as f32 - 8.0,
        })
        .collect();
    let gdst = env.to_gdst(env.flink.parallelize("pts", pts, 3, 400.0), DataLayout::Aos);
    let token = fabric.new_cache_token();
    let side = Arc::new(HBuffer::from_f64s(&[0.5, -1.5]));
    let spec = |kernel: &str, mode: OutMode| {
        GpuMapSpec::new(kernel)
            .with_out_mode(mode)
            .with_cached_extra_input(Arc::clone(&side), 4096, token)
            .build(fabric)
            .expect("valid spec")
    };
    let mut outs = Fnv::new();
    for (kernel, mode) in [
        ("gShift", OutMode::PerRecord),
        ("gSums", OutMode::PerBlock(2)),
        ("gFilter", OutMode::Bounded { per_record: 2 }),
    ] {
        let out = gdst.gpu_map_partition::<Pt>(kernel, &spec(kernel, mode));
        outs.str(&format!("{:?}", out.inner().collect("get", 8.0)));
    }
    (outs.0, env.finish())
}

/// The first attempt and the relaunch that restores it, each as
/// `(outputs fingerprint, report, trace fingerprint)`.
fn gdst_runs() -> [(u64, JobReport, u64); 2] {
    let cluster = SharedCluster::new(ClusterConfig::standard(2));
    let attempt = || {
        let fabric = gdst_fabric();
        let tracer = fabric.enable_tracing();
        let (outs, report) = gdst_attempt(&cluster, &fabric);
        (outs, report, fnv_str(&tracer.export_chrome_json()))
    };
    let runs = [attempt(), attempt()];
    let restored = |r: &JobReport| r.gpu.as_ref().map_or(0, |g| g.works_restored);
    assert!(
        restored(&runs[0].1) == 0 && restored(&runs[1].1) > 0,
        "the relaunch restores blocks"
    );
    runs
}

/// `[first outputs, first report, first trace, resumed outputs, resumed
/// report, resumed trace]`.
fn gdst_fingerprints() -> [u64; 6] {
    let [(o1, r1, t1), (o2, r2, t2)] = gdst_runs();
    [
        o1,
        fnv_str(&format!("{r1:?}")),
        t1,
        o2,
        fnv_str(&format!("{r2:?}")),
        t2,
    ]
}

fn nexmark_config() -> NexmarkConfig {
    let mut cfg = NexmarkConfig::standard(42);
    cfg.duration = SimTime::from_secs(1);
    cfg
}

/// `[rows, digest, report, trace]` of a traced q13 run with the side table
/// cached on the devices.
fn map_fingerprints() -> [u64; 4] {
    let fabric = GpuFabric::new(2, FabricConfig::default());
    nexmark::register_kernels(&fabric);
    let tracer = fabric.enable_tracing();
    let token = fabric.new_cache_token();
    let run = nexmark::q13(&StreamEnv::gpu(&fabric), &nexmark_config(), Some(token)).expect("q13");
    [
        run.rows,
        run.digest,
        fp_stream_report(&run.report),
        fnv_str(&tracer.export_chrome_json()),
    ]
}

/// `[crashed run, resumed run, trace]` of a traced, checkpointed q6 that
/// crashes mid-stream and resumes from its snapshot.
fn window_fingerprints() -> [u64; 3] {
    let cfg = nexmark_config();
    let cluster = SharedCluster::new(ClusterConfig::standard(2));
    let fabric = GpuFabric::new(
        2,
        FabricConfig {
            checkpoint: CheckpointConfig::every(SimTime::from_millis(150)),
            ..FabricConfig::default()
        },
    );
    nexmark::register_kernels(&fabric);
    let tracer = fabric.enable_tracing();
    let env = StreamEnv::gpu(&fabric)
        .with_cluster(&cluster)
        .named("lowering-q6");
    let crashed = nexmark::q6_with(&env, &cfg, Some(SimTime::from_millis(700))).expect("crashed");
    let resumed = nexmark::q6(&env, &cfg).expect("resumed");
    assert!(crashed.checkpoints > 0 && resumed.windows_restored > 0);
    [
        fp_windowed(&crashed),
        fp_windowed(&resumed),
        fnv_str(&tracer.export_chrome_json()),
    ]
}

#[test]
fn gdst_lowering_is_pinned() {
    let got = gdst_fingerprints();
    assert_eq!(got, gdst_fingerprints(), "the scenario is deterministic");
    assert_eq!(got, GDST, "{got:#x?}");
}

/// The first GDST attempt's per-work distributions, read from its rollup
/// when each stage was summed in `f64` seconds beside a separate SLO
/// histogram: `(stage, count, max, p50, p95, p99)` in nanoseconds, then
/// the stage's mean and sum in seconds.
const GDST_STAGES: [(&str, [u64; 5], f64, f64); 6] = [
    (
        "total",
        [441, 936_934, 59_391, 819_199, 917_503],
        2.2856753061224527e-4,
        1.0079828100000017e-1,
    ),
    (
        "queued",
        [441, 876_934, 0, 720_895, 819_199],
        1.5403550340136057e-4,
        6.7929657e-2,
    ),
    ("pen", [0; 5], 0.0, 0.0),
    (
        "h2d",
        [441, 27_675, 0, 24_575, 24_575],
        8.098791383219986e-6,
        3.5715670000000138e-3,
    ),
    (
        "kernel",
        [441, 9_436, 9_215, 9_436, 9_436],
        8.930503401360582e-6,
        3.9383520000000165e-3,
    ),
    (
        "d2h",
        [441, 25_422, 12_799, 24_575, 25_422],
        1.4050349206349314e-5,
        6.196204000000047e-3,
    ),
];

/// One histogram per stage keeps every reading the summaries and the SLO
/// histograms gave: counts, maxima and quantiles exactly, means and sums
/// within 1 ns per sample (the exact integer sum replaced an `f64` fold).
#[test]
fn gdst_rollup_readings_are_pinned() {
    let [(_, first, _), (_, resumed, _)] = gdst_runs();
    let g = first.gpu.expect("gpu rollup");
    for ((name, h), (want, exact, mean, sum)) in g.stages().into_iter().zip(GDST_STAGES) {
        assert_eq!(name, want);
        let n = h.count();
        let [max, p50, p95, p99] = [h.max(), h.p50(), h.p95(), h.p99()].map(|t| t.as_nanos());
        assert_eq!([n, max, p50, p95, p99], exact, "{name}");
        let sum_secs = h.sum_nanos() as f64 / 1e9;
        assert!((sum_secs - sum).abs() <= n as f64 * 1e-9, "{name} sum");
        assert!((h.mean() - mean).abs() <= 1e-9, "{name} mean");
    }
    assert_eq!(g.mean_batch_size(), 0.0);
    // The relaunch restored every block and executed nothing.
    let g = resumed.gpu.expect("gpu rollup");
    assert!(g.stages().iter().all(|(_, h)| h.is_empty()));
    assert_eq!((g.restores, g.recovery_delta.len()), (3, 3));
    assert_eq!(g.recovery_delta.sum(), SimTime::ZERO);
}

#[test]
fn stream_map_lowering_is_pinned() {
    let got = map_fingerprints();
    assert_eq!(got, map_fingerprints(), "the scenario is deterministic");
    assert_eq!(got, MAP, "{got:#x?}");
}

#[test]
fn window_lowering_is_pinned() {
    let got = window_fingerprints();
    assert_eq!(got, window_fingerprints(), "the scenario is deterministic");
    assert_eq!(got, WINDOW, "{got:#x?}");
}

const GDST: [u64; 6] = [
    0xfe779e1eca01935d,
    0xcf2c602a6365112f,
    0x420c151197fe941b,
    0xfe779e1eca01935d,
    0xda94d96fc623a407,
    0xfe7274b3d0d96acb,
];
const MAP: [u64; 4] = [
    0x480,
    0x83430c8ca648e688,
    0x8527e902d98c45ee,
    0x74bed57c85e6860b,
];
const WINDOW: [u64; 3] = [0xce7258842ec778dd, 0x49a566a09845f37b, 0xe76df2f0b5ce8f98];
