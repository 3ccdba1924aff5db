//! Resident GDST blocks: a GDST's records are encoded once, GPU maps
//! reuse those bytes and keep their outputs encoded, and records are
//! decoded only when a CPU operator reads them.
//!
//! Two kinds of checks. Counting records prove the mechanism: `store`
//! runs once per record for the GDST's whole life, `load` once per record
//! that a CPU operator reads. Equivalence runs prove it changes nothing:
//! a chain of GPU maps produces the same bits and the same simulated
//! time as the same chain with every intermediate result decoded and
//! re-wrapped through `into_inner()` + `to_gdst`, across input layouts,
//! record-size changes, per-block and bounded outputs, a CPU-fallback run
//! and a checkpoint crash → resume.

use gflink_core::{
    CheckpointConfig, CpuFallback, FabricConfig, GDataSet, GRecord, GflinkEnv, GpuFabric,
    GpuMapSpec, GpuReduceCosts, OutMode,
};
use gflink_flink::{ClusterConfig, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GStructDef, RecordReader, RecordView};
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const N: usize = 2_000;
const PARTS: usize = 4;
const SCALE: f64 = 100.0;

gstruct! {
    /// An 8-byte point.
    #[derive(Clone, Debug, PartialEq)]
    struct Pt: Align8 {
        x: f32,
        y: f32,
    }
}

gstruct! {
    /// A 24-byte record (two doubles, a tag, tail padding): a map into it
    /// changes the record size, so its blocks sit off the next pass's cut.
    #[derive(Clone, Debug, PartialEq)]
    struct Wide: Align8 {
        x: f64,
        y: f64,
        id: u32,
    }
}

static STORES: AtomicUsize = AtomicUsize::new(0);
static LOADS: AtomicUsize = AtomicUsize::new(0);
/// Serialises the counting tests: they share the two counters.
static COUNTING: Mutex<()> = Mutex::new(());

/// A point whose `store`/`load` count their calls.
#[derive(Clone, Debug, PartialEq)]
struct Counted(Pt);

impl GRecord for Counted {
    fn def() -> &'static GStructDef {
        Pt::def()
    }
    fn store(&self, view: &mut RecordView<'_>, idx: usize) {
        STORES.fetch_add(1, Ordering::Relaxed);
        self.0.store(view, idx);
    }
    fn load(reader: &RecordReader<'_>, idx: usize) -> Self {
        LOADS.fetch_add(1, Ordering::Relaxed);
        Counted(Pt::load(reader, idx))
    }
}

gstruct! {
    /// A key/value pair for the GPU keyed reduction.
    #[derive(Clone, Debug, PartialEq)]
    struct Kv: Align8 {
        k: u32,
        v: f32,
    }
}

fn layout_param(layout: DataLayout) -> f64 {
    DataLayout::ALL.iter().position(|&l| l == layout).unwrap() as f64
}

fn profile(args: &KernelArgs<'_, '_>) -> KernelProfile {
    KernelProfile::new(args.n_logical as f64 * 4.0, args.n_logical as f64 * 16.0)
}

/// `shift`: Pt (input layout in `params[0]`) → Pt, one per record.
/// `widen`: Pt → Wide. `narrow`: Wide → Pt. `blocksum`: one Pt per block.
/// `evens`: the Pts with an even integer part, compacted (bounded).
/// `kvsum`: adjacent equal keys summed, compacted (bounded).
fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("shift", |args: &mut KernelArgs<'_, '_>| {
        let (def, n) = (Pt::def(), args.n_actual);
        let layout = DataLayout::ALL[args.params[0] as usize];
        let input = RecordReader::new(args.inputs[0], def, layout, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        for i in 0..n {
            let [x] = input.get_field(i, Pt::x);
            let [y] = input.get_field(i, Pt::y);
            out.set_field(i, Pt::x, [x + 1.5]);
            out.set_field(i, Pt::y, [y * 0.5 - x]);
        }
        profile(args)
    });
    fabric.register_kernel("widen", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let (pt, wide) = (Pt::def(), Wide::def());
        let input = RecordReader::new(args.inputs[0], pt, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], wide, DataLayout::Aos, n);
        for i in 0..n {
            let [x] = input.get_field(i, Pt::x);
            let [y] = input.get_field(i, Pt::y);
            out.set_field(i, Wide::x, [x as f64 * 3.0]);
            out.set_field(i, Wide::y, [y as f64]);
            out.set_field(i, Wide::id, [x as u32]);
        }
        profile(args)
    });
    fabric.register_kernel("narrow", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        let (pt, wide) = (Pt::def(), Wide::def());
        let input = RecordReader::new(args.inputs[0], wide, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], pt, DataLayout::Aos, n);
        for i in 0..n {
            let [x] = input.get_field(i, Wide::x);
            let [y] = input.get_field(i, Wide::y);
            let [id] = input.get_field(i, Wide::id);
            out.set_field(i, Pt::x, [(x + id as f64) as f32]);
            out.set_field(i, Pt::y, [y as f32]);
        }
        profile(args)
    });
    fabric.register_kernel("blocksum", |args: &mut KernelArgs<'_, '_>| {
        let (def, n) = (Pt::def(), args.n_actual);
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let (mut sx, mut sy) = (0.0f64, 0.0f64);
        for i in 0..n {
            let [x] = input.get_field(i, Pt::x);
            let [y] = input.get_field(i, Pt::y);
            sx += x as f64;
            sy += y as f64;
        }
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, 1);
        out.set_field(0, Pt::x, [sx as f32]);
        out.set_field(0, Pt::y, [sy as f32]);
        profile(args)
    });
    fabric.register_kernel("evens", |args: &mut KernelArgs<'_, '_>| {
        let (def, n) = (Pt::def(), args.n_actual);
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        let mut k = 0;
        for i in 0..n {
            let [x] = input.get_field(i, Pt::x);
            let [y] = input.get_field(i, Pt::y);
            if (x as i64) % 2 == 0 {
                out.set_field(k, Pt::x, [x]);
                out.set_field(k, Pt::y, [y]);
                k += 1;
            }
        }
        profile(args).with_emitted(k)
    });
    fabric.register_kernel("kvsum", |args: &mut KernelArgs<'_, '_>| {
        let (def, n) = (Kv::def(), args.n_actual);
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        let mut k = 0;
        let mut run: Option<(u32, f32)> = None;
        for i in 0..=n {
            let next = (i < n).then(|| {
                let [key] = input.get_field(i, Kv::k);
                let [v] = input.get_field(i, Kv::v);
                (key, v)
            });
            match (run, next) {
                (Some((rk, rv)), Some((key, v))) if rk == key => run = Some((rk, rv + v)),
                (prev, next) => {
                    if let Some((rk, rv)) = prev {
                        out.set_field(k, Kv::k, [rk]);
                        out.set_field(k, Kv::v, [rv]);
                        k += 1;
                    }
                    run = next;
                }
            }
        }
        profile(args).with_emitted(k)
    });
}

fn fabric_cfg() -> FabricConfig {
    FabricConfig {
        // Several blocks per partition, so cuts (and re-cuts) matter.
        block_bytes: 64 * 1024,
        ..FabricConfig::default()
    }
}

fn points() -> Vec<Pt> {
    (0..N)
        .map(|i| Pt {
            x: i as f32 * 0.75,
            y: (N - i) as f32 * 0.25,
        })
        .collect()
}

fn spec(fabric: &GpuFabric, kernel: &str) -> GpuMapSpec {
    GpuMapSpec::new(kernel)
        .with_params(vec![0.0])
        .build(fabric)
        .expect("registered kernel")
}

/// Between two maps: keep the resident output (`rewrap == false`), or
/// decode it and encode it again as a fresh GDST.
fn hop<T: GRecord>(env: &GflinkEnv, g: GDataSet<T>, rewrap: bool) -> GDataSet<T> {
    if rewrap {
        env.to_gdst(g.into_inner(), DataLayout::Aos)
    } else {
        g
    }
}

/// A finished chain job.
#[derive(Debug, PartialEq)]
struct ChainOut {
    /// Every output point's bits, in partition order.
    bits: Vec<(u32, u32)>,
    /// The job's simulated frontier.
    frontier: SimTime,
    /// Works executed.
    works: u64,
    /// Operators that restored a snapshot, and the works they restored.
    restores: u64,
    works_restored: u64,
}

/// Run `chain` as job "chain" on a fresh cluster and fabric twice —
/// resident and re-wrapped — and require identical bits, simulated time
/// and work counts. `before` runs on the cluster first (an earlier
/// attempt of the job). Returns the resident run.
fn same_both_ways_after(
    cfg: impl Fn() -> FabricConfig,
    before: impl Fn(&SharedCluster, bool),
    chain: impl Fn(&GpuFabric, &GflinkEnv, bool) -> GDataSet<Pt>,
) -> ChainOut {
    let run = |rewrap: bool| {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        before(&cluster, rewrap);
        let fabric = GpuFabric::new(1, cfg());
        register_kernels(&fabric);
        let env = GflinkEnv::submit(&cluster, &fabric, "chain", SimTime::ZERO);
        let got = chain(&fabric, &env, rewrap).inner().collect("get", 8.0);
        let frontier = env.flink.frontier();
        let gpu = env.finish().gpu.expect("gpu rollup");
        ChainOut {
            bits: got.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect(),
            frontier,
            works: gpu.works,
            restores: gpu.restores,
            works_restored: gpu.works_restored,
        }
    };
    let resident = run(false);
    let rewrapped = run(true);
    assert!(!resident.bits.is_empty());
    assert_eq!(
        resident, rewrapped,
        "resident and re-wrapped chains must agree"
    );
    resident
}

fn same_both_ways(
    cfg: impl Fn() -> FabricConfig,
    chain: impl Fn(&GpuFabric, &GflinkEnv, bool) -> GDataSet<Pt>,
) -> ChainOut {
    same_both_ways_after(cfg, |_, _| {}, chain)
}

fn three_shifts(
    fabric: &GpuFabric,
    env: &GflinkEnv,
    rewrap: bool,
    layout: DataLayout,
) -> GDataSet<Pt> {
    let ds = env.flink.parallelize("pts", points(), PARTS, SCALE);
    let g = env.to_gdst(ds, layout);
    let first = spec(fabric, "shift").with_params(vec![layout_param(layout)]);
    let g = hop(env, g.gpu_map_partition::<Pt>("s1", &first), rewrap);
    let g = hop(
        env,
        g.gpu_map_partition::<Pt>("s2", &spec(fabric, "shift")),
        rewrap,
    );
    g.gpu_map_partition::<Pt>("s3", &spec(fabric, "shift"))
}

/// Pt → Wide → Pt → Pt: the Wide output is cut for 8-byte records, the
/// next pass needs a 24-byte cut (a re-cut), and the narrow pass cuts back.
fn resize_chain(fabric: &GpuFabric, env: &GflinkEnv, rewrap: bool) -> GDataSet<Pt> {
    let ds = env.flink.parallelize("pts", points(), PARTS, SCALE);
    let g = env.to_gdst(ds, DataLayout::Aos);
    let g = hop(
        env,
        g.gpu_map_partition::<Wide>("widen", &spec(fabric, "widen")),
        rewrap,
    );
    let g = hop(
        env,
        g.gpu_map_partition::<Pt>("narrow", &spec(fabric, "narrow")),
        rewrap,
    );
    g.gpu_map_partition::<Pt>("shift", &spec(fabric, "shift"))
}

#[test]
fn supersteps_over_one_gdst_encode_each_record_once() {
    let _serial = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    STORES.store(0, Ordering::Relaxed);
    LOADS.store(0, Ordering::Relaxed);
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, fabric_cfg());
    register_kernels(&fabric);
    let env = GflinkEnv::submit(&cluster, &fabric, "supersteps", SimTime::ZERO);
    let recs: Vec<Counted> = points().into_iter().map(Counted).collect();
    let ds = env.flink.parallelize("pts", recs, PARTS, SCALE);
    let mut g = env.to_gdst(ds, DataLayout::Aos);
    assert_eq!(STORES.load(Ordering::Relaxed), N, "to_gdst encodes once");
    for step in 0..3 {
        let out = g.gpu_map_partition::<Counted>(&format!("step{step}"), &spec(&fabric, "shift"));
        g.set_min_ready(env.flink.frontier());
        drop(out);
    }
    assert_eq!(
        STORES.load(Ordering::Relaxed),
        N,
        "supersteps never re-encode"
    );
    assert_eq!(
        LOADS.load(Ordering::Relaxed),
        0,
        "nothing read, nothing decoded"
    );
    env.finish();
}

#[test]
fn chained_maps_decode_once_and_only_on_demand() {
    let _serial = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    STORES.store(0, Ordering::Relaxed);
    LOADS.store(0, Ordering::Relaxed);
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, fabric_cfg());
    register_kernels(&fabric);
    let env = GflinkEnv::submit(&cluster, &fabric, "chain", SimTime::ZERO);
    let recs: Vec<Counted> = points().into_iter().map(Counted).collect();
    let ds = env.flink.parallelize("pts", recs, PARTS, SCALE);
    let mut g = env.to_gdst(ds, DataLayout::Aos);
    for step in 0..3 {
        g = g.gpu_map_partition::<Counted>(&format!("step{step}"), &spec(&fabric, "shift"));
    }
    assert_eq!(
        LOADS.load(Ordering::Relaxed),
        0,
        "GPU→GPU hops stay encoded"
    );
    let got = g.inner().collect("get", 8.0);
    assert_eq!(got.len(), N);
    // A second CPU read reuses the memoised records.
    assert_eq!(g.inner().actual_len(), N);
    assert_eq!(STORES.load(Ordering::Relaxed), N);
    assert_eq!(LOADS.load(Ordering::Relaxed), N);
    env.finish();
}

#[test]
fn aos_soa_and_aop_inputs_match_the_rewrapped_chain() {
    let mut digests = Vec::new();
    for layout in DataLayout::ALL {
        let out = same_both_ways(fabric_cfg, |f, e, r| three_shifts(f, e, r, layout));
        assert_eq!(out.bits.len(), N);
        digests.push(out.bits);
    }
    // The kernel reads each layout correctly: all three agree.
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

#[test]
fn a_record_size_change_recuts_without_changing_results() {
    let out = same_both_ways(fabric_cfg, resize_chain);
    assert_eq!(out.bits.len(), N);
    // 500 records × 100 per partition at 8 bytes fill 7 blocks of 64 KiB;
    // the 24-byte pass needs 19.
    assert_eq!(out.works, PARTS as u64 * (7 + 19 + 7));
}

#[test]
fn per_block_and_bounded_outputs_match_the_rewrapped_chain() {
    let sums = same_both_ways(fabric_cfg, |fabric, env, rewrap| {
        let ds = env.flink.parallelize("pts", points(), PARTS, SCALE);
        let g = env.to_gdst(ds, DataLayout::Aos);
        let per_block = spec(fabric, "blocksum")
            .with_out_mode(OutMode::PerBlock(1))
            .with_out_scale(1.0);
        let g = hop(env, g.gpu_map_partition::<Pt>("sum", &per_block), rewrap);
        g.gpu_map_partition::<Pt>("shift", &spec(fabric, "shift"))
    });
    assert_eq!(sums.bits.len(), PARTS * 7, "one partial per block");
    let evens = same_both_ways(fabric_cfg, |fabric, env, rewrap| {
        let ds = env.flink.parallelize("pts", points(), PARTS, SCALE);
        let g = env.to_gdst(ds, DataLayout::Aos);
        let bounded = spec(fabric, "evens").with_out_mode(OutMode::Bounded { per_record: 1 });
        let g = hop(env, g.gpu_map_partition::<Pt>("evens", &bounded), rewrap);
        let g = hop(
            env,
            g.gpu_map_partition::<Pt>("shift", &spec(fabric, "shift")),
            rewrap,
        );
        g.gpu_map_partition::<Pt>("evens2", &bounded)
    });
    assert!(evens.bits.len() < N);
}

#[test]
fn gpu_reduce_by_key_decodes_its_bounded_output() {
    let cluster = SharedCluster::new(ClusterConfig::standard(2));
    let fabric = GpuFabric::new(2, fabric_cfg());
    register_kernels(&fabric);
    let env = GflinkEnv::submit(&cluster, &fabric, "reduce", SimTime::ZERO);
    let pairs: Vec<(u32, f32)> = (0..N).map(|i| ((i % 37) as u32, (i % 5) as f32)).collect();
    let mut expect: BTreeMap<u32, f32> = BTreeMap::new();
    for &(k, v) in &pairs {
        *expect.entry(k).or_default() += v;
    }
    let ds = env.flink.parallelize("pairs", pairs, PARTS, SCALE);
    let reduced = env.gpu_reduce_by_key(
        "sum",
        &ds,
        "kvsum",
        GpuReduceCosts::default(),
        |&(k, v)| Kv { k, v },
        |kv| (kv.k, kv.v),
        |a, b| a + b,
    );
    let got: BTreeMap<u32, f32> = reduced.collect("get", 8.0).into_iter().collect();
    assert_eq!(got, expect);
    env.finish();
}

#[test]
fn all_gpus_lost_cpu_fallback_matches_the_rewrapped_chain() {
    let fallback_cfg = || {
        let mut cfg = fabric_cfg();
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: true,
            ..CpuFallback::default()
        };
        cfg
    };
    let lost = FaultPlan::new()
        .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 0 })
        .with(SimTime::ZERO, FaultKind::GpuLost { gpu: 1 });
    let fallback = same_both_ways(fallback_cfg, |fabric, env, rewrap| {
        fabric.with_managers(|ms| ms[0].set_fault_plan(lost.clone()));
        resize_chain(fabric, env, rewrap)
    });
    let healthy = same_both_ways(fabric_cfg, resize_chain);
    assert_eq!(
        fallback.bits, healthy.bits,
        "the host computes what the GPUs would"
    );
}

#[test]
fn crash_resume_feeds_restored_blocks_to_the_next_map() {
    let ckpt_cfg = || FabricConfig {
        checkpoint: CheckpointConfig::every(SimTime::from_millis(1)),
        ..fabric_cfg()
    };
    // Where the second of three maps runs, from a clean run.
    let (s2_start, s2_end) = {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let fabric = GpuFabric::new(1, ckpt_cfg());
        register_kernels(&fabric);
        let env = GflinkEnv::submit(&cluster, &fabric, "probe", SimTime::ZERO);
        let ds = env.flink.parallelize("pts", points(), PARTS, SCALE);
        let g = env.to_gdst(ds, DataLayout::Aos);
        let g = g.gpu_map_partition::<Pt>("s1", &spec(&fabric, "shift"));
        let start = env.flink.frontier();
        let _ = g.gpu_map_partition::<Pt>("s2", &spec(&fabric, "shift"));
        (start, env.flink.frontier())
    };
    let crash_at = s2_start + (s2_end - s2_start) / 2;
    let clean = same_both_ways(ckpt_cfg, |f, e, r| three_shifts(f, e, r, DataLayout::Aos));
    // Attempt 1 dies mid-s2 with no CPU fallback; its snapshots stay on
    // the cluster's HDFS for attempt 2, which restores s1 whole and s2 in
    // part, then feeds the restored blocks to the maps after them.
    let crash_first_attempt = |cluster: &SharedCluster, rewrap: bool| {
        let fabric = GpuFabric::new(1, ckpt_cfg());
        register_kernels(&fabric);
        fabric.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new()
                    .with(crash_at, FaultKind::GpuLost { gpu: 0 })
                    .with(crash_at, FaultKind::GpuLost { gpu: 1 }),
            )
        });
        let env = GflinkEnv::submit(cluster, &fabric, "chain", SimTime::ZERO);
        drop(three_shifts(&fabric, &env, rewrap, DataLayout::Aos));
        env.finish();
    };
    let resumed = same_both_ways_after(ckpt_cfg, crash_first_attempt, |f, e, r| {
        three_shifts(f, e, r, DataLayout::Aos)
    });
    assert_eq!(
        resumed.bits, clean.bits,
        "resumed results must be bit-identical"
    );
    assert!(resumed.restores >= 2, "s1 and s2 found their snapshots");
    assert!(
        resumed.works_restored > clean.works / 3,
        "all of s1 and part of s2 come from snapshots"
    );
    assert_eq!(resumed.works_restored + resumed.works, clean.works);
}
