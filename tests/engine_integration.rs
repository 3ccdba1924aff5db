//! Cross-crate engine integration tests: custom kernels through the GDST
//! API, cache/scheduling semantics, multi-job sharing and the communication
//! models — everything wired together through the facade crate.

use gflink::core::{
    CachePolicy, FabricConfig, GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec,
    GpuWorkerConfig, OutMode, SchedulingPolicy,
};
use gflink::flink::{ClusterConfig, KeyedOps, OpCost, SharedCluster};
use gflink::gpu::{GpuModel, KernelArgs, KernelProfile, TransferPath};
use gflink::memory::{gstruct, DataLayout, RecordReader, RecordView};
use gflink::sim::SimTime;

gstruct! {
    #[derive(Clone, Debug, PartialEq)]
    struct Cell: Align8 {
        id: u32,
        v: f32,
    }
}

fn square_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let def = Cell::def();
    let n = args.n_actual;
    let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
    let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
    for i in 0..n {
        let c = Cell::load(&input, i);
        Cell {
            id: c.id,
            v: c.v * c.v,
        }
        .store(&mut out, i);
    }
    KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 16.0)
}

fn setup(workers: usize) -> (SharedCluster, GpuFabric) {
    let cluster = SharedCluster::new(ClusterConfig::standard(workers));
    let fabric = GpuFabric::new(workers, FabricConfig::default());
    fabric.register_kernel("square", square_kernel);
    (cluster, fabric)
}

#[test]
fn custom_kernel_pipeline_produces_exact_results() {
    let (cluster, fabric) = setup(2);
    let env = GflinkEnv::submit(&cluster, &fabric, "sq", SimTime::ZERO);
    let cells: Vec<Cell> = (0..500)
        .map(|i| Cell {
            id: i,
            v: i as f32 / 10.0,
        })
        .collect();
    let ds = env.flink.parallelize("cells", cells.clone(), 8, 1000.0);
    let gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
    let mut got = out.inner().collect("get", 8.0);
    got.sort_by_key(|c| c.id);
    for (i, c) in got.iter().enumerate() {
        assert_eq!(c.id, i as u32);
        let expect = (i as f32 / 10.0) * (i as f32 / 10.0);
        assert!((c.v - expect).abs() < 1e-5);
    }
}

#[test]
fn results_are_identical_across_scheduling_policies() {
    let digest_under = |policy: SchedulingPolicy| {
        let cluster = SharedCluster::new(ClusterConfig::standard(2));
        let cfg = FabricConfig {
            worker: GpuWorkerConfig {
                models: vec![GpuModel::TeslaC2050, GpuModel::TeslaP100],
                scheduling: policy,
                ..GpuWorkerConfig::default()
            },
            ..FabricConfig::default()
        };
        let fabric = GpuFabric::new(2, cfg);
        fabric.register_kernel("square", square_kernel);
        let env = GflinkEnv::submit(&cluster, &fabric, "sq", SimTime::ZERO);
        let cells: Vec<Cell> = (0..300).map(|i| Cell { id: i, v: i as f32 }).collect();
        let ds = env.flink.parallelize("cells", cells, 8, 10_000.0);
        let gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
        let out = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
        out.inner()
            .collect("get", 8.0)
            .iter()
            .map(|c| c.v as f64)
            .sum::<f64>()
    };
    let reference = digest_under(SchedulingPolicy::LocalityAware);
    for policy in [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::Random { seed: 3 },
        SchedulingPolicy::LocalityNoSteal,
    ] {
        assert_eq!(
            digest_under(policy),
            reference,
            "{policy:?} changed results"
        );
    }
}

#[test]
fn cache_policies_do_not_change_results() {
    let digest_under = |policy: CachePolicy| {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let mut cfg = FabricConfig::default();
        cfg.worker.cache_policy = policy;
        let fabric = GpuFabric::new(1, cfg);
        fabric.register_kernel("square", square_kernel);
        let env = GflinkEnv::submit(&cluster, &fabric, "sq", SimTime::ZERO);
        let cells: Vec<Cell> = (0..200).map(|i| Cell { id: i, v: 2.0 }).collect();
        let ds = env.flink.parallelize("cells", cells, 4, 1.0e6);
        let mut gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
        let mut total = 0.0f64;
        for _ in 0..3 {
            let out = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
            total += out
                .inner()
                .collect("get", 8.0)
                .iter()
                .map(|c| c.v as f64)
                .sum::<f64>();
            gdst.set_min_ready(env.flink.frontier());
        }
        total
    };
    let a = digest_under(CachePolicy::Fifo);
    let b = digest_under(CachePolicy::StopWhenFull);
    let c = digest_under(CachePolicy::Disabled);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn caching_makes_repeat_maps_faster_but_disabled_does_not() {
    let repeat_cost = |policy: CachePolicy| {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let mut cfg = FabricConfig::default();
        cfg.worker.cache_policy = policy;
        let fabric = GpuFabric::new(1, cfg);
        fabric.register_kernel("square", square_kernel);
        let env = GflinkEnv::submit(&cluster, &fabric, "sq", SimTime::ZERO);
        // 200 x 1e6 logical cells x 8 B = 1.6 GB: fits the two GPUs' cache
        // regions, so the Fifo policy keeps everything resident.
        let cells: Vec<Cell> = (0..200).map(|i| Cell { id: i, v: 2.0 }).collect();
        let ds = env.flink.parallelize("cells", cells, 4, 1.0e6);
        let mut gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
        let mut iters = Vec::new();
        for _ in 0..3 {
            let before = env.flink.frontier();
            let _ = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
            gdst.set_min_ready(env.flink.frontier());
            iters.push((env.flink.frontier() - before).as_secs_f64());
        }
        iters
    };
    let cached = repeat_cost(CachePolicy::Fifo);
    assert!(
        cached[1] < cached[0] * 0.6,
        "cache should cut repeats: {cached:?}"
    );
    let disabled = repeat_cost(CachePolicy::Disabled);
    assert!(
        disabled[1] > disabled[0] * 0.6,
        "disabled cache keeps repeats expensive: {disabled:?}"
    );
}

#[test]
fn concurrent_jobs_share_but_do_not_corrupt() {
    let (cluster, fabric) = setup(2);
    let run_job = |name: &str, v: f32| {
        let env = GflinkEnv::submit(&cluster, &fabric, name, SimTime::ZERO);
        let cells: Vec<Cell> = (0..100).map(|i| Cell { id: i, v }).collect();
        let ds = env.flink.parallelize("cells", cells, 4, 1000.0);
        let gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
        let out = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
        out.inner()
            .collect("get", 8.0)
            .iter()
            .map(|c| c.v as f64)
            .sum::<f64>()
    };
    let a = run_job("job-a", 2.0);
    let b = run_job("job-b", 3.0);
    assert_eq!(a, 100.0 * 4.0);
    assert_eq!(b, 100.0 * 9.0);
}

#[test]
fn bounded_output_mode_roundtrips_variable_cardinality() {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, FabricConfig::default());
    // Deduplicate by id within a block, data-dependent output count.
    fabric.register_kernel("dedup", |args: &mut KernelArgs<'_, '_>| {
        use std::collections::BTreeMap;
        let def = Cell::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut seen: BTreeMap<u32, f32> = BTreeMap::new();
        for i in 0..n {
            let c = Cell::load(&input, i);
            seen.entry(c.id).or_insert(c.v);
        }
        let mut out = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        let emitted = seen.len();
        for (i, (id, v)) in seen.into_iter().enumerate() {
            Cell { id, v }.store(&mut out, i);
        }
        KernelProfile::new(n as f64, n as f64 * 8.0).with_emitted(emitted)
    });
    let env = GflinkEnv::submit(&cluster, &fabric, "dedup", SimTime::ZERO);
    let cells: Vec<Cell> = (0..400).map(|i| Cell { id: i % 10, v: 1.0 }).collect();
    let ds = env.flink.parallelize("cells", cells, 1, 1.0);
    let gdst: GDataSet<Cell> = env.to_gdst(ds, DataLayout::Aos);
    let spec = GpuMapSpec::new("dedup")
        .uncached()
        .with_out_mode(OutMode::Bounded { per_record: 1 });
    let out = gdst.gpu_map_partition::<Cell>("dedup", &spec);
    let got = out.inner().collect("get", 8.0);
    // One partition, possibly several blocks; each block dedups to <= 10.
    assert!(got.len() <= 10 * 4 && got.len() >= 10, "got {}", got.len());
}

#[test]
fn table2_paths_order_correctly_through_facade() {
    let spec = GpuModel::TeslaC2050.spec();
    let g = TransferPath::gflink(&spec);
    let n = TransferPath::native(&spec);
    assert!(g.effective_bandwidth(2048) < n.effective_bandwidth(2048));
    let big = 1 << 20;
    let rel = (g.effective_bandwidth(big) - n.effective_bandwidth(big)).abs()
        / n.effective_bandwidth(big);
    assert!(rel < 0.01);
}

#[test]
fn keyed_dataflow_composes_with_gpu_maps() {
    // Mixed pipeline: CPU keyed aggregation feeding a GPU map.
    let (cluster, fabric) = setup(1);
    let env = GflinkEnv::submit(&cluster, &fabric, "mixed", SimTime::ZERO);
    let pairs: Vec<(u32, f32)> = (0..120).map(|i| (i % 6, 0.5f32)).collect();
    let ds = env.flink.parallelize("pairs", pairs, 4, 1.0);
    let sums = ds.reduce_by_key("sum", OpCost::trivial(), 12.0, 1.0, |a, b| a + b);
    let cells = sums.map("to-cell", OpCost::trivial(), |(k, v)| Cell {
        id: *k,
        v: *v,
    });
    let gdst: GDataSet<Cell> = env.to_gdst(cells, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<Cell>("square", &GpuMapSpec::new("square"));
    let mut got = out.inner().collect("get", 8.0);
    got.sort_by_key(|c| c.id);
    assert_eq!(got.len(), 6);
    for c in got {
        assert!((c.v - 100.0).abs() < 1e-4); // (20 * 0.5)^2
    }
}
