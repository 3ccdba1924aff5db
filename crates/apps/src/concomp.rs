//! Connected components by label propagation (Fig. 6c, the paper's
//! "ComponentConnect").
//!
//! Same synthetic graph as PageRank (5–25 M pages, degree 8, undirected
//! reading). Every page starts with its own id as label; each iteration a
//! page broadcasts its label to its neighbours (plus itself) and adopts the
//! minimum label it hears. The GPU path offloads the message scatter
//! exactly like PageRank's contribution scatter; the per-page work is a
//! little heavier (comparisons + self message), which is why the paper
//! reports a higher speedup for CC (4.8×) than for PageRank (3.5×).

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::page_links;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, GpuReduceCosts, OutMode};
use gflink_flink::{DataSet, FlinkEnv, KeyedOps, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::collections::BTreeMap;

/// Degree of the synthetic graph.
pub const DEG: usize = 8;
/// Default generator seed (shared with PageRank: same graph shape).
pub const CONCOMP_SEED: u64 = 0x50_5241_4E4B;

/// Wire bytes of one (page, label) pair at paper scale.
pub const LABEL_PAIR_BYTES: f64 = 12.0;
/// Wire bytes of one adjacency pair at paper scale.
pub const ADJ_PAIR_BYTES: f64 = (4 + DEG * 4 + 4) as f64;

gstruct! {
    /// A joined (label, out-links) record, packed for the GPU.
    #[derive(Clone, Debug, PartialEq)]
    pub struct LabelledPage: Align8 {
        /// The page's own id.
        pub page: u32,
        /// Current component label.
        pub label: u32,
        /// Neighbours.
        pub links: [u32; DEG],
    }
}

gstruct! {
    /// Kernel output: one **block-combined** minimum-label message per distinct
    /// destination.
    #[derive(Clone, Debug, PartialEq)]
    pub struct AggMsg: Align8 {
        /// Destination page.
        pub dst: u32,
        /// Minimum label heard within the block.
        pub label: u32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Pages at paper scale.
    pub n_logical: u64,
    /// Pages actually materialized.
    pub n_actual: usize,
    /// Label-propagation iterations.
    pub iterations: usize,
    /// Data parallelism.
    pub parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// A Table 1 size: `millions` of pages (5–25 in the paper).
    pub fn paper(millions: u64, setup: &Setup) -> Params {
        Params {
            n_logical: millions * 1_000_000,
            n_actual: ((millions * 400) as usize).max(1000),
            iterations: 10,
            parallelism: setup.default_parallelism(),
            seed: CONCOMP_SEED,
        }
    }
}

/// Register the message scatter+combine kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaMinByKey", min_by_key_kernel);
    fabric.register_kernel("cudaCcScatter", scatter_kernel);
}

/// Keep the smallest label heard for `dst`.
fn note_min(agg: &mut BTreeMap<u32, u32>, dst: u32, label: u32) {
    match agg.get_mut(&dst) {
        Some(cur) => *cur = (*cur).min(label),
        None => {
            agg.insert(dst, label);
        }
    }
}

/// Write the combined messages, key-ascending, as the leading [`AggMsg`]
/// rows of an output block of `capacity` records.
fn write_msgs(out: &mut HBuffer, capacity: usize, agg: BTreeMap<u32, u32>) {
    let mut view = RecordView::new(out, AggMsg::def(), DataLayout::Aos, capacity);
    let (dst, label) = (view.field(AggMsg::dst), view.field(AggMsg::label));
    for ((d, l), row) in agg.into_iter().zip(view.rows_mut()) {
        dst.write(row, [d]);
        label.write(row, [l]);
    }
}

/// The scatter+combine kernel: each page sends its label to itself and
/// its neighbours, min-combined per destination within the block.
fn scatter_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], LabelledPage::def(), DataLayout::Aos, n);
    let (page, label, links) = (
        reader.field(LabelledPage::page),
        reader.field(LabelledPage::label),
        reader.field(LabelledPage::links),
    );
    // Scatter labels to self + neighbours, min-combining within the
    // block (segmented sort/reduce on a real device).
    let mut agg: BTreeMap<u32, u32> = BTreeMap::new();
    for row in reader.rows() {
        let ([p], [l]) = (page.read(row), label.read(row));
        note_min(&mut agg, p, l);
        for dst in links.read(row) {
            note_min(&mut agg, dst, l);
        }
    }
    let emitted = agg.len();
    write_msgs(args.outputs[0], n * (DEG + 1), agg);
    KernelProfile::new(
        args.n_logical as f64 * (8 * (DEG + 1)) as f64,
        args.n_logical as f64
            * (LabelledPage::def().size() + 2 * (DEG + 1) * AggMsg::def().size()) as f64,
    )
    .with_coalescing(0.7)
    .with_emitted(emitted)
}

/// The GPU reducer kernel (the paper's gpuReduce): min-by-key over shuffled
/// label messages within each block.
fn min_by_key_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], AggMsg::def(), DataLayout::Aos, n);
    let (dst, label) = (reader.field(AggMsg::dst), reader.field(AggMsg::label));
    let mut agg: BTreeMap<u32, u32> = BTreeMap::new();
    for row in reader.rows() {
        let ([d], [l]) = (dst.read(row), label.read(row));
        note_min(&mut agg, d, l);
    }
    let emitted = agg.len();
    write_msgs(args.outputs[0], n, agg);
    KernelProfile::new(
        args.n_logical as f64 * 10.0,
        args.n_logical as f64 * (2 * AggMsg::def().size()) as f64,
    )
    .with_coalescing(0.8)
    .with_emitted(emitted)
}

/// CPU cost of Flink's sort-based grouped reduce per shuffled record: the
/// min-fold compares and branches per label on top of the deserialize/sort
/// path, making CC's baseline reduce the heaviest of the graph workloads.
pub fn cpu_reduce_cost() -> OpCost {
    OpCost::new(6.0, 24.0).with_overhead_factor(2.6)
}

/// Per-page CPU cost of the message flatMap (one boxed Tuple2 per message,
/// including the self message, plus comparisons).
pub fn cpu_scatter_cost() -> OpCost {
    OpCost::new((3 * (DEG + 1)) as f64, ((DEG + 1) * 12) as f64)
        .with_overhead_factor((DEG + 1) as f64 * 1.3)
}

/// Per-record cost of the raw-buffer unpack on the GPU path.
pub fn gpu_unpack_cost() -> OpCost {
    OpCost::new(2.0, 12.0).with_overhead_factor(0.3)
}

fn read_adjacency(env: &FlinkEnv, params: &Params) -> DataSet<(u32, [u32; DEG])> {
    let seed = params.seed;
    let n_act = params.n_actual;
    let scale = params.n_logical as f64 / n_act as f64;
    env.read_hdfs(
        "pages",
        "/input/concomp",
        params.n_logical,
        params.n_actual,
        ADJ_PAIR_BYTES,
        params.parallelism,
        move |i| {
            let page = (i as f64 / scale).round() as usize % n_act;
            (page as u32, page_links::<DEG>(seed, i, n_act as u64))
        },
    )
}

fn digest(labels: &[(u32, u32)]) -> f64 {
    labels.iter().map(|(_, l)| *l as f64).sum()
}

fn drive(
    env: &FlinkEnv,
    params: &Params,
    mut aggregate: impl FnMut(&DataSet<(u32, (u32, [u32; DEG]))>) -> DataSet<(u32, u32)>,
) -> (Vec<(u32, u32)>, Vec<SimTime>) {
    let scale = params.n_logical as f64 / params.n_actual as f64;
    let adj = read_adjacency(env, params).partition_by_key(
        "partition-adj",
        ADJ_PAIR_BYTES,
        scale,
        OpCost::trivial(),
    );
    let mut labels = adj.map("init-labels", OpCost::trivial(), |(p, _)| (*p, *p));
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    for _ in 0..params.iterations {
        let joined = labels.join_local("label-join-adj", &adj, scale);
        labels = aggregate(&joined);
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    let got = labels.collect("labels", LABEL_PAIR_BYTES);
    labels.write_hdfs("save-labels", "/output/concomp", LABEL_PAIR_BYTES);
    (got, per_iteration)
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "concomp-cpu", at);
    let (labels, per_iteration) = drive(&env, params, |joined| {
        let scale = joined.scale();
        joined
            .flat_map(
                "cc-scatter",
                cpu_scatter_cost(),
                scale,
                |(page, (label, links)), out| {
                    out.push((*page, *label));
                    for &l in links {
                        out.push((l, *label));
                    }
                },
            )
            .reduce_by_key(
                "min-label",
                cpu_reduce_cost(),
                LABEL_PAIR_BYTES,
                scale,
                |a, b| *a.min(b),
            )
    });
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&labels),
        per_iteration,
    }
}

/// Run on GFlink.
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "concomp-gpu", at);
    let genv2 = genv.clone();
    let (labels, per_iteration) = drive(&genv.flink, params, move |joined| {
        let scale = joined.scale();
        let packed = joined.map(
            "pack",
            OpCost::new(2.0, 44.0).with_overhead_factor(0.2),
            |(page, (label, links))| LabelledPage {
                page: *page,
                label: *label,
                links: *links,
            },
        );
        let gdst: GDataSet<LabelledPage> = genv2.to_gdst(packed, DataLayout::Aos);
        let spec = GpuMapSpec::new("cudaCcScatter")
            .uncached()
            .with_out_mode(OutMode::Bounded {
                per_record: DEG + 1,
            })
            .with_out_scale(scale)
            .build(&setup.fabric)
            .expect("concomp spec");
        let msgs: GDataSet<AggMsg> = gdst.gpu_map_partition("cc-scatter", &spec);
        let pairs = msgs
            .inner()
            .map("unpack", gpu_unpack_cost(), |rec| (rec.dst, rec.label));
        // The paper's gpuReduce: shuffle, min-by-key per block on the GPU,
        // boundary merge.
        genv2.gpu_reduce_by_key(
            "min-label",
            &pairs,
            "cudaMinByKey",
            GpuReduceCosts::default(),
            |(d, l)| AggMsg { dst: *d, label: *l },
            |r| (r.dst, r.label),
            |a, b| *a.min(b),
        )
    });
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&labels),
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;
    use crate::common::oracle::{aos_block, assert_same_launch, SIZES};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The scatter kernel before field handles, per-element accessors: the
    /// reference the row walk must match byte for byte.
    fn scatter_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = LabelledPage::def();
        let out_def = AggMsg::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut agg: BTreeMap<u32, u32> = BTreeMap::new();
        let mut note = |dst: u32, label: u32| match agg.get_mut(&dst) {
            Some(cur) => *cur = (*cur).min(label),
            None => {
                agg.insert(dst, label);
            }
        };
        for i in 0..n {
            let label = reader.get_u64(i, 1, 0) as u32;
            note(reader.get_u64(i, 0, 0) as u32, label);
            for k in 0..DEG {
                note(reader.get_u64(i, 2, k) as u32, label);
            }
        }
        let capacity = n * (DEG + 1);
        let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, capacity);
        let emitted = agg.len();
        for (i, (dst, label)) in agg.into_iter().enumerate() {
            AggMsg { dst, label }.store(&mut view, i);
        }
        KernelProfile::new(
            args.n_logical as f64 * (8 * (DEG + 1)) as f64,
            args.n_logical as f64
                * (LabelledPage::def().size() + 2 * (DEG + 1) * AggMsg::def().size()) as f64,
        )
        .with_coalescing(0.7)
        .with_emitted(emitted)
    }

    /// The reducer kernel before field handles.
    fn min_by_key_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = AggMsg::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut agg: BTreeMap<u32, u32> = BTreeMap::new();
        for i in 0..n {
            let dst = reader.get_u64(i, 0, 0) as u32;
            let label = reader.get_u64(i, 1, 0) as u32;
            match agg.get_mut(&dst) {
                Some(cur) => *cur = (*cur).min(label),
                None => {
                    agg.insert(dst, label);
                }
            }
        }
        let mut view = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        let emitted = agg.len();
        for (i, (dst, label)) in agg.into_iter().enumerate() {
            AggMsg { dst, label }.store(&mut view, i);
        }
        KernelProfile::new(
            args.n_logical as f64 * 10.0,
            args.n_logical as f64 * (2 * AggMsg::def().size()) as f64,
        )
        .with_coalescing(0.8)
        .with_emitted(emitted)
    }

    #[test]
    fn row_walk_kernels_match_accessor_oracles() {
        let mut rng = SmallRng::seed_from_u64(0xCC01);
        for n in SIZES {
            // Few distinct pages and labels, so blocks combine.
            let pages: Vec<LabelledPage> = (0..n)
                .map(|_| LabelledPage {
                    page: rng.gen_range(0u32..50),
                    label: rng.gen_range(0u32..50),
                    links: std::array::from_fn(|_| rng.gen_range(0u32..50)),
                })
                .collect();
            let out_bytes = n * (DEG + 1) * AggMsg::def().size();
            let block = aos_block(&pages);
            assert_same_launch(scatter_kernel, scatter_oracle, &[&block], &[], n, out_bytes);
            let msgs: Vec<AggMsg> = (0..n)
                .map(|_| AggMsg {
                    dst: rng.gen_range(0u32..50),
                    label: rng.gen_range(0u32..50),
                })
                .collect();
            let out_bytes = n * AggMsg::def().size();
            let block = aos_block(&msgs);
            assert_same_launch(
                min_by_key_kernel,
                min_by_key_oracle,
                &[&block],
                &[],
                n,
                out_bytes,
            );
        }
    }

    fn small(setup: &Setup) -> Params {
        Params {
            n_logical: 2_000_000,
            n_actual: 1_000,
            iterations: 3,
            parallelism: setup.default_parallelism(),
            seed: 9,
        }
    }

    #[test]
    fn cpu_and_gpu_agree() {
        let s1 = Setup::standard(2);
        let cpu = run_cpu(&s1, &small(&s1));
        let s2 = Setup::standard(2);
        let gpu = run_gpu(&s2, &small(&s2));
        assert!(
            digests_match(cpu.digest, gpu.digest, 1e-9),
            "{} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    #[test]
    fn labels_decrease_monotonically_to_components() {
        // With hub-skewed links, nearly everything connects to the hubs, so
        // after enough iterations labels collapse toward tiny ids.
        let s = Setup::standard(1);
        let p = Params {
            n_logical: 500_000,
            n_actual: 500,
            iterations: 8,
            parallelism: 4,
            seed: 9,
        };
        let run = run_cpu(&s, &p);
        // Average label far below average id (249.5).
        let avg_label = run.digest / p.n_actual as f64;
        assert!(avg_label < 50.0, "labels did not propagate: {avg_label}");
    }

    #[test]
    fn per_iteration_recorded() {
        let s = Setup::standard(1);
        let run = run_cpu(&s, &small(&s));
        assert_eq!(run.per_iteration.len(), 3);
        assert!(run.per_iteration.iter().all(|t| !t.is_zero()));
    }
}
