//! PageRank (Fig. 5b).
//!
//! 5–25 M pages with a fixed out-degree of 8 and hub-skewed targets, 10
//! iterations of the classic dataflow formulation: ranks join the (hash
//! partitioned once) adjacency, each page scatters `rank/degree` to its
//! out-links, contributions reduce by destination, and damping is applied.
//!
//! The GPU path offloads the contribution scatter: the joined
//! (rank, links) records are packed into GStruct blocks and the kernel
//! emits raw contribution records, which a tight buffer scan (no
//! per-contribution object churn — §3.1's serialization argument) converts
//! into shuffle pairs. The shuffle itself is identical in both paths, which
//! is why PageRank's overall speedup is the lowest of the iterative
//! workloads (Observation 1).

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::page_links;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, GpuReduceCosts, OutMode};
use gflink_flink::{DataSet, FlinkEnv, KeyedOps, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;
use std::collections::BTreeMap;

/// Out-degree of every page in the synthetic web graph.
pub const DEG: usize = 8;
/// Damping factor.
pub const DAMPING: f64 = 0.85;
/// Default generator seed.
pub const PAGERANK_SEED: u64 = 0x50_5241_4E4B; // "PRANK"

/// Wire bytes of one (page, rank) pair at paper scale.
pub const RANK_PAIR_BYTES: f64 = 12.0;
/// Wire bytes of one (page, links) adjacency pair at paper scale.
pub const ADJ_PAIR_BYTES: f64 = (4 + DEG * 4 + 4) as f64;

gstruct! {
    /// A joined (rank, out-links) record, packed for the GPU.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RankedPage: Align8 {
        /// Current rank.
        pub rank: f32,
        /// Out-links.
        pub links: [u32; DEG],
    }
}

gstruct! {
    /// The kernel's output: one **block-combined** contribution per distinct
    /// destination (GFlink offloads the map-side combine together with the
    /// scatter — Flink's combiner runs inside the map task, so the GPU mapper
    /// takes both).
    #[derive(Clone, Debug, PartialEq)]
    pub struct AggContrib: Align8 {
        /// Destination page.
        pub dst: u32,
        /// Combined contribution from this block.
        pub val: f32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Pages at paper scale.
    pub n_logical: u64,
    /// Pages actually materialized.
    pub n_actual: usize,
    /// PageRank iterations.
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
            seed: PAGERANK_SEED,
        }
    }
}

/// Register the contribution scatter+combine kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaSumByKey", sum_by_key_kernel);
    fabric.register_kernel("cudaPagerankScatter", scatter_kernel);
}

/// The scatter+combine kernel: each page sends `rank / DEG` to every
/// out-link, combined per destination within the block.
fn scatter_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], RankedPage::def(), DataLayout::Aos, n);
    let (rank, links) = (
        reader.field(RankedPage::rank),
        reader.field(RankedPage::links),
    );
    // Scatter + block-level combine (sort/segmented-reduce on a real
    // device; a BTreeMap here).
    let mut agg: BTreeMap<u32, f64> = BTreeMap::new();
    for row in reader.rows() {
        let [r] = rank.read(row);
        let share = r as f64 / DEG as f64;
        for dst in links.read(row) {
            *agg.entry(dst).or_insert(0.0) += share;
        }
    }
    let capacity = n * DEG;
    let emitted = agg.len();
    write_contribs(args.outputs[0], capacity, agg);
    // Scatter (DEG adds) + sort-combine (~DEG·log window) per page.
    KernelProfile::new(
        args.n_logical as f64 * (6 * DEG) as f64,
        args.n_logical as f64
            * (RankedPage::def().size() + 2 * DEG * AggContrib::def().size()) as f64,
    )
    .with_coalescing(0.7)
    .with_emitted(emitted)
}

/// Write the combined contributions, key-ascending, as the leading
/// [`AggContrib`] rows of an output block of `capacity` records.
fn write_contribs(out: &mut HBuffer, capacity: usize, agg: BTreeMap<u32, f64>) {
    let mut view = RecordView::new(out, AggContrib::def(), DataLayout::Aos, capacity);
    let (dst, val) = (view.field(AggContrib::dst), view.field(AggContrib::val));
    for ((d, v), row) in agg.into_iter().zip(view.rows_mut()) {
        dst.write(row, [d]);
        val.write(row, [v as f32]);
    }
}

/// Register-time extra: the GPU reducer kernel (the paper's gpuReduce),
/// summing shuffled contribution pairs by key within each block.
fn sum_by_key_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], AggContrib::def(), DataLayout::Aos, n);
    let (dst, val) = (reader.field(AggContrib::dst), reader.field(AggContrib::val));
    let mut agg: BTreeMap<u32, f64> = BTreeMap::new();
    for row in reader.rows() {
        let ([d], [v]) = (dst.read(row), val.read(row));
        *agg.entry(d).or_insert(0.0) += v as f64;
    }
    let emitted = agg.len();
    write_contribs(args.outputs[0], n, agg);
    KernelProfile::new(
        args.n_logical as f64 * 10.0,
        args.n_logical as f64 * (2 * AggContrib::def().size()) as f64,
    )
    .with_coalescing(0.8)
    .with_emitted(emitted)
}

/// Per-page CPU cost of the contribution flatMap: one `Tuple2` allocation,
/// boxing and managed-memory serialization per out-link (§3.1).
pub fn cpu_scatter_cost() -> OpCost {
    OpCost::new((2 * DEG) as f64, (DEG * 12) as f64).with_overhead_factor(DEG as f64)
}

/// Per-record cost of scanning the GPU's raw combined-contribution buffer
/// into shuffle pairs (tight loop over off-heap bytes; no object churn).
pub fn gpu_unpack_cost() -> OpCost {
    OpCost::new(2.0, 12.0).with_overhead_factor(0.3)
}

fn read_adjacency(env: &FlinkEnv, params: &Params) -> DataSet<(u32, [u32; DEG])> {
    let seed = params.seed;
    let n_act = params.n_actual;
    // Deterministic mapping from logical index to actual page id.
    let scale = params.n_logical as f64 / n_act as f64;
    env.read_hdfs(
        "pages",
        "/input/pagerank",
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

fn digest(ranks: &[(u32, f32)]) -> f64 {
    // Weighted sum so permutations with swapped ranks differ.
    ranks
        .iter()
        .map(|(p, r)| (*p as f64 + 1.0).ln() * *r as f64)
        .sum()
}

/// Shared driver skeleton; `scatter` produces the per-iteration
/// contribution pairs from the joined (page, (rank, links)) dataset.
/// CPU cost of Flink's sort-based grouped reduce per shuffled record
/// (deserialize, compare, fold, re-serialize).
pub fn cpu_reduce_cost() -> OpCost {
    OpCost::new(4.0, 24.0).with_overhead_factor(2.0)
}

fn drive(
    env: &FlinkEnv,
    params: &Params,
    mut aggregate: impl FnMut(&DataSet<(u32, (f32, [u32; DEG]))>) -> DataSet<(u32, f32)>,
) -> (Vec<(u32, f32)>, Vec<SimTime>) {
    let scale = params.n_logical as f64 / params.n_actual as f64;
    let adj = read_adjacency(env, params).partition_by_key(
        "partition-adj",
        ADJ_PAIR_BYTES,
        scale,
        OpCost::trivial(),
    );
    let n_logical = params.n_logical as f64;
    let init = 1.0 / n_logical;
    let mut ranks = adj.map("init-ranks", OpCost::trivial(), move |(p, _)| {
        (*p, init as f32)
    });
    let mut per_iteration = Vec::with_capacity(params.iterations);
    let mut last = env.frontier();
    for _ in 0..params.iterations {
        let joined = ranks.join_local("rank-join-adj", &adj, scale);
        let sums = aggregate(&joined);
        let base = ((1.0 - DAMPING) / n_logical) as f32;
        ranks = sums.map("damping", OpCost::new(3.0, 12.0), move |(p, s)| {
            (*p, base + (DAMPING as f32) * s)
        });
        per_iteration.push(env.frontier() - last);
        last = env.frontier();
    }
    let got = ranks.collect("ranks", RANK_PAIR_BYTES);
    ranks.write_hdfs("save-ranks", "/output/pagerank", RANK_PAIR_BYTES);
    (got, per_iteration)
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "pagerank-cpu", at);
    let scale = params.n_logical as f64 / params.n_actual as f64;
    let (ranks, per_iteration) = drive(&env, params, |joined| {
        let contribs = joined.flat_map(
            "scatter",
            cpu_scatter_cost(),
            scale,
            |(_, (rank, links)), out| {
                let share = *rank / DEG as f32;
                for &l in links {
                    out.push((l, share));
                }
            },
        );
        contribs.reduce_by_key(
            "sum-contribs",
            cpu_reduce_cost(),
            RANK_PAIR_BYTES,
            scale,
            |a, b| a + b,
        )
    });
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&ranks),
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
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "pagerank-gpu", at);
    let genv2 = genv.clone();
    let scale = params.n_logical as f64 / params.n_actual as f64;
    let (ranks, per_iteration) = drive(&genv.flink, params, move |joined| {
        // Pack joined records into GStruct blocks (raw bytes, zero-copy to
        // the device) ...
        let packed = joined.map(
            "pack",
            OpCost::new(2.0, 36.0).with_overhead_factor(0.2),
            |(_, (rank, links))| RankedPage {
                rank: *rank,
                links: *links,
            },
        );
        let gdst: GDataSet<RankedPage> = genv2.to_gdst(packed, DataLayout::Aos);
        // ... scatter + combine on the GPU (input is iteration-fresh: no
        // caching; output cardinality is data dependent) ...
        let spec = GpuMapSpec::new("cudaPagerankScatter")
            .uncached()
            .with_out_mode(OutMode::Bounded { per_record: DEG })
            .with_out_scale(scale)
            .build(&setup.fabric)
            .expect("pagerank spec");
        let contribs: GDataSet<AggContrib> = gdst.gpu_map_partition("scatter", &spec);
        // ... scan the raw output buffer into shuffle pairs ...
        let pairs = contribs
            .inner()
            .map("unpack", gpu_unpack_cost(), |rec| (rec.dst, rec.val));
        // ... then the paper's gpuReduce: shuffle (same network volume as
        // the baseline), sum-by-key per block on the GPU, boundary merge.
        genv2.gpu_reduce_by_key(
            "sum-contribs",
            &pairs,
            "cudaSumByKey",
            GpuReduceCosts::default(),
            |(d, v)| AggContrib { dst: *d, val: *v },
            |r| (r.dst, r.val),
            |a, b| a + b,
        )
    });
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&ranks),
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
        let def = RankedPage::def();
        let out_def = AggContrib::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut agg: BTreeMap<u32, f64> = BTreeMap::new();
        for i in 0..n {
            let share = reader.get_f64(i, 0, 0) / DEG as f64;
            for k in 0..DEG {
                *agg.entry(reader.get_u64(i, 1, k) as u32).or_insert(0.0) += share;
            }
        }
        let capacity = n * DEG;
        let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, capacity);
        let emitted = agg.len();
        for (i, (dst, val)) in agg.into_iter().enumerate() {
            AggContrib {
                dst,
                val: val as f32,
            }
            .store(&mut view, i);
        }
        KernelProfile::new(
            args.n_logical as f64 * (6 * DEG) as f64,
            args.n_logical as f64
                * (RankedPage::def().size() + 2 * DEG * AggContrib::def().size()) as f64,
        )
        .with_coalescing(0.7)
        .with_emitted(emitted)
    }

    /// The reducer kernel before field handles.
    fn sum_by_key_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = AggContrib::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut agg: BTreeMap<u32, f64> = BTreeMap::new();
        for i in 0..n {
            *agg.entry(reader.get_u64(i, 0, 0) as u32).or_insert(0.0) += reader.get_f64(i, 1, 0);
        }
        let mut view = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
        let emitted = agg.len();
        for (i, (dst, val)) in agg.into_iter().enumerate() {
            AggContrib {
                dst,
                val: val as f32,
            }
            .store(&mut view, i);
        }
        KernelProfile::new(
            args.n_logical as f64 * 10.0,
            args.n_logical as f64 * (2 * AggContrib::def().size()) as f64,
        )
        .with_coalescing(0.8)
        .with_emitted(emitted)
    }

    #[test]
    fn row_walk_kernels_match_accessor_oracles() {
        let mut rng = SmallRng::seed_from_u64(0x9A6E);
        for n in SIZES {
            // Few distinct destinations, so blocks combine.
            let pages: Vec<RankedPage> = (0..n)
                .map(|_| RankedPage {
                    rank: rng.gen_range(0.0f32..3.0),
                    links: std::array::from_fn(|_| rng.gen_range(0u32..40)),
                })
                .collect();
            let out_bytes = n * DEG * AggContrib::def().size();
            let block = aos_block(&pages);
            assert_same_launch(scatter_kernel, scatter_oracle, &[&block], &[], n, out_bytes);
            let contribs: Vec<AggContrib> = (0..n)
                .map(|_| AggContrib {
                    dst: rng.gen_range(0u32..40),
                    val: rng.gen_range(0.0f32..1.0),
                })
                .collect();
            let out_bytes = n * AggContrib::def().size();
            let block = aos_block(&contribs);
            assert_same_launch(
                sum_by_key_kernel,
                sum_by_key_oracle,
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
            digests_match(cpu.digest, gpu.digest, 1e-3),
            "{} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    #[test]
    fn hubs_accumulate_rank() {
        let s = Setup::standard(1);
        let p = Params {
            n_logical: 1_000_000,
            n_actual: 2_000,
            iterations: 5,
            parallelism: 4,
            seed: 9,
        };
        let env = FlinkEnv::submit(&s.cluster, "pr", SimTime::ZERO);
        let (ranks, _) = drive(&env, &p, |joined| {
            joined
                .flat_map(
                    "scatter",
                    cpu_scatter_cost(),
                    500.0,
                    |(_, (r, links)), out| {
                        let share = *r / DEG as f32;
                        for &l in links {
                            out.push((l, share));
                        }
                    },
                )
                .reduce_by_key("sum", cpu_reduce_cost(), RANK_PAIR_BYTES, 500.0, |a, b| {
                    a + b
                })
        });
        // Hub pages (ids < n/100) must hold far more rank than average.
        let hub_cut = (p.n_actual / 100).max(1) as u32;
        let hub_avg = avg(ranks.iter().filter(|(p, _)| *p < hub_cut));
        let tail_avg = avg(ranks.iter().filter(|(p, _)| *p >= hub_cut));
        assert!(hub_avg > tail_avg * 5.0, "hub {hub_avg} vs tail {tail_avg}");
    }

    fn avg<'a>(it: impl Iterator<Item = &'a (u32, f32)>) -> f64 {
        let v: Vec<f64> = it.map(|(_, r)| *r as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    #[test]
    fn iteration_count_respected() {
        let s = Setup::standard(1);
        let mut p = small(&s);
        p.iterations = 4;
        let run = run_cpu(&s, &p);
        assert_eq!(run.per_iteration.len(), 4);
    }
}
