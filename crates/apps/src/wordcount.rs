//! WordCount (Fig. 5c).
//!
//! 24–56 GB of text with a Zipf-distributed vocabulary, one pass: tokenize,
//! count per word, write the counts. WordCount is the paper's negative
//! control — a batch workload whose time is dominated by HDFS I/O and
//! tokenization, so GPU acceleration of the counting map yields only ≈1.1×
//! overall (§6.5: "the I/O overhead of WordCount is the bottleneck").
//!
//! The GPU path offloads the local aggregation: word-id blocks are shipped
//! to the device, a histogram kernel produces per-block (word, count)
//! partials, and only those tiny partials enter the shuffle. Tokenization
//! (string work) stays on the CPU in both paths, as it must.

use crate::common::{AppRun, ExecMode, Setup};
use crate::generators::zipf_word;
use gflink_core::{GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, OutMode};
use gflink_flink::{DataSet, FlinkEnv, KeyedOps, OpCost};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRow, RecordReader, RecordView};
use gflink_sim::SimTime;

/// Vocabulary size (distinct words).
pub const VOCAB: u32 = 1_000;
/// Average bytes per word in the input text (word + separator).
pub const WORD_BYTES: f64 = 7.0;
/// Default generator seed.
pub const WORDCOUNT_SEED: u64 = 0x574F_5244; // "WORD"

gstruct! {
    /// A tokenized word id.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WordId: Align4 {
        /// Vocabulary index.
        pub id: u32,
    }
}

gstruct! {
    /// A per-block count partial.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CountRec: Align4 {
        /// Vocabulary index.
        pub id: u32,
        /// Occurrences in the block (logical scale).
        pub count: u32,
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Input text bytes at paper scale.
    pub bytes_logical: u64,
    /// Words actually materialized.
    pub words_actual: usize,
    /// Data parallelism.
    pub parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// A Table 1 size: `gb` gigabytes of text (24–56 in the paper).
    pub fn paper(gb: u64, setup: &Setup) -> Params {
        Params {
            bytes_logical: gb * 1_000_000_000,
            words_actual: (gb as usize * 1_500).max(2_000),
            parallelism: setup.default_parallelism(),
            seed: WORDCOUNT_SEED,
        }
    }

    /// Words at paper scale.
    pub fn words_logical(&self) -> u64 {
        (self.bytes_logical as f64 / WORD_BYTES) as u64
    }
}

/// Register the histogram kernel.
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel("cudaWordHistogram", histogram_kernel);
}

/// The histogram kernel: one count per vocabulary word in the block.
fn histogram_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let reader = RecordReader::new(args.inputs[0], WordId::def(), DataLayout::Aos, n);
    let mut counts = vec![0u64; VOCAB as usize];
    for row in reader.rows_of::<WordId>() {
        counts[WordId::load_row(row).id as usize % VOCAB as usize] += 1;
    }
    let mut view = RecordView::new(
        args.outputs[0],
        CountRec::def(),
        DataLayout::Aos,
        VOCAB as usize,
    );
    for ((w, c), row) in counts
        .iter()
        .enumerate()
        .zip(view.rows_of_mut::<CountRec>())
    {
        CountRec {
            id: w as u32,
            count: (*c).min(u32::MAX as u64) as u32,
        }
        .store_row(row);
    }
    // One atomic add per word plus the histogram write-back.
    KernelProfile::new(
        args.n_logical as f64 * 2.0,
        args.n_logical as f64 * 8.0 + VOCAB as f64 * 8.0,
    )
    .with_coalescing(0.5) // histogram scatter is irregular
}

/// CPU cost of tokenization (string scanning, char decoding, object churn).
pub fn cpu_tokenize_cost() -> OpCost {
    OpCost::new(24.0, WORD_BYTES * 2.0).with_overhead_factor(2.0)
}

/// CPU cost of the baseline's per-word combine insert: a hot hash-table hit
/// on a primitive key — far cheaper than a full operator hop.
pub fn cpu_count_cost() -> OpCost {
    OpCost::new(4.0, 12.0).with_overhead_factor(0.4)
}

fn read_words(env: &FlinkEnv, params: &Params) -> DataSet<WordId> {
    let seed = params.seed;
    env.read_hdfs(
        "text",
        "/input/wordcount",
        params.words_logical(),
        params.words_actual,
        WORD_BYTES,
        params.parallelism,
        move |i| WordId {
            id: zipf_word(seed, i, VOCAB),
        },
    )
}

fn digest(counts: &[(u32, u64)]) -> f64 {
    counts
        .iter()
        .map(|(id, c)| (*id as f64 + 1.0).ln() * *c as f64)
        .sum()
}

/// Run on the baseline engine.
pub fn run_cpu(setup: &Setup, params: &Params) -> AppRun {
    run_cpu_at(setup, params, SimTime::ZERO)
}

/// Run on the baseline engine, submitting at `at`.
pub fn run_cpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    let env = FlinkEnv::submit(&setup.cluster, "wordcount-cpu", at);
    let words = read_words(&env, params);
    let scale = words.scale();
    // Tokenize (string work) and emit (word, 1) pairs.
    let pairs = words.map("tokenize", cpu_tokenize_cost(), |w| (w.id, 1u64));
    // Vocabulary is size-independent: shuffle_scale 1 after combining.
    let counts = pairs.reduce_by_key("count", cpu_count_cost(), 12.0, 1.0, |a, b| a + b);
    let _ = scale;
    let got = counts.collect("counts", 12.0);
    counts.write_hdfs("save-counts", "/output/wordcount", 12.0);
    AppRun {
        mode: ExecMode::Cpu,
        report: env.finish(),
        digest: digest(&got),
        per_iteration: vec![env.frontier() - at],
    }
}

/// Run on GFlink.
pub fn run_gpu(setup: &Setup, params: &Params) -> AppRun {
    run_gpu_at(setup, params, SimTime::ZERO)
}

/// Run on GFlink, submitting at `at`.
pub fn run_gpu_at(setup: &Setup, params: &Params, at: SimTime) -> AppRun {
    register_kernels(&setup.fabric);
    let genv = GflinkEnv::submit(&setup.cluster, &setup.fabric, "wordcount-gpu", at);
    let words = read_words(&genv.flink, params);
    // Tokenization stays on the CPU (strings!), writing ids straight into
    // off-heap GStruct pages.
    let ids = words.map("tokenize", cpu_tokenize_cost(), |w| w.clone());
    let gids: GDataSet<WordId> = genv.to_gdst(ids, DataLayout::Aos);
    // One pass: no reuse, no caching.
    let spec = GpuMapSpec::new("cudaWordHistogram")
        .uncached()
        .with_out_mode(OutMode::PerBlock(VOCAB as usize))
        .with_out_scale(1.0)
        .build(&setup.fabric)
        .expect("wordcount spec");
    let partials: GDataSet<CountRec> = gids.gpu_map_partition("histogram", &spec);
    // Only tiny per-block partials enter the shuffle.
    let pairs = partials
        .inner()
        .map("unpack", OpCost::new(1.0, 8.0), |r| (r.id, r.count as u64));
    let counts = pairs.reduce_by_key("count", OpCost::new(1.0, 12.0), 12.0, 1.0, |a, b| a + b);
    let got = counts.collect("counts", 12.0);
    counts.write_hdfs("save-counts", "/output/wordcount", 12.0);
    AppRun {
        mode: ExecMode::Gpu,
        report: genv.finish(),
        digest: digest(&got),
        per_iteration: vec![genv.flink.frontier() - at],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digests_match;
    use crate::common::oracle::{aos_block, assert_same_launch, SIZES};
    use gflink_sim::Phase;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// The histogram kernel before field handles, per-element accessors:
    /// the reference the row walk must match byte for byte.
    fn oracle_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let def = WordId::def();
        let n = args.n_actual;
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let mut counts = vec![0u64; VOCAB as usize];
        for i in 0..n {
            let id = reader.get_u64(i, 0, 0) as usize;
            counts[id % VOCAB as usize] += 1;
        }
        let out_def = CountRec::def();
        let mut view = RecordView::new(args.outputs[0], out_def, DataLayout::Aos, VOCAB as usize);
        for (id, c) in counts.iter().enumerate() {
            CountRec {
                id: id as u32,
                count: (*c).min(u32::MAX as u64) as u32,
            }
            .store(&mut view, id);
        }
        KernelProfile::new(
            args.n_logical as f64 * 2.0,
            args.n_logical as f64 * 8.0 + VOCAB as f64 * 8.0,
        )
        .with_coalescing(0.5)
    }

    #[test]
    fn row_walk_kernel_matches_accessor_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x3C0D);
        for n in SIZES {
            // Any u32 id, so the kernel's modulo folds some onto others.
            let words: Vec<WordId> = (0..n).map(|_| WordId { id: rng.next_u32() }).collect();
            let out_bytes = VOCAB as usize * CountRec::def().size();
            let block = aos_block(&words);
            assert_same_launch(
                histogram_kernel,
                oracle_kernel,
                &[&block],
                &[],
                n,
                out_bytes,
            );
        }
    }

    fn small(setup: &Setup) -> Params {
        Params {
            bytes_logical: 100_000_000,
            words_actual: 4_000,
            parallelism: setup.default_parallelism(),
            seed: 11,
        }
    }

    #[test]
    fn cpu_and_gpu_agree() {
        let s1 = Setup::standard(2);
        let p = small(&s1);
        let cpu = run_cpu(&s1, &p);
        let s2 = Setup::standard(2);
        let gpu = run_gpu(&s2, &p);
        assert!(
            digests_match(cpu.digest, gpu.digest, 1e-9),
            "{} vs {}",
            cpu.digest,
            gpu.digest
        );
    }

    #[test]
    fn total_count_preserved() {
        let s = Setup::standard(1);
        let p = small(&s);
        let env = FlinkEnv::submit(&s.cluster, "wc", SimTime::ZERO);
        let words = read_words(&env, &p);
        let pairs = words.map("tok", cpu_tokenize_cost(), |w| (w.id, 1u64));
        let counts = pairs.reduce_by_key("count", cpu_count_cost(), 12.0, 1.0, |a, b| a + b);
        let got = counts.collect("c", 12.0);
        let total: u64 = got.iter().map(|(_, c)| c).sum();
        assert_eq!(total, p.words_actual as u64);
    }

    #[test]
    fn zipf_head_dominates() {
        let s = Setup::standard(1);
        let p = small(&s);
        let env = FlinkEnv::submit(&s.cluster, "wc", SimTime::ZERO);
        let words = read_words(&env, &p);
        let pairs = words.map("tok", cpu_tokenize_cost(), |w| (w.id, 1u64));
        let counts = pairs.reduce_by_key("count", cpu_count_cost(), 12.0, 1.0, |a, b| a + b);
        let got = counts.collect("c", 12.0);
        let head: u64 = got.iter().filter(|(id, _)| *id < 10).map(|(_, c)| c).sum();
        let total: u64 = got.iter().map(|(_, c)| c).sum();
        assert!(head as f64 > total as f64 * 0.1, "head {head} of {total}");
    }

    #[test]
    fn io_dominates_wordcount() {
        // §6.5's explanation for the ~1.1x speedup.
        let s = Setup::standard(2);
        let p = Params {
            bytes_logical: 24_000_000_000,
            words_actual: 8_000,
            parallelism: s.default_parallelism(),
            seed: 11,
        };
        let cpu = run_cpu(&s, &p);
        let io = cpu.report.acct.get(Phase::Io).as_secs_f64();
        let total = cpu.report.total.as_secs_f64();
        assert!(io > total * 0.1, "io {io} of {total}");
    }
}
