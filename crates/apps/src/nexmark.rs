//! Nexmark streaming workloads on the DataStream builder.
//!
//! Nexmark models an online auction: a single event stream interleaves
//! **persons** (who sell and bid), **auctions** (items for sale) and
//! **bids**, in the canonical 1 : 3 : 46 proportion per 50 events. Every
//! entity here is a pure function of `(seed, index)` — the same
//! index-addressable determinism as [`crate::generators`] — so any run is
//! a pure function of its [`NexmarkConfig`] and whatever `FaultPlan` the
//! fabric carries, and digests can be compared bit-for-bit across engines,
//! placement policies, tenancy mixes and crash/restore boundaries.
//!
//! Three queries are ported, one per pipeline shape the builder supports:
//!
//! * [`q3`] — join-filter (Nexmark Q3): filter auctions by category on the
//!   engine, join survivors against the person table in the driver, keep
//!   sellers from the three target states.
//! * [`q6`] — windowed average price per seller (Q6-shaped): the full
//!   event-time path — timestamps, bounded-out-of-orderness watermarks,
//!   keyed tumbling windows, avg aggregation — on either engine.
//! * [`q13`] — bounded side-input enrichment (Q13): every bid is joined
//!   against a static side table (GPU-cached extra input on the fabric).

use std::cell::Cell;
use std::sync::Arc;

use gflink_core::{
    AggSpec, GRecord, GpuFabric, GpuMapSpec, OutMode, StreamEnv, StreamError, StreamReport,
    StreamSource, Tumbling, WatermarkStrategy, WindowedRun,
};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{gstruct, DataLayout, GRow, HBuffer, RecordReader, RecordView};
use gflink_sim::SimTime;

/// Persons per 50-event group.
pub const PERSON_PROPORTION: u64 = 1;
/// Auctions per 50-event group.
pub const AUCTION_PROPORTION: u64 = 3;
/// Bids per 50-event group.
pub const BID_PROPORTION: u64 = 46;
/// Events per group.
pub const PROPORTION: u64 = PERSON_PROPORTION + AUCTION_PROPORTION + BID_PROPORTION;

/// US states a person can live in (q3 joins on three of them).
pub const NUM_STATES: u64 = 25;
/// The three states q3 keeps (Nexmark's OR, ID, CA).
pub const TARGET_STATES: [u64; 3] = [3, 11, 19];

/// Everything that parameterizes a Nexmark run. A run is a pure function
/// of this config (plus the fabric's fault/membership plans).
#[derive(Clone, Debug)]
pub struct NexmarkConfig {
    /// Generator seed.
    pub seed: u64,
    /// Offered event rate (persons + auctions + bids), events/second.
    pub events_per_sec: f64,
    /// How long the stream runs.
    pub duration: SimTime,
    /// Maximum event-time disorder injected by the generator.
    pub out_of_order: SimTime,
    /// Watermark bound (should be ≥ `out_of_order` for zero late drops).
    pub watermark_bound: SimTime,
    /// q6 tumbling window size.
    pub window: SimTime,
    /// Logical records per micro-batch (drives timing).
    pub batch_logical: u64,
    /// Materialized records per micro-batch (drive computation).
    pub batch_actual: usize,
    /// Number of auction categories.
    pub categories: u64,
    /// The category q3 filters for.
    pub target_category: u64,
    /// Rows in the q13 side table.
    pub side_rows: usize,
}

impl NexmarkConfig {
    /// A mid-size deterministic workload: 10 M events/s for 3 s, 25 ms of
    /// disorder under a 40 ms watermark bound, 250 ms windows.
    pub fn standard(seed: u64) -> NexmarkConfig {
        NexmarkConfig {
            seed,
            events_per_sec: 10e6,
            duration: SimTime::from_secs(3),
            out_of_order: SimTime::from_millis(25),
            watermark_bound: SimTime::from_millis(40),
            window: SimTime::from_millis(250),
            batch_logical: 500_000,
            batch_actual: 64,
            categories: 5,
            target_category: 2,
            side_rows: 500,
        }
    }

    fn bid_rate(&self) -> f64 {
        self.events_per_sec * BID_PROPORTION as f64 / PROPORTION as f64
    }

    fn auction_rate(&self) -> f64 {
        self.events_per_sec * AUCTION_PROPORTION as f64 / PROPORTION as f64
    }

    fn source_at(&self, rate: f64) -> StreamSource {
        StreamSource::at_rate(rate)
            .for_duration(self.duration)
            .with_batch(self.batch_logical, self.batch_actual)
    }

    /// The bid stream (q6, q13 input).
    pub fn bid_source(&self) -> StreamSource {
        self.source_at(self.bid_rate())
    }

    /// The auction stream (q3 input).
    pub fn auction_source(&self) -> StreamSource {
        self.source_at(self.auction_rate())
    }

    /// Event-time spacing between consecutive *materialized* records of a
    /// stream offered at `rate` logical records/second: the batch interval
    /// divided evenly across the batch's actual records.
    fn actual_period_ns(&self, rate: f64) -> u64 {
        let batch_secs = self.batch_logical as f64 / rate.max(1.0);
        (batch_secs * 1e9 / self.batch_actual.max(1) as f64) as u64
    }
}

/// SplitMix64 over (seed, stream tag, index) — index-addressable entropy.
fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state person `id` lives in.
pub fn person_state(seed: u64, person: u64) -> u64 {
    mix(seed, 0x5354, person) % NUM_STATES
}

/// The seller of auction `id` — drawn among the persons already emitted
/// when the auction appeared (1 person per 3 auctions).
pub fn auction_seller(seed: u64, auction: u64) -> u64 {
    let persons_so_far = auction / AUCTION_PROPORTION + 1;
    mix(seed, 0x534C, auction) % persons_so_far
}

/// The category of auction `id`.
pub fn auction_category(seed: u64, auction: u64, categories: u64) -> u64 {
    mix(seed, 0x4354, auction) % categories.max(1)
}

gstruct! {
    /// One auction record (q3 input). Numeric-only so it round-trips through
    /// a GStruct row exactly (all fields ≤ 2^53): the GPU row stores every
    /// field as a `double`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Auction: Align8 {
        /// Auction id.
        pub id: u64 as f64,
        /// Seller (person id).
        pub seller: u64 as f64,
        /// Item category.
        pub category: u64 as f64,
        /// Opening price.
        pub initial_bid: f64,
    }
}

/// The `i`-th auction of the stream.
pub fn auction(cfg: &NexmarkConfig, i: u64) -> Auction {
    Auction {
        id: i,
        seller: auction_seller(cfg.seed, i),
        category: auction_category(cfg.seed, i, cfg.categories),
        initial_bid: (100 + mix(cfg.seed, 0x4942, i) % 9_900) as f64 * 0.01,
    }
}

gstruct! {
    /// One bid (q6/q13 input); like [`Auction`], a row of `double`s.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Bid: Align8 {
        /// The auction being bid on — drawn among auctions already emitted.
        pub auction: u64 as f64,
        /// Bidding person.
        pub bidder: u64 as f64,
        /// Bid price.
        pub price: f64,
        /// Event timestamp in nanoseconds (base arrival minus bounded
        /// disorder).
        pub ts: u64 as f64,
    }
}

/// The `i`-th bid of the stream.
pub fn bid(cfg: &NexmarkConfig, i: u64) -> Bid {
    let group = i / BID_PROPORTION;
    let auctions_so_far = (group + 1) * AUCTION_PROPORTION;
    let persons_so_far = group + 1;
    let base = i * cfg.actual_period_ns(cfg.bid_rate());
    let jitter = mix(cfg.seed, 0x4A54, i) % cfg.out_of_order.as_nanos().max(1);
    Bid {
        auction: mix(cfg.seed, 0x4155, i) % auctions_so_far,
        bidder: mix(cfg.seed, 0x4244, i) % persons_so_far,
        price: (100 + mix(cfg.seed, 0x5052, i) % 99_900) as f64 * 0.01,
        ts: base.saturating_sub(jitter),
    }
}

gstruct! {
    /// A filtered q3 auction row coming back from the engine.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Q3Row: Align8 {
        id: u64 as f64,
        seller: u64 as f64,
        initial_bid: f64,
    }
}

gstruct! {
    /// An enriched q13 bid coming back from the engine.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Q13Row: Align8 {
        auction: u64 as f64,
        boosted: f64,
    }
}

const Q3_KERNEL: &str = "nexQ3Filter";
const Q13_KERNEL: &str = "nexQ13Enrich";

/// Register the Nexmark kernels (call before `StreamEnv::gpu` runs q3/q13).
pub fn register_kernels(fabric: &GpuFabric) {
    fabric.register_kernel(Q3_KERNEL, q3_filter_kernel);
    fabric.register_kernel(Q13_KERNEL, q13_enrich_kernel);
}

/// q3's filter: auctions of the target category, as (id, seller, initial)
/// rows packed from the front of the output.
fn q3_filter_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let target = args.params.first().copied().unwrap_or(0.0);
    let n = args.n_actual;
    let input = RecordReader::new(args.inputs[0], Auction::def(), DataLayout::Aos, n);
    let capacity = args.outputs[0].len() / Q3Row::SIZE;
    let mut out = RecordView::new(args.outputs[0], Q3Row::def(), DataLayout::Aos, capacity);
    let mut slots = out.rows_of_mut::<Q3Row>();
    let mut emitted = 0usize;
    for row in input.rows_of::<Auction>() {
        let a = Auction::load_row(row);
        // Ids are whole `double`s, so the `u64` round trip is exact.
        if a.category as f64 == target {
            let dst = slots
                .next()
                .expect("kernel emitted past its output capacity");
            Q3Row {
                id: a.id,
                seller: a.seller,
                initial_bid: a.initial_bid,
            }
            .store_row(dst);
            emitted += 1;
        }
    }
    KernelProfile::new(args.n_logical as f64 * 4.0, args.n_logical as f64 * 32.0)
        .with_emitted(emitted)
}

/// q13's enrichment: every bid's price scaled by its auction's side-table
/// factor.
fn q13_enrich_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let n = args.n_actual;
    let input = RecordReader::new(args.inputs[0], Bid::def(), DataLayout::Aos, n);
    let side = args.inputs[1];
    let side_rows = (side.len() / 8).max(1);
    let mut out = RecordView::new(args.outputs[0], Q13Row::def(), DataLayout::Aos, n);
    for (src, dst) in input.rows_of::<Bid>().zip(out.rows_of_mut::<Q13Row>()) {
        let b = Bid::load_row(src);
        let factor = side.read_f64((b.auction as usize % side_rows) * 8);
        Q13Row {
            auction: b.auction,
            boosted: b.price * factor,
        }
        .store_row(dst);
    }
    // One side-table gather per bid: irregular access, like SpMV's x.
    KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 48.0)
        .with_coalescing(0.6)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold(h: u64, v: u64) -> u64 {
    let mut h = h ^ v;
    h = h.wrapping_mul(FNV_PRIME);
    h
}

/// Outcome of a map-shaped query (q3, q13): the stream report plus a
/// value digest over the surviving rows, in merged batch order.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// Batch latency/loss report.
    pub report: StreamReport,
    /// FNV-1a over the output rows' value bits.
    pub digest: u64,
    /// Output rows counted into the digest.
    pub rows: u64,
}

/// The q13 side table: a deterministic boost factor per table row.
fn side_factor(cfg: &NexmarkConfig, row: usize) -> f64 {
    1.0 + (mix(cfg.seed, 0x5344, row as u64) % 100) as f64 * 0.01
}

/// Nexmark Q3 (join-filter): auctions of `target_category`, joined against
/// the person table, keeping sellers from the three [`TARGET_STATES`].
/// The category filter runs on the engine (GPU kernel or CPU operator);
/// the person join runs in the driver over the filtered survivors. The
/// digest is engine-invariant.
pub fn q3(env: &StreamEnv, cfg: &NexmarkConfig) -> Result<QueryRun, StreamError> {
    let gen_cfg = cfg.clone();
    let stream = env.source(cfg.auction_source(), move |i| auction(&gen_cfg, i));
    let digest = Cell::new(FNV_OFFSET);
    let rows = Cell::new(0u64);
    let join = |id: u64, seller: u64, initial_bid: f64| {
        if TARGET_STATES.contains(&person_state(cfg.seed, seller)) {
            let mut h = digest.get();
            h = fold(h, id);
            h = fold(h, seller);
            h = fold(h, person_state(cfg.seed, seller));
            h = fold(h, initial_bid.to_bits());
            digest.set(h);
            rows.set(rows.get() + 1);
        }
    };
    let report = if env.is_gpu() {
        let spec = GpuMapSpec::new(Q3_KERNEL)
            .uncached()
            .with_params(vec![cfg.target_category as f64])
            .with_out_mode(OutMode::Bounded { per_record: 1 });
        stream.map_kernel::<Q3Row>(spec).run_each(|_, recs| {
            for r in recs {
                join(r.id, r.seller, r.initial_bid);
            }
        })?
    } else {
        let target = cfg.target_category;
        stream
            .map_fn(gflink_flink::OpCost::new(4.0, 32.0), move |a| {
                if a.category == target {
                    join(a.id, a.seller, a.initial_bid);
                }
                *a
            })
            .run()?
    };
    Ok(QueryRun {
        report,
        digest: digest.get(),
        rows: rows.get(),
    })
}

/// Q6-shaped query: average bid price per seller over tumbling event-time
/// windows — the full DataStream path (timestamps → watermarks → key_by →
/// window → aggregate) on whichever engine `env` carries. `crash` (if
/// given) kills the driver mid-stream; with checkpointing attached via
/// [`StreamEnv::with_cluster`], a relaunch under the same name restores.
pub fn q6(env: &StreamEnv, cfg: &NexmarkConfig) -> Result<WindowedRun, StreamError> {
    q6_with(env, cfg, None)
}

/// [`q6`] with an optional driver crash at `crash`.
pub fn q6_with(
    env: &StreamEnv,
    cfg: &NexmarkConfig,
    crash: Option<SimTime>,
) -> Result<WindowedRun, StreamError> {
    let gen_cfg = cfg.clone();
    let seed = cfg.seed;
    let pipeline = env
        .source(cfg.bid_source(), move |i| bid(&gen_cfg, i))
        .timestamps(
            |b: &Bid| SimTime::from_nanos(b.ts),
            WatermarkStrategy::bounded(cfg.watermark_bound),
        )
        .key_by(move |b| auction_seller(seed, b.auction))
        .window(Tumbling::of(cfg.window))
        .aggregate(AggSpec::avg(), |b| b.price);
    match crash {
        Some(at) => pipeline.crash_at(at).run(),
        None => pipeline.run(),
    }
}

/// Nexmark Q13 (bounded side-input join): every bid is enriched with a
/// boost factor looked up in a static side table keyed by
/// `auction % side_rows`. On the GPU the table rides along as an extra
/// input — pass a `cache` token (from [`GpuFabric::new_cache_token`]) to
/// pin it on the devices after the first transfer, [`None`] to
/// re-transfer per batch. The digest is engine-invariant.
pub fn q13(
    env: &StreamEnv,
    cfg: &NexmarkConfig,
    cache: Option<u64>,
) -> Result<QueryRun, StreamError> {
    let gen_cfg = cfg.clone();
    let stream = env.source(cfg.bid_source(), move |i| bid(&gen_cfg, i));
    let digest = Cell::new(FNV_OFFSET);
    let rows = Cell::new(0u64);
    let absorb = |auction: u64, boosted: f64| {
        let mut h = digest.get();
        h = fold(h, auction);
        h = fold(h, boosted.to_bits());
        digest.set(h);
        rows.set(rows.get() + 1);
    };
    let report = if env.is_gpu() {
        let mut side = HBuffer::zeroed(cfg.side_rows.max(1) * 8);
        for r in 0..cfg.side_rows.max(1) {
            side.write_f64(r * 8, side_factor(cfg, r));
        }
        let side = Arc::new(side);
        let logical_bytes = cfg.side_rows.max(1) as u64 * 8;
        let spec = match cache {
            Some(token) => GpuMapSpec::new(Q13_KERNEL)
                .uncached()
                .with_cached_extra_input(side, logical_bytes, token),
            None => GpuMapSpec::new(Q13_KERNEL)
                .uncached()
                .with_extra_input(side, logical_bytes),
        };
        stream.map_kernel::<Q13Row>(spec).run_each(|_, recs| {
            for r in recs {
                absorb(r.auction, r.boosted);
            }
        })?
    } else {
        let side: Vec<f64> = (0..cfg.side_rows.max(1))
            .map(|r| side_factor(cfg, r))
            .collect();
        stream
            .map_fn(gflink_flink::OpCost::new(2.0, 48.0), move |b| {
                let factor = side[b.auction as usize % side.len()];
                absorb(b.auction, b.price * factor);
                Q13Row {
                    auction: b.auction,
                    boosted: b.price * factor,
                }
            })
            .run()?
    };
    Ok(QueryRun {
        report,
        digest: digest.get(),
        rows: rows.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::oracle::{aos_block, assert_same_launch, SIZES};
    use gflink_core::FabricConfig;
    use gflink_flink::ClusterConfig;
    use gflink_memory::{AlignClass, FieldKey, GStructDef, PrimType};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Write `vals` into the leading `f64` scalar fields of record `idx`.
    fn store_f64s<const N: usize>(view: &mut RecordView<'_>, idx: usize, vals: [f64; N]) {
        for (f, v) in vals.into_iter().enumerate() {
            view.set_field(idx, FieldKey::new(f), [v]);
        }
    }

    /// Read the leading `N` `f64` scalar fields of record `idx`.
    fn load_f64s<const N: usize>(reader: &RecordReader<'_>, idx: usize) -> [f64; N] {
        std::array::from_fn(|f| {
            let [v] = reader.get_field(idx, FieldKey::new(f));
            v
        })
    }

    /// The q3 kernel before field handles, a `get_field`/`set_field` per
    /// field and record: the reference the row walk must match byte for
    /// byte.
    fn q3_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let target = args.params.first().copied().unwrap_or(0.0);
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], Auction::def(), DataLayout::Aos, n);
        let out_buf = &mut args.outputs[0];
        let mut out = RecordView::new(out_buf, Q3Row::def(), DataLayout::Aos, n);
        let mut emitted = 0usize;
        for i in 0..n {
            let [id, seller, category, initial] = load_f64s(&input, i);
            if category == target {
                store_f64s(&mut out, emitted, [id, seller, initial]);
                emitted += 1;
            }
        }
        KernelProfile::new(args.n_logical as f64 * 4.0, args.n_logical as f64 * 32.0)
            .with_emitted(emitted)
    }

    /// The q13 kernel before field handles.
    fn q13_oracle(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], Bid::def(), DataLayout::Aos, n);
        let side = args.inputs[1];
        let side_rows = (side.len() / 8).max(1);
        let out_buf = &mut args.outputs[0];
        let mut out = RecordView::new(out_buf, Q13Row::def(), DataLayout::Aos, n);
        for i in 0..n {
            let [auction] = input.get_field(i, FieldKey::new(0));
            let [price] = input.get_field::<f64, 1>(i, FieldKey::new(2));
            let factor = side.read_f64((auction as usize % side_rows) * 8);
            store_f64s(&mut out, i, [auction, price * factor]);
        }
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 48.0)
            .with_coalescing(0.6)
    }

    #[test]
    fn row_walk_kernels_match_accessor_oracles() {
        let mut rng = SmallRng::seed_from_u64(0x4E58);
        for n in SIZES {
            let auctions: Vec<Auction> = (0..n)
                .map(|_| Auction {
                    id: rng.gen_range(0u64..1 << 40),
                    seller: rng.gen_range(0u64..1000),
                    category: rng.gen_range(0u64..4),
                    initial_bid: rng.gen_range(1.0..1000.0),
                })
                .collect();
            let (block, out_bytes) = (aos_block(&auctions), n * Q3Row::def().size());
            assert_same_launch(q3_filter_kernel, q3_oracle, &[&block], &[2.0], n, out_bytes);
            let bids: Vec<Bid> = (0..n)
                .map(|_| Bid {
                    auction: rng.gen_range(0u64..1 << 40),
                    bidder: rng.gen_range(0u64..1000),
                    price: rng.gen_range(1.0..1000.0),
                    ts: rng.gen_range(0u64..1 << 50),
                })
                .collect();
            let side: Vec<f64> = (0..13).map(|_| rng.gen_range(0.5..2.0)).collect();
            let (block, side) = (aos_block(&bids), HBuffer::from_f64s(&side));
            let out_bytes = n * Q13Row::def().size();
            assert_same_launch(
                q13_enrich_kernel,
                q13_oracle,
                &[&block, &side],
                &[],
                n,
                out_bytes,
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel emitted past its output capacity")]
    fn q3_filter_panics_past_its_output_capacity() {
        // Two matching auctions into an output sized for one row.
        let auctions: Vec<Auction> = (0..2)
            .map(|i| Auction {
                id: i,
                seller: 1,
                category: 2,
                initial_bid: 1.0,
            })
            .collect();
        let block = aos_block(&auctions);
        let mut out = HBuffer::zeroed(Q3Row::SIZE);
        q3_filter_kernel(&mut KernelArgs {
            inputs: &[&block],
            outputs: &mut [&mut out],
            params: &[2.0],
            n_actual: 2,
            n_logical: 2,
        });
    }

    fn small() -> NexmarkConfig {
        let mut cfg = NexmarkConfig::standard(7);
        cfg.duration = SimTime::from_secs(1);
        cfg
    }

    fn gpu_env(workers: usize) -> StreamEnv {
        let fabric = GpuFabric::new(workers, FabricConfig::default());
        register_kernels(&fabric);
        StreamEnv::gpu(&fabric)
    }

    #[test]
    fn generators_are_pure_and_causal() {
        let cfg = small();
        assert_eq!(bid(&cfg, 123), bid(&cfg, 123));
        assert_eq!(auction(&cfg, 55), auction(&cfg, 55));
        for i in 0..2_000u64 {
            let b = bid(&cfg, i);
            // A bid only references auctions and persons already emitted.
            assert!(b.auction < (i / BID_PROPORTION + 1) * AUCTION_PROPORTION);
            assert!(b.bidder < i / BID_PROPORTION + 1);
            let a = auction(&cfg, i);
            assert!(a.seller < i / AUCTION_PROPORTION + 1);
            assert!(a.category < cfg.categories);
        }
    }

    #[test]
    fn disorder_is_bounded_by_config() {
        let cfg = small();
        let period = cfg.actual_period_ns(cfg.bid_rate());
        for i in 0..2_000u64 {
            let b = bid(&cfg, i);
            let base = i * period;
            let ts = b.ts;
            assert!(ts <= base);
            assert!(base - ts < cfg.out_of_order.as_nanos());
        }
    }

    #[test]
    fn output_row_layouts_are_pinned() {
        for (def, n) in [(Q3Row::def(), 3), (Q13Row::def(), 2)] {
            let got: Vec<_> = (def.fields().iter().enumerate())
                .map(|(i, f)| (f.prim, f.array_len, def.offset(i)))
                .collect();
            let want: Vec<_> = (0..n).map(|i| (PrimType::F64, 1, 8 * i)).collect();
            assert_eq!(got, want, "{}", def.name());
            let shape = (def.align_class(), def.size(), def.align());
            assert_eq!(shape, (AlignClass::Align8, 8 * n, 8), "{}", def.name());
        }
    }

    #[test]
    fn output_rows_roundtrip_and_keys_name_their_fields() {
        let q3 = Q3Row {
            id: 1 << 52,
            seller: 9,
            initial_bid: 0.5,
        };
        let q13 = Q13Row {
            auction: 77,
            boosted: -3.25,
        };
        for layout in DataLayout::ALL {
            let (d3, d13) = (Q3Row::def(), Q13Row::def());
            let mut b3 = HBuffer::zeroed(RecordView::required_bytes(d3, layout, 1));
            let mut b13 = HBuffer::zeroed(RecordView::required_bytes(d13, layout, 1));
            q3.store(&mut RecordView::new(&mut b3, d3, layout, 1), 0);
            q13.store(&mut RecordView::new(&mut b13, d13, layout, 1), 0);
            assert_eq!(Q3Row::load(&RecordReader::new(&b3, d3, layout, 1), 0), q3);
            assert_eq!(
                Q13Row::load(&RecordReader::new(&b13, d13, layout, 1), 0),
                q13
            );
        }
        let names = |def: &GStructDef| {
            def.fields()
                .iter()
                .map(|f| f.name.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(Q3Row::def()), ["id", "seller", "initial_bid"]);
        let keys = [Q3Row::id, Q3Row::seller, Q3Row::initial_bid].map(|k| k.index());
        assert_eq!(keys, [0, 1, 2]);
        assert_eq!(names(Q13Row::def()), ["auction", "boosted"]);
        assert_eq!((Q13Row::auction.index(), Q13Row::boosted.index()), (0, 1));
    }

    #[test]
    fn records_roundtrip_through_gstruct_rows() {
        let cfg = small();
        let def = Bid::def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, DataLayout::Aos, 4));
        {
            let mut view = RecordView::new(&mut buf, def, DataLayout::Aos, 4);
            for i in 0..4 {
                bid(&cfg, i as u64).store(&mut view, i);
            }
        }
        let reader = RecordReader::new(&buf, def, DataLayout::Aos, 4);
        for i in 0..4 {
            assert_eq!(Bid::load(&reader, i), bid(&cfg, i as u64));
        }
    }

    #[test]
    fn q3_digest_is_engine_invariant() {
        let cfg = small();
        let cpu = q3(&StreamEnv::cpu(&ClusterConfig::standard(2)), &cfg).expect("cpu q3");
        let gpu = q3(&gpu_env(2), &cfg).expect("gpu q3");
        assert!(cpu.rows > 0, "q3 filter+join kept nothing");
        assert_eq!(cpu.rows, gpu.rows);
        assert_eq!(cpu.digest, gpu.digest);
        assert!(gpu.report.lost.is_empty());
    }

    #[test]
    fn q6_runs_end_to_end_on_both_engines() {
        let cfg = small();
        let cpu = q6(&StreamEnv::cpu(&ClusterConfig::standard(2)), &cfg).expect("cpu q6");
        let gpu = q6(&gpu_env(2), &cfg).expect("gpu q6");
        assert!(!cpu.windows.is_empty());
        assert_eq!(cpu.digest(), gpu.digest());
        assert_eq!(cpu.watermark_digest(), gpu.watermark_digest());
    }

    #[test]
    fn q13_digest_is_engine_invariant_cached_or_not() {
        let cfg = small();
        let cpu = q13(&StreamEnv::cpu(&ClusterConfig::standard(2)), &cfg, None).expect("cpu q13");
        let fabric = GpuFabric::new(2, FabricConfig::default());
        register_kernels(&fabric);
        let token = fabric.new_cache_token();
        let cached = q13(&StreamEnv::gpu(&fabric), &cfg, Some(token)).expect("gpu q13 cached");
        let plain = q13(&gpu_env(2), &cfg, None).expect("gpu q13 plain");
        assert_eq!(cpu.rows, cached.rows);
        assert_eq!(cpu.digest, cached.digest);
        assert_eq!(cpu.digest, plain.digest);
        assert!(cached.rows > 0);
    }
}
