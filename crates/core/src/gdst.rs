//! The GFlink programming framework: GPU-based DataSets (§3.5).
//!
//! Users of GFlink (1) declare a GStruct-backed record type, (2) provide a
//! kernel, and (3) call GPU-based operators on a GPU-based DataSet. The
//! Rust analogues:
//!
//! 1. declare the record type once with [`gflink_memory::gstruct!`] — the
//!    paper's `extends GStruct_8` + `@StructField` — which emits the
//!    struct, its schema, its [`GRecord`] store/load and a typed field key
//!    per field for the kernel to address fields by;
//! 2. register a kernel closure in the fabric's registry under its
//!    `executeName`;
//! 3. wrap a `DataSet<T>` into a [`GDataSet<T>`] and call
//!    [`GDataSet::gpu_map_partition`] with a [`GpuMapSpec`].
//!
//! `gpu_map_partition` implements the block-processing model of §5.1: each
//! partition is split into blocks (a GStruct never straddles a block), the
//! owning task slot *produces* one [`GWork`](crate::gwork::GWork) per
//! block, and the worker's [`GpuManager`] consumes them — three-stage
//! pipelining, caching and locality-aware scheduling all apply. The
//! partition's ready time advances to its last block's completion. Each
//! worker's producer and drain form one step; the steps of an op run on a
//! thread per worker when at least two workers hold enough blocks to repay
//! one, and their results are folded back in worker order, so no output
//! depends on the thread schedule (`step`, DESIGN.md §14).
//!
//! Every GPU operator lowers its input the same way: a GDST block, a
//! stream micro-batch and a fired window each become a work through one
//! builder, `GpuMapSpec::work` (`lowering.rs`), and their output rows are
//! counted by one rule, [`OutMode::rows`]. The restore read and install
//! the GDST map and the windowed stream share live on the fabric
//! (`GpuFabric::read_restore`, `GpuFabric::install_restore`).
//!
//! A GDST's source of truth is its *resident blocks*: off-heap
//! [`HBuffer`]s in the GDST's layout, cut exactly where the producer cuts
//! them (§4.1 — the bytes handed to the device are already in the CUDA
//! struct layout). [`GflinkEnv::to_gdst`] encodes each record once; every
//! later GPU map submits the same blocks; a map's outputs stay encoded as
//! the result GDST's blocks; records are decoded only when a CPU operator
//! asks for them ([`GDataSet::inner`]).

use crate::checkpoint::{CheckpointManager, RestoredSnapshot, SnapshotBlock, SnapshotError};
use crate::config::CheckpointConfig;
use crate::jobsched::{AdmissionError, JobHandle};
pub(crate) use crate::lowering::EMITTED_FITS;
pub use crate::lowering::{ExtraInput, GpuMapSpec, OutMode, SpecError};
use crate::manager::{GpuManager, GpuWorkerConfig, CPU_FALLBACK_GPU};
use crate::observe::Observer;
use crate::session::JobId;
use gflink_flink::dataset::RawPart;
use gflink_flink::graph::{PhaseKind, PhaseRecord};
use gflink_flink::{DataSet, FlinkEnv, GpuLane, GpuWorkSample, JobReport, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile, KernelRegistry};
pub use gflink_memory::GRecord;
use gflink_memory::{DataLayout, GStructDef, HBuffer, RecordReader, RecordView};
use gflink_sim::{
    FaultLedger, MembershipPlan, Metrics, Phase, RecEvent, RecKind, SimTime, SloPolicy, Tracer,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

mod step;

/// Fabric-wide GPU configuration.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Per-worker GPU complement and policies.
    pub worker: GpuWorkerConfig,
    /// Logical bytes per GPU block (§5.1's block size; larger than Flink's
    /// 32 KiB page to amortize per-call overheads — see DESIGN.md).
    pub block_bytes: u64,
    /// Producer-side task time to assemble and submit one GWork.
    pub producer_overhead: SimTime,
    /// Checkpoint/restore policy: when enabled, each GPU operator
    /// periodically snapshots its completed blocks to HDFS and resumes
    /// from the last durable snapshot on a re-run (see DESIGN.md §13).
    pub checkpoint: CheckpointConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            worker: GpuWorkerConfig::default(),
            block_bytes: 4 * 1024 * 1024,
            producer_overhead: SimTime::from_micros(30),
            checkpoint: CheckpointConfig::default(),
        }
    }
}

/// The cluster's GPU fabric: one [`GpuManager`] per worker plus the shared
/// kernel registry. Shared (like [`SharedCluster`]) so concurrent jobs
/// contend for the same devices.
#[derive(Clone)]
pub struct GpuFabric {
    pub(crate) managers: Arc<Mutex<Vec<GpuManager>>>,
    pub(crate) registry: Arc<Mutex<KernelRegistry>>,
    /// Shared, immutable after construction: per-operator and per-manager
    /// paths clone the `Arc`, not the config.
    cfg: Arc<FabricConfig>,
    next_dataset: Arc<AtomicU64>,
    next_job: Arc<AtomicU64>,
    pub(crate) live_jobs: Arc<Mutex<BTreeSet<JobId>>>,
    tracer: Arc<Mutex<Tracer>>,
    pub(crate) ckpt: Arc<Mutex<CheckpointManager>>,
    pub(crate) metrics: Arc<Mutex<Metrics>>,
    pub(crate) observer: Arc<Mutex<Observer>>,
}

impl GpuFabric {
    /// Build the fabric for `num_workers` workers.
    pub fn new(num_workers: usize, cfg: FabricConfig) -> Self {
        let registry = Arc::new(Mutex::new(KernelRegistry::new()));
        // One shared worker config for every manager (the old path cloned
        // the whole config per worker).
        let worker_cfg = Arc::new(cfg.worker.clone());
        let managers = (0..num_workers)
            .map(|w| GpuManager::new(w, Arc::clone(&worker_cfg), Arc::clone(&registry)))
            .collect();
        let ckpt = Arc::new(Mutex::new(CheckpointManager::new(cfg.checkpoint.clone())));
        let cfg = Arc::new(cfg);
        GpuFabric {
            managers: Arc::new(Mutex::new(managers)),
            registry,
            cfg,
            next_dataset: Arc::new(AtomicU64::new(1)),
            next_job: Arc::new(AtomicU64::new(1)),
            live_jobs: Arc::new(Mutex::new(BTreeSet::new())),
            tracer: Arc::new(Mutex::new(Tracer::disabled())),
            ckpt,
            metrics: Arc::new(Mutex::new(Metrics::disabled())),
            observer: Arc::new(Mutex::new(Observer::default())),
        }
    }

    /// Turn on tracing for every worker manager and return the shared
    /// tracer. All subsequent spans, instants and counters across the gpu,
    /// core and flink layers land in one buffer; export it with
    /// [`Tracer::export_chrome_json`]. Call before submitting work — spans
    /// are recorded as works execute, not retroactively.
    pub fn enable_tracing(&self) -> Tracer {
        let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
        *self.tracer.lock() = tracer.clone();
        for m in self.managers.lock().iter_mut() {
            m.set_tracer(tracer.clone());
        }
        tracer
    }

    /// The fabric's tracer (disabled unless [`GpuFabric::enable_tracing`]
    /// was called).
    pub fn tracer(&self) -> Tracer {
        self.tracer.lock().clone()
    }

    /// Register a kernel under `name` (the analogue of deploying a `.ptx`).
    pub fn register_kernel<F>(&self, name: &str, f: F)
    where
        F: Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync + 'static,
    {
        self.registry.lock().register(name, f);
    }

    /// Register an **element-wise** kernel under `name`: output record `i`
    /// depends only on element `i` of every input. The declaration makes
    /// this kernel's blocks eligible for hybrid CPU/GPU splitting
    /// ([`gflink_gpu::KernelRegistry::register_elementwise`]).
    pub fn register_elementwise_kernel<F>(&self, name: &str, f: F)
    where
        F: Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync + 'static,
    {
        self.registry.lock().register_elementwise(name, f);
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Run `f` with the worker managers locked (reporting, tests).
    pub fn with_managers<R>(&self, f: impl FnOnce(&mut [GpuManager]) -> R) -> R {
        f(&mut self.managers.lock())
    }

    /// Run `f` with the fabric's checkpoint manager locked (reporting,
    /// tests, cadence inspection).
    pub fn with_checkpoints<R>(&self, f: impl FnOnce(&mut CheckpointManager) -> R) -> R {
        f(&mut self.ckpt.lock())
    }

    /// A device joins worker `worker`'s live complement at simulated
    /// instant `at` and returns its index: fresh stream bulk, fresh GWork
    /// queue, one new cache region per open job (partitioned per weights
    /// when cache partitioning is on). Subsequent drains rebalance Alg.
    /// 5.1/5.2 dispatch onto it. The ledger records `members_joined`.
    pub fn join_node(&self, worker: usize, at: SimTime) -> usize {
        self.managers.lock()[worker].join_device(at)
    }

    /// Device `gpu` of worker `worker` gracefully leaves the live fabric
    /// at `at`: cached blocks are invalidated, queued and in-flight works
    /// are evacuated onto the survivors, and the ledger records a
    /// membership change (`members_left`) — not a fault.
    pub fn leave_node(&self, worker: usize, gpu: usize, at: SimTime) {
        self.managers.lock()[worker].leave_device(gpu, at);
    }

    /// Script membership changes (joins/leaves) against worker `worker`,
    /// delivered inside its drain event loop deterministically interleaved
    /// with scripted faults.
    pub fn set_membership_plan(&self, worker: usize, plan: MembershipPlan) {
        self.managers.lock()[worker].set_membership_plan(plan);
    }

    fn fresh_dataset_id(&self) -> u64 {
        self.next_dataset.fetch_add(1, Ordering::Relaxed)
    }

    /// A fresh token for caching an extra input
    /// ([`GpuMapSpec::with_cached_extra_input`]).
    pub fn new_cache_token(&self) -> u64 {
        self.fresh_dataset_id()
    }

    /// The restore read of `job`'s next operator invocation under
    /// `job_name` (DESIGN.md §13): the invocation's sequence number (`None`
    /// when checkpointing is off or no `cluster` holds snapshots), the
    /// snapshot its chain folds to, and the chains refused — 1 when the
    /// chain is corrupt or broken, so the operator runs from zero instead
    /// of replaying bad bytes. The read starts at `at`.
    pub(crate) fn read_restore(
        &self,
        cluster: Option<&SharedCluster>,
        job: JobId,
        job_name: &str,
        at: SimTime,
    ) -> (Option<u64>, Option<RestoredSnapshot>, u64) {
        let Some(cluster) = cluster.filter(|_| self.ckpt.lock().enabled()) else {
            return (None, None, 0);
        };
        let seq = self.ckpt.lock().next_seq(job.0);
        let mut cl = cluster.lock();
        match self.ckpt.lock().read(&mut cl.hdfs, 0, job_name, seq, at) {
            Ok(rs) => (Some(seq), rs, 0),
            Err(_) => (Some(seq), None, 1),
        }
    }

    /// Install a restore the operator validated: on every worker, the
    /// blocks of `job` that `rs` covers are satisfied from it
    /// (`works_restored`) instead of executing, so only the delta since
    /// the snapshot replays.
    pub(crate) fn install_restore(&self, job: &JobHandle, rs: &RestoredSnapshot) {
        let tags = rs.snapshot.covered_tags();
        for m in self.managers.lock().iter_mut() {
            m.restore_job(job.id(), job.weight(), &tags);
        }
    }

    /// Release all job caches on every worker (job teardown).
    pub fn release_job_caches(&self) {
        for m in self.managers.lock().iter_mut() {
            m.release_job_caches();
        }
    }

    /// Open a job with the baseline fair-share weight of 1. See
    /// [`open_job_weighted`](Self::open_job_weighted).
    pub fn open_job(&self) -> Result<JobHandle, AdmissionError> {
        self.open_job_weighted(1)
    }

    /// Admit a new job onto the fabric: mint a fresh [`JobId`], open its
    /// per-worker sessions (§4.2.2: a cache region is created when a job
    /// starts), and return the RAII [`JobHandle`] that scopes submission,
    /// draining and teardown to that job. Admission control applies — when
    /// `SchedulerConfig::max_live_jobs` live jobs already run, the
    /// submission is rejected with [`AdmissionError::JobLimit`]. `weight`
    /// is the job's fair share under weighted-fair arbitration and cache
    /// partitioning (clamped to ≥ 1).
    pub fn open_job_weighted(&self, weight: u32) -> Result<JobHandle, AdmissionError> {
        let cap = self.cfg.worker.scheduler.max_live_jobs;
        let job = {
            let mut live = self.live_jobs.lock();
            if live.len() >= cap {
                return Err(AdmissionError::JobLimit {
                    live: live.len(),
                    cap,
                });
            }
            let job = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
            live.insert(job);
            job
        };
        let weight = weight.max(1);
        for m in self.managers.lock().iter_mut() {
            m.begin_job_weighted(job, weight);
        }
        Ok(JobHandle::new(self.clone(), job, weight))
    }

    /// Jobs currently live (admitted, not yet finished) on the fabric.
    pub fn live_jobs(&self) -> usize {
        self.live_jobs.lock().len()
    }

    /// Tear down `job`'s sessions on every worker, releasing exactly its
    /// cache regions, and free its admission slot. Called by
    /// [`JobHandle::finish`]/drop — never directly.
    pub(crate) fn close_job(&self, job: JobId) {
        for m in self.managers.lock().iter_mut() {
            m.end_job(job);
        }
        self.ckpt.lock().retire_job(job.0);
        self.live_jobs.lock().remove(&job);
    }
}

/// Driver handle for a GFlink job: the Flink environment plus GPU fabric.
#[derive(Clone)]
pub struct GflinkEnv {
    /// The underlying Flink environment (CPU operators remain available —
    /// GFlink is compatible with the original Flink API).
    pub flink: FlinkEnv,
    fabric: GpuFabric,
    handle: Arc<JobHandle>,
}

impl GflinkEnv {
    /// Submit a GFlink job at simulated instant `at`: admits the job on
    /// the fabric ([`GpuFabric::open_job`]), creating its cache regions on
    /// every worker. Panics if admission control rejects the job — use
    /// [`try_submit`](Self::try_submit) to handle rejection.
    pub fn submit(cluster: &SharedCluster, fabric: &GpuFabric, name: &str, at: SimTime) -> Self {
        Self::try_submit(cluster, fabric, name, at).expect("job admission refused")
    }

    /// Fallible [`submit`](Self::submit): admission control may refuse.
    pub fn try_submit(
        cluster: &SharedCluster,
        fabric: &GpuFabric,
        name: &str,
        at: SimTime,
    ) -> Result<Self, AdmissionError> {
        Self::try_submit_weighted(cluster, fabric, name, at, 1)
    }

    /// [`try_submit`](Self::try_submit) with a fair-share weight for
    /// weighted-fair arbitration and cache partitioning.
    pub fn try_submit_weighted(
        cluster: &SharedCluster,
        fabric: &GpuFabric,
        name: &str,
        at: SimTime,
        weight: u32,
    ) -> Result<Self, AdmissionError> {
        let handle = Arc::new(fabric.open_job_weighted(weight)?);
        Ok(GflinkEnv {
            flink: FlinkEnv::submit(cluster, name, at),
            fabric: fabric.clone(),
            handle,
        })
    }

    /// The GPU fabric.
    pub fn fabric(&self) -> &GpuFabric {
        &self.fabric
    }

    /// This job's identity on the GPU fabric.
    pub fn job_id(&self) -> JobId {
        self.handle.id()
    }

    /// Wrap a CPU dataset into a GPU-based DataSet with the given input
    /// layout: each partition is encoded once into its resident blocks,
    /// cut where [`GDataSet::gpu_map_partition`] cuts, and its records are
    /// dropped — the blocks are the GDST's only copy.
    pub fn to_gdst<T: GRecord>(&self, ds: DataSet<T>, layout: DataLayout) -> GDataSet<T> {
        let def = T::def();
        let block_bytes = self.fabric.cfg.block_bytes;
        let (flink, raw, scale) = ds.into_raw();
        let parts = raw
            .into_iter()
            .map(|part| Part {
                worker: part.worker,
                slot: part.slot,
                data: block_cut(part.data.len(), scale, def.size(), block_bytes)
                    .map(|rows| Block::encode(&part.data[rows], def, layout))
                    .collect(),
                ready: part.ready,
            })
            .collect();
        GDataSet {
            parts,
            scale,
            flink,
            decoded: OnceLock::new(),
            id: self.fabric.fresh_dataset_id(),
            layout,
            env: self.clone(),
        }
    }

    /// Finish the job: folds the teardown-time observability fields (the
    /// job's steal count, per-device activity lanes) into the rollup, tears
    /// down this job's sessions — releasing exactly its GPU cache regions
    /// (per §4.2.2 the cache region lives for the job) — and returns the
    /// report.
    pub fn finish(&self) -> JobReport {
        // Gather before end_job destroys the sessions. Lanes describe
        // device activity over the job's window; on a shared fabric that
        // window includes co-tenant works (which is what device
        // utilization means there).
        let window = self.flink.frontier();
        let job = self.handle.id();
        let trace_dropped = self.fabric.tracer().dropped();
        self.fabric.with_managers(|managers| {
            let mut steals = 0u64;
            let mut batches = 0u64;
            let mut batched_works = 0u64;
            let mut alpha_saved = SimTime::ZERO;
            let mut pinned = gflink_memory::PinnedStats::default();
            let mut parked_works = 0u64;
            let mut park_delay = SimTime::ZERO;
            let mut pen_hist = gflink_sim::LogHistogram::new();
            let mut hybrid_gpu = 0u64;
            let mut hybrid_cpu = 0u64;
            let mut hybrid_splits = 0u64;
            let mut hybrid_err = gflink_sim::LogHistogram::new();
            for m in managers.iter() {
                if let Some(s) = m.session(job) {
                    steals += s.steals();
                    batches += s.batches();
                    batched_works += s.batched_works();
                    alpha_saved += s.alpha_saved();
                    parked_works += s.parked_works();
                    park_delay += s.park_delay();
                    pen_hist.merge(s.pen_histogram());
                    hybrid_gpu += s.hybrid_gpu();
                    hybrid_cpu += s.hybrid_cpu();
                    hybrid_splits += s.hybrid_splits();
                    hybrid_err.merge(s.hybrid_err());
                }
                let p = m.job_pinned_stats(job);
                pinned.hits += p.hits;
                pinned.misses += p.misses;
                pinned.bytes += p.bytes;
            }
            let mut lanes = Vec::new();
            for m in managers.iter() {
                for g in 0..m.gpu_count() {
                    let gpu = m.gpu(g);
                    lanes.push(GpuLane {
                        worker: m.worker_id(),
                        gpu: g,
                        works: m.executed_per_gpu()[g],
                        kernel_busy: gpu.kernel_busy(),
                        copy_busy: gpu.copy_busy(),
                        utilization: gpu.kernel_utilization(window),
                    });
                }
            }
            self.flink.with_gpu_rollup(|r| {
                r.steals += steals;
                r.pinned_hits += pinned.hits;
                r.pinned_misses += pinned.misses;
                r.pinned_bytes += pinned.bytes;
                r.batches += batches;
                r.batched_works += batched_works;
                r.alpha_saved += alpha_saved;
                r.weight = self.handle.weight();
                r.parked_works += parked_works;
                r.park_delay += park_delay;
                r.pen.merge(&pen_hist);
                r.hybrid_gpu += hybrid_gpu;
                r.hybrid_cpu += hybrid_cpu;
                r.hybrid_splits += hybrid_splits;
                r.hybrid_err.merge(&hybrid_err);
                r.trace_dropped = trace_dropped;
                if r.lanes.is_empty() && !r.is_empty() {
                    r.lanes = lanes;
                }
            });
        });
        self.handle.finish();
        self.flink.finish()
    }
}

/// Costs of the CPU-side glue around a GPU keyed reduction
/// ([`GflinkEnv::gpu_reduce_by_key`]): receiving the shuffle into off-heap
/// pages, packing pair records, and the final boundary merge. All three are
/// tight raw-buffer loops, not per-object operator hops — which is the
/// point of the zero-copy design (§3.1).
#[derive(Clone, Copy, Debug)]
pub struct GpuReduceCosts {
    /// Per-record cost of the shuffle receive (raw byte append).
    pub receive: gflink_flink::OpCost,
    /// Per-record cost of packing pairs into GStruct blocks.
    pub pack: gflink_flink::OpCost,
    /// Per-record cost of the boundary merge after the kernel.
    pub merge: gflink_flink::OpCost,
    /// Wire bytes of one pair at paper scale.
    pub pair_logical_bytes: f64,
}

impl Default for GpuReduceCosts {
    fn default() -> Self {
        use gflink_flink::OpCost;
        GpuReduceCosts {
            receive: OpCost::new(2.0, 12.0).with_overhead_factor(0.1),
            pack: OpCost::new(1.0, 8.0).with_overhead_factor(0.2),
            merge: OpCost::new(2.0, 8.0).with_overhead_factor(0.2),
            pair_logical_bytes: 12.0,
        }
    }
}

impl GflinkEnv {
    /// The paper's **gpuReduce** (§3.5.2) as a first-class operator: a
    /// keyed reduction whose per-block aggregation runs on the GPU.
    ///
    /// Pipeline: hash-shuffle `pairs` by key (network volume identical to
    /// the CPU baseline) → pack the sorted buckets into GStruct blocks →
    /// run `kernel` (which must aggregate by key within its block and
    /// declare its output count via `KernelProfile::with_emitted`) → merge
    /// duplicate keys across block boundaries in one linear CPU pass.
    ///
    /// `pack` converts a pair to its GStruct record, `unpack` inverts it,
    /// and `fold` combines two values of one key (used only at block
    /// boundaries; the kernel does the bulk of the combining).
    #[allow(clippy::too_many_arguments)] // mirrors the operator's knobs
    pub fn gpu_reduce_by_key<K, V, R, P, U, F>(
        &self,
        name: &str,
        pairs: &DataSet<(K, V)>,
        kernel: &str,
        costs: GpuReduceCosts,
        pack: P,
        unpack: U,
        fold: F,
    ) -> DataSet<(K, V)>
    where
        K: Clone + Ord + std::hash::Hash + Send + 'static,
        V: Clone + Send + 'static,
        R: GRecord,
        P: Fn(&(K, V)) -> R,
        U: Fn(&R) -> (K, V),
        F: Fn(&V, &V) -> V,
    {
        let scale = pairs.scale();
        let shuffled = pairs.clone().partition_by_key(
            &format!("{name}/shuffle"),
            costs.pair_logical_bytes,
            scale,
            costs.receive,
        );
        let packed = shuffled.map(&format!("{name}/pack"), costs.pack, |kv| pack(kv));
        let gpairs: GDataSet<R> = self.to_gdst(packed, DataLayout::Aos);
        let spec = GpuMapSpec::new(kernel)
            .uncached()
            .with_out_mode(OutMode::Bounded { per_record: 1 })
            .with_out_scale(scale);
        let reduced: GDataSet<R> = gpairs.gpu_map_partition(&format!("{name}/gpu-reduce"), &spec);
        reduced.inner().map_partition(
            &format!("{name}/boundary-merge"),
            costs.merge,
            scale,
            |recs| {
                let mut sorted: Vec<(K, V)> = recs.iter().map(&unpack).collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                let mut out: Vec<(K, V)> = Vec::with_capacity(sorted.len());
                for (k, v) in sorted {
                    match out.last_mut() {
                        Some((lk, lv)) if *lk == k => *lv = fold(lv, &v),
                        _ => out.push((k, v)),
                    }
                }
                out
            },
        )
    }
}

/// The block cut of a partition of `n_act` records (§5.1): as many blocks
/// as its logical bytes fill at `block_bytes` each — at least one, at most
/// one per record — block `b` holding records
/// `n_act·b/n_blocks .. n_act·(b+1)/n_blocks`.
fn block_cut(
    n_act: usize,
    scale: f64,
    rec_size: usize,
    block_bytes: u64,
) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let logical_bytes = n_act as f64 * scale * rec_size as f64;
    let n_blocks = ((logical_bytes / block_bytes as f64).ceil() as usize).clamp(1, n_act.max(1));
    (0..n_blocks).map(move |b| n_act * b / n_blocks..n_act * (b + 1) / n_blocks)
}

/// One resident block: `rows` records at the front of `buf`, in the
/// owning GDST's layout. Shared, so a GWork input or a snapshot payload
/// is a pointer copy.
#[derive(Clone)]
struct Block {
    buf: Arc<HBuffer>,
    rows: usize,
}

impl Block {
    /// Encode `recs` under `layout` into a buffer of exactly the bytes
    /// they need.
    fn encode<T: GRecord>(recs: &[T], def: &GStructDef, layout: DataLayout) -> Block {
        let rows = recs.len();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, layout, rows));
        let mut view = RecordView::new(&mut buf, def, layout, rows);
        for (i, rec) in recs.iter().enumerate() {
            rec.store(&mut view, i);
        }
        Block {
            buf: Arc::new(buf),
            rows,
        }
    }
}

/// One partition of a GDST: its placement, ready time and blocks in block
/// order.
type Part = RawPart<Block>;

fn part_rows(part: &Part) -> usize {
    part.data.iter().map(|b| b.rows).sum()
}

/// A GPU-based DataSet (the paper's GDST). Its records live off-heap as
/// resident blocks (see the module docs); the `DataSet` view is decoded
/// from them once, on first demand.
pub struct GDataSet<T: GRecord> {
    parts: Vec<Part>,
    scale: f64,
    /// Environment of the decoded `DataSet`.
    flink: FlinkEnv,
    /// The blocks decoded into records, memoised for CPU operators.
    decoded: OnceLock<DataSet<T>>,
    id: u64,
    layout: DataLayout,
    env: GflinkEnv,
}

impl<T: GRecord> GDataSet<T> {
    /// The dataset as records, for CPU operators. Decodes the resident
    /// blocks on the first call; later calls return the same dataset.
    pub fn inner(&self) -> &DataSet<T> {
        self.decoded.get_or_init(|| self.decode())
    }

    /// Unwrap into the CPU dataset (decoding the blocks unless
    /// [`inner`](Self::inner) already did).
    pub fn into_inner(mut self) -> DataSet<T> {
        self.decoded.take().unwrap_or_else(|| self.decode())
    }

    fn decode(&self) -> DataSet<T> {
        let def = T::def();
        let parts = self
            .parts
            .iter()
            .map(|part| {
                let mut data = Vec::with_capacity(part_rows(part));
                for blk in &part.data {
                    let reader = RecordReader::new(&blk.buf, def, self.layout, blk.rows);
                    T::load_all(&reader, blk.rows, &mut data);
                }
                RawPart {
                    worker: part.worker,
                    slot: part.slot,
                    data,
                    ready: part.ready,
                }
            })
            .collect();
        DataSet::from_raw(self.flink.clone(), parts, self.scale)
    }

    /// The input data layout.
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// Barrier helper for iterative drivers: no partition may be consumed
    /// before `t` (e.g. after a broadcast of fresh state).
    pub fn set_min_ready(&mut self, t: SimTime) {
        for part in &mut self.parts {
            part.ready = part.ready.max(t);
        }
        if let Some(ds) = self.decoded.get_mut() {
            ds.set_min_ready(t);
        }
    }

    /// Whether every block `rs` holds is one this pass produces: a tag on
    /// the pass's partition/block cut, with the bytes of that block's
    /// output and an emitted count the output-row rule accepts. A job
    /// relaunched with another shape (parallelism, block or record size,
    /// output mode) cuts other blocks, so its predecessor's snapshot is
    /// refused and the pass runs from zero.
    fn on_this_cut(
        &self,
        rs: &RestoredSnapshot,
        out_mode: OutMode,
        out_def: &GStructDef,
    ) -> Result<(), SnapshotError> {
        let (rec_size, block_bytes) = (T::def().size(), self.env.fabric.cfg.block_bytes);
        let cuts: Vec<Vec<usize>> = self
            .parts
            .iter()
            .map(|part| {
                block_cut(part_rows(part), self.scale, rec_size, block_bytes)
                    .map(|rows| rows.len())
                    .collect()
            })
            .collect();
        for blk in &rs.snapshot.blocks {
            let rows = cuts
                .get(blk.tag.0 as usize)
                .and_then(|c| c.get(blk.tag.1 as usize));
            let out_bytes = |&rows| {
                RecordView::required_bytes(out_def, DataLayout::Aos, out_mode.out_rows(rows))
            };
            let capacity = blk.payload.len() / out_def.size().max(1);
            if rows.map(out_bytes) != Some(blk.payload.len())
                || out_mode.rows(blk.emitted, capacity).is_none()
            {
                return Err(SnapshotError::ShapeMismatch { tag: blk.tag });
            }
        }
        Ok(())
    }

    /// The GPU-based `mapPartition` (§3.5.2): run `spec.kernel` over every
    /// resident block on the worker's GPUs; the output blocks, still
    /// encoded, become the result GDST.
    ///
    /// Takes `&self` — like a Flink DST, a GDST may be consumed by many
    /// operators (iterative drivers call this every superstep on the same
    /// cached input).
    pub fn gpu_map_partition<U: GRecord>(&self, name: &str, spec: &GpuMapSpec) -> GDataSet<U> {
        let out_def = U::def();
        let flink = &self.env.flink;
        let cluster = flink.cluster();
        let job = self.env.handle.id();
        let fabric = &self.env.fabric;

        // Checkpoint/restore (DESIGN.md §13). Each operator invocation of
        // this job owns one snapshot chain, keyed by the *job name* and a
        // per-job invocation counter so a relaunched driver re-running the
        // same operator sequence finds its predecessor's snapshots. A
        // snapshot off this pass's cut is refused like a corrupt one; an
        // accepted one is installed: the producers still submit all
        // blocks, but covered ones are satisfied from the snapshot.
        let jname = flink.name();
        let (seq, read, mut refused) =
            fabric.read_restore(Some(&cluster), job, &jname, flink.frontier());
        let ckpt_on = seq.is_some();
        let restored = read.filter(|rs| {
            let fits = self.on_this_cut(rs, spec.out_mode, out_def).is_ok();
            refused += u64::from(!fits);
            fits
        });
        if let Some(rs) = &restored {
            fabric.install_restore(&self.env.handle, rs);
        }

        // Every worker's producer submits one GWork per block to its
        // GpuManager, which then drains (see `step`).
        let pass = step::Pass::<T, U> {
            parts: &self.parts,
            layout: self.layout,
            scale: self.scale,
            dataset: self.id,
            spec,
            op_name: name.into(),
            job,
            cluster: &cluster,
            fabric,
            sched: flink.schedule_phase(),
            records: PhantomData,
        };
        let (produced, drained) = pass.run();
        let (wall_start, elements) = (produced.wall_start, produced.elements);

        // Observability pre-capture. Lock order: the fabric's bookkeeping
        // locks (metrics, observer policy, live jobs, checkpoint cursors)
        // are copied out *before* the managers are held, matching the
        // admission path's live-jobs-then-managers order.
        let metrics = fabric.metrics.lock().clone();
        let (slo, snap_live, snap_ticks) = if metrics.enabled() {
            let slo = fabric.observer.lock().slo;
            let live: Vec<u64> = fabric.live_jobs.lock().iter().map(|j| j.0).collect();
            let ticks: BTreeMap<u64, SimTime> = {
                let ck = fabric.ckpt.lock();
                live.iter()
                    .filter_map(|&j| ck.last_tick(j).map(|t| (j, t)))
                    .collect()
            };
            (slo, live, ticks)
        } else {
            (SloPolicy::default(), Vec::new(), BTreeMap::new())
        };

        // Fold every worker's completions, in worker order. Every output
        // block, executed or restored, is kept as the snapshot block it is.
        let restored_blocks = restored.as_ref().map_or(0, |rs| rs.snapshot.blocks.len());
        let executed: usize = drained.iter().map(Vec::len).sum();
        let mut done_blocks: Vec<SnapshotBlock> = Vec::with_capacity(executed + restored_blocks);
        let mut kernel_sum = SimTime::ZERO;
        let mut h2d_sum = SimTime::ZERO;
        let mut d2h_sum = SimTime::ZERO;
        let mut wall_end = SimTime::ZERO;
        // Earliest permanent failure this op suffered: the simulated crash
        // instant bounding how late the checkpointer could still run.
        let mut crashed_at: Option<SimTime> = None;
        let mut slo_breaches = 0u64;
        let mut fault_delta = FaultLedger::default();
        fabric.with_managers(|managers| {
            for (m, completed) in managers.iter_mut().zip(drained) {
                // One observability sample per completed work, folded in
                // completion order under one rollup lock per drain: the
                // job report's stage histograms, cache hit rate and
                // per-channel byte counts aggregate these.
                flink.with_gpu_rollup(|rollup| {
                    for done in &completed {
                        rollup.record(&GpuWorkSample {
                            worker: m.worker_id(),
                            gpu: (done.gpu != CPU_FALLBACK_GPU).then_some(done.gpu),
                            queued: done.timing.queued(),
                            h2d: done.timing.h2d,
                            kernel: done.timing.kernel,
                            d2h: done.timing.d2h,
                            total: done.timing.total(),
                            cache_hits: done.timing.cache_hits,
                            cache_misses: done.timing.cache_misses,
                            bytes_h2d: done.timing.bytes_h2d,
                            bytes_d2h: done.timing.bytes_d2h,
                        });
                    }
                });
                for done in completed {
                    kernel_sum += done.timing.kernel;
                    h2d_sum += done.timing.h2d;
                    d2h_sum += done.timing.d2h;
                    wall_end = wall_end.max(done.timing.completed);
                    if metrics.enabled() && slo.breached(done.timing.total()) {
                        slo_breaches += 1;
                        let mut ev = RecEvent::new(
                            done.timing.completed,
                            RecKind::SloBreach,
                            m.worker_id() as u32,
                        )
                        .with_detail(done.timing.total().as_nanos());
                        if done.gpu != CPU_FALLBACK_GPU {
                            ev = ev.on_gpu(done.gpu);
                        }
                        m.record_job_event(job, ev);
                    }
                    done_blocks.push(SnapshotBlock {
                        tag: done.tag,
                        emitted: done.emitted,
                        completed_at: done.timing.completed,
                        payload: Arc::new(done.output),
                    });
                }
                // Failure accounting: this drain's fault/recovery delta for
                // THIS job (the session ledger window, not the cluster-wide
                // ledger) goes on the job report. Permanently failed works
                // (retry exhaustion) also count failure instants toward the
                // phase's wall clock so a faulted job's makespan stays
                // honest.
                let delta = m.take_job_fault_delta(job);
                fault_delta = fault_delta.merge(&delta);
                flink.record_faults(delta);
                for failed in m.take_job_failed(job) {
                    wall_end = wall_end.max(failed.failed_at);
                    crashed_at =
                        Some(crashed_at.map_or(failed.failed_at, |c| c.min(failed.failed_at)));
                }
            }
            // Flight-recorder postmortems: a non-quiet fault delta or an
            // SLO breach dumps the job's recent structured events plus a
            // health snapshot built over the managers already held (the
            // observer mutex is a leaf lock — it never takes another).
            if metrics.enabled() && (!fault_delta.is_quiet() || slo_breaches > 0) {
                let mut events: Vec<RecEvent> = Vec::new();
                for m in managers.iter() {
                    if let Some(s) = m.session(job) {
                        events.extend(s.flight_events());
                    }
                }
                events.sort_by_key(|e| (e.at, e.worker));
                let snap = crate::observe::build_cluster_snapshot(
                    wall_end,
                    &snap_live,
                    &snap_ticks,
                    ckpt_on,
                    managers,
                );
                let snap_json = snap.to_json();
                let mut obs = fabric.observer.lock();
                if !fault_delta.is_quiet() {
                    obs.dump(
                        job.0,
                        "fault-ledger",
                        wall_end,
                        fault_delta,
                        events.clone(),
                        snap_json.clone(),
                    );
                }
                if slo_breaches > 0 {
                    obs.dump(
                        job.0,
                        "slo-breach",
                        wall_end,
                        fault_delta,
                        events,
                        snap_json,
                    );
                }
            }
        });
        // Blocks covered by the restored snapshot re-enter the result set
        // here, ready when the restore read landed — they were never
        // (re)executed, which is the point.
        let mut restored_works = 0u64;
        if let Some(rs) = restored
            .as_ref()
            .filter(|rs| !rs.snapshot.blocks.is_empty())
        {
            restored_works = rs.snapshot.blocks.len() as u64;
            wall_end = wall_end.max(rs.ready_at);
            done_blocks.extend(rs.snapshot.blocks.iter().map(|blk| SnapshotBlock {
                completed_at: rs.ready_at,
                ..blk.clone()
            }));
        }
        // Periodic snapshots of this op's progress, on the job-global
        // cadence (`CheckpointManager::snapshot_ticks`).
        let (checkpoints, checkpoint_bytes) = if let Some(seq) = seq {
            // Tags are unique (below), so the unstable sort is exact.
            done_blocks.sort_unstable_by_key(|blk| (blk.completed_at, blk.tag));
            let cache = fabric.with_managers(|managers| {
                let mut c = Vec::new();
                for m in managers.iter() {
                    c.extend(m.cache_manifest(job));
                }
                c
            });
            let mut cl = cluster.lock();
            let mut ck = fabric.ckpt.lock();
            let ticks = ck.snapshot_ticks(job.0, wall_start, wall_end, crashed_at);
            ck.write_ticks(
                &mut cl.hdfs,
                &jname,
                (job.0, seq),
                &ticks,
                &done_blocks,
                &cache,
                |_| Some(Vec::new()),
            )
        } else {
            (0, 0)
        };
        if ckpt_on {
            flink.with_gpu_rollup(|r| {
                r.checkpoints += checkpoints;
                r.checkpoint_bytes += checkpoint_bytes;
                r.restores_refused += refused;
                if let Some(rs) = &restored {
                    r.restores += 1;
                    r.works_restored += restored_works;
                    r.recovery_delta.push(wall_end.saturating_sub(rs.ready_at));
                }
            });
        }
        // Checkpoint/restore on the metrics plane: lifetime counters plus
        // flight-recorder entries on every worker's ring (a restore or a
        // snapshot write is job-scoped, not device-scoped).
        if metrics.enabled() && ckpt_on {
            metrics
                .counter("gflink_checkpoints_total", "Durable job snapshots written")
                .add(checkpoints);
            metrics
                .counter(
                    "gflink_checkpoint_bytes_total",
                    "Bytes written to durable snapshots",
                )
                .add(checkpoint_bytes);
            if restored.is_some() {
                metrics
                    .counter(
                        "gflink_restores_total",
                        "Jobs restored from a durable snapshot",
                    )
                    .inc();
            }
            fabric.with_managers(|managers| {
                for m in managers.iter_mut() {
                    let w = m.worker_id() as u32;
                    if checkpoints > 0 {
                        m.record_job_event(
                            job,
                            RecEvent::new(wall_end, RecKind::CheckpointWritten, w)
                                .with_detail(checkpoints),
                        );
                    }
                    if let Some(rs) = &restored {
                        m.record_job_event(
                            job,
                            RecEvent::new(rs.ready_at, RecKind::SnapshotRestored, w)
                                .with_detail(restored_works),
                        );
                    }
                }
            });
        }
        // The output blocks, in block order, become the result's resident
        // blocks as they are: nothing is decoded here.
        // Every block has its own tag: a work's tag is its (partition,
        // block), and a restored block's tag is one no work ran under
        // (`submit_for` consumes it).
        let out_size = out_def.size().max(1);
        done_blocks.sort_unstable_by_key(|blk| blk.tag);
        debug_assert!(
            done_blocks.windows(2).all(|w| w[0].tag < w[1].tag),
            "one output block per tag"
        );
        let mut done_blocks = done_blocks.into_iter();
        let parts: Vec<Part> = (self.parts.iter().enumerate())
            .map(|(p, part)| {
                let mut ready = part.ready;
                let n = done_blocks
                    .as_slice()
                    .partition_point(|blk| blk.tag.0 == p as u32);
                let mut data = Vec::with_capacity(n);
                for blk in done_blocks.by_ref().take(n) {
                    ready = ready.max(blk.completed_at);
                    // Restored blocks passed this rule in `on_this_cut`.
                    let rows = spec
                        .out_mode
                        .rows(blk.emitted, blk.payload.len() / out_size);
                    data.push(Block {
                        rows: rows.expect(EMITTED_FITS),
                        buf: blk.payload,
                    });
                }
                Part {
                    worker: part.worker,
                    slot: part.slot,
                    data,
                    ready,
                }
            })
            .collect();

        // Accounting: the GPU map is the job's Map phase; kernel/transfer
        // components are tracked as Eq. (4) sub-phases.
        let wall = wall_end.saturating_sub(wall_start.min(wall_end));
        flink.charge(Phase::Map, wall);
        flink.charge(Phase::Kernel, kernel_sum);
        flink.charge(Phase::TransferH2D, h2d_sum);
        flink.charge(Phase::TransferD2H, d2h_sum);
        flink.bump_frontier(wall_end);
        flink.record_phase(PhaseRecord {
            name: format!("gpuMapPartition({name})"),
            kind: PhaseKind::Map,
            parallelism: self.parts.len(),
            wall,
            elements,
        });

        GDataSet {
            parts,
            scale: spec
                .out_scale
                .unwrap_or(spec.out_mode.inherited_scale(self.scale)),
            flink: flink.clone(),
            decoded: OnceLock::new(),
            id: fabric.fresh_dataset_id(),
            layout: DataLayout::Aos,
            env: self.env.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;

    use gflink_flink::ClusterConfig;
    use gflink_memory::gstruct;

    gstruct! {
        /// The paper's §3.5.1 example record.
        #[derive(Clone, Debug, PartialEq)]
        struct Point: Align8 {
            x: f32,
            y: f32,
        }
    }

    fn add_point_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        // The paper's addPoint: out.x = in.x + dx, out.y = in.y + dy.
        let def = Point::def();
        let n = args.n_actual;
        let (dx, dy) = (args.params[0], args.params[1]);
        let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let out = &mut args.outputs[0];
        let mut view = RecordView::new(out, def, DataLayout::Aos, n);
        for i in 0..n {
            view.set_f64(i, 0, 0, reader.get_f64(i, 0, 0) + dx);
            view.set_f64(i, 1, 0, reader.get_f64(i, 1, 0) + dy);
        }
        KernelProfile::new(
            args.n_logical as f64 * 2.0,
            args.n_logical as f64 * 2.0 * def.size() as f64,
        )
    }

    fn setup(workers: usize) -> (SharedCluster, GpuFabric) {
        let cluster = SharedCluster::new(ClusterConfig::standard(workers));
        let fabric = GpuFabric::new(workers, FabricConfig::default());
        fabric.register_kernel("cudaAddPoint", add_point_kernel);
        (cluster, fabric)
    }

    #[test]
    fn gpu_map_partition_computes_real_results() {
        let (cluster, fabric) = setup(2);
        let env = GflinkEnv::submit(&cluster, &fabric, "addpoint", SimTime::ZERO);
        let pts: Vec<Point> = (0..100)
            .map(|i| Point {
                x: i as f32,
                y: -(i as f32),
            })
            .collect();
        let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
        let gdst = env.to_gdst(ds, DataLayout::Aos);
        let spec = GpuMapSpec::new("cudaAddPoint").with_params(vec![1.0, 2.0]);
        let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
        let got = out.inner().collect("get", 8.0);
        assert_eq!(got.len(), 100);
        // Partition-ordered collection: verify value correctness setwise.
        let mut xs: Vec<i64> = got.iter().map(|p| p.x as i64).collect();
        xs.sort_unstable();
        assert_eq!(xs, (1..=100).collect::<Vec<i64>>());
        for p in &got {
            // out.x = i + 1, out.y = -i + 2 → both recover the same i.
            assert_eq!(p.x - 1.0, -(p.y - 2.0));
        }
        let report = env.finish();
        assert!(report.acct.get(Phase::Kernel) > SimTime::ZERO);
        assert!(report.acct.get(Phase::TransferH2D) > SimTime::ZERO);
        assert!(report.acct.get(Phase::TransferD2H) > SimTime::ZERO);
    }

    #[test]
    fn decode_equals_per_element_loads_under_every_layout() {
        let (cluster, fabric) = setup(2);
        let env = GflinkEnv::submit(&cluster, &fabric, "decode", SimTime::ZERO);
        let pts: Vec<Point> = (0..101)
            .map(|i| Point {
                x: i as f32 * 0.5,
                y: -(i as f32),
            })
            .collect();
        for layout in DataLayout::ALL {
            let ds = env.flink.parallelize("pts", pts.clone(), 4, 3.0e5);
            let g = env.to_gdst(ds, layout);
            assert!(g.parts.iter().any(|p| p.data.len() > 1), "several blocks");
            let mut want = Vec::new();
            for blk in g.parts.iter().flat_map(|p| &p.data) {
                let reader = RecordReader::new(&blk.buf, Point::def(), layout, blk.rows);
                want.extend((0..blk.rows).map(|i| Point::load(&reader, i)));
            }
            assert_eq!(want.len(), pts.len());
            assert_eq!(g.inner().collect("get", 8.0), want, "{layout:?}");
        }
    }

    #[test]
    fn device_loss_mid_job_reaches_the_job_report() {
        use gflink_sim::{FaultKind, FaultPlan};
        let (cluster, fabric) = setup(1);
        // Kill GPU 0 of the single worker shortly into the map phase; the
        // survivor (GPU 1) must absorb the job.
        fabric.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 }),
            );
        });
        let env = GflinkEnv::submit(&cluster, &fabric, "chaos", SimTime::ZERO);
        let pts: Vec<Point> = (0..100)
            .map(|i| Point {
                x: i as f32,
                y: -(i as f32),
            })
            .collect();
        let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
        let gdst = env.to_gdst(ds, DataLayout::Aos);
        let spec = GpuMapSpec::new("cudaAddPoint").with_params(vec![1.0, 2.0]);
        let out = gdst.gpu_map_partition::<Point>("addPoint", &spec);
        let got = out.inner().collect("get", 8.0);
        assert_eq!(got.len(), 100, "the loss must not drop records");
        for p in &got {
            assert_eq!(p.x - 1.0, -(p.y - 2.0));
        }
        fabric.with_managers(|ms| {
            assert!(ms[0].gpu(0).health().is_lost());
            assert!(ms[0].gpu(1).health().is_usable());
            // Checked before finish() tears the session down: nothing was
            // permanently abandoned.
            assert!(ms[0].session(env.job_id()).unwrap().failed().is_empty());
        });
        let report = env.finish();
        assert_eq!(report.faults.gpus_lost, 1);
        assert!(report.faults.faults_injected >= 1);
    }

    #[test]
    fn second_iteration_hits_gpu_cache() {
        let (cluster, fabric) = setup(1);
        let env = GflinkEnv::submit(&cluster, &fabric, "iter", SimTime::ZERO);
        let pts: Vec<Point> = (0..64)
            .map(|i| Point {
                x: i as f32,
                y: 0.0,
            })
            .collect();
        let ds = env.flink.parallelize("pts", pts, 2, 1.0e6);
        let gdst = env.to_gdst(ds, DataLayout::Aos);
        let spec = GpuMapSpec::new("cudaAddPoint").with_params(vec![0.0, 0.0]);
        let t0 = env.flink.frontier();
        let _o1 = gdst.gpu_map_partition::<Point>("it1", &spec);
        let t1 = env.flink.frontier();
        let _o2 = gdst.gpu_map_partition::<Point>("it2", &spec);
        let t2 = env.flink.frontier();
        let first = t1 - t0;
        let second = t2 - t1;
        assert!(
            second < first,
            "cached iteration ({second}) should beat cold ({first})"
        );
        // And the caches saw hits.
        let hits = fabric.with_managers(|ms| {
            ms.iter()
                .map(|m| (0..m.gpu_count()).map(|g| m.cache_stats(g).0).sum::<u64>())
                .sum::<u64>()
        });
        assert!(hits > 0);
    }

    #[test]
    fn disabled_cache_transfers_every_iteration() {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let mut cfg = FabricConfig::default();
        cfg.worker.cache_policy = CachePolicy::Disabled;
        let fabric = GpuFabric::new(1, cfg);
        fabric.register_kernel("cudaAddPoint", add_point_kernel);
        let env = GflinkEnv::submit(&cluster, &fabric, "nocache", SimTime::ZERO);
        let pts: Vec<Point> = (0..64)
            .map(|i| Point {
                x: i as f32,
                y: 0.0,
            })
            .collect();
        let ds = env.flink.parallelize("pts", pts, 2, 1.0e6);
        let gdst = env.to_gdst(ds, DataLayout::Aos);
        let spec = GpuMapSpec::new("cudaAddPoint").with_params(vec![0.0, 0.0]);
        let t0 = env.flink.frontier();
        let _o1 = gdst.gpu_map_partition::<Point>("it1", &spec);
        let t1 = env.flink.frontier();
        let _o2 = gdst.gpu_map_partition::<Point>("it2", &spec);
        let t2 = env.flink.frontier();
        // Without the cache, iteration 2 pays the H2D again: roughly equal.
        let first = (t1 - t0).as_secs_f64();
        let second = (t2 - t1).as_secs_f64();
        assert!(second > first * 0.7, "no-cache iterations stay expensive");
    }

    #[test]
    fn per_block_output_mode_aggregates() {
        let (cluster, fabric) = setup(1);
        // A kernel producing one summary Point per block.
        fabric.register_kernel("blocksum", |args: &mut KernelArgs<'_, '_>| {
            let def = Point::def();
            let n = args.n_actual;
            let reader = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
            let (mut sx, mut sy) = (0.0, 0.0);
            for i in 0..n {
                sx += reader.get_f64(i, 0, 0);
                sy += reader.get_f64(i, 1, 0);
            }
            let out = &mut args.outputs[0];
            let mut view = RecordView::new(out, def, DataLayout::Aos, 1);
            view.set_f64(0, 0, 0, sx);
            view.set_f64(0, 1, 0, sy);
            KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 8.0)
        });
        let env = GflinkEnv::submit(&cluster, &fabric, "agg", SimTime::ZERO);
        let pts: Vec<Point> = (0..10).map(|_| Point { x: 1.0, y: 2.0 }).collect();
        let ds = env.flink.parallelize("pts", pts, 2, 1.0);
        let gdst = env.to_gdst(ds, DataLayout::Aos);
        let spec = GpuMapSpec::new("blocksum")
            .with_out_mode(OutMode::PerBlock(1))
            .with_out_scale(1.0);
        let out = gdst.gpu_map_partition::<Point>("sum", &spec);
        let got = out.inner().collect("get", 8.0);
        // 2 partitions × 1 block each (tiny data) = 2 partials.
        assert_eq!(got.len(), 2);
        let total: f32 = got.iter().map(|p| p.x).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn soa_layout_roundtrips_through_gpu() {
        let (cluster, fabric) = setup(1);
        fabric.register_kernel("soaAdd", |args: &mut KernelArgs<'_, '_>| {
            let def = Point::def();
            let n = args.n_actual;
            let reader = RecordReader::new(args.inputs[0], def, DataLayout::Soa, n);
            let out = &mut args.outputs[0];
            let mut view = RecordView::new(out, def, DataLayout::Aos, n);
            for i in 0..n {
                view.set_f64(i, 0, 0, reader.get_f64(i, 0, 0) * 2.0);
                view.set_f64(i, 1, 0, reader.get_f64(i, 1, 0) * 2.0);
            }
            KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 16.0)
        });
        let env = GflinkEnv::submit(&cluster, &fabric, "soa", SimTime::ZERO);
        let pts: Vec<Point> = (0..16)
            .map(|i| Point {
                x: i as f32,
                y: 1.0,
            })
            .collect();
        let ds = env.flink.parallelize("pts", pts, 1, 1.0);
        let gdst = env.to_gdst(ds, DataLayout::Soa);
        let out = gdst.gpu_map_partition::<Point>("soaAdd", &GpuMapSpec::new("soaAdd"));
        let got = out.inner().collect("get", 8.0);
        assert_eq!(got[3].x, 6.0);
        assert_eq!(got[3].y, 2.0);
    }

    #[test]
    fn gdst_reusable_across_supersteps() {
        let (cluster, fabric) = setup(1);
        let env = GflinkEnv::submit(&cluster, &fabric, "loop", SimTime::ZERO);
        let pts: Vec<Point> = (0..8).map(|_| Point { x: 0.0, y: 0.0 }).collect();
        let ds = env.flink.parallelize("pts", pts, 1, 1.0);
        let mut gdst = env.to_gdst(ds, DataLayout::Aos);
        for it in 0..3 {
            let spec = GpuMapSpec::new("cudaAddPoint").with_params(vec![it as f64, 0.0]);
            let out = gdst.gpu_map_partition::<Point>("step", &spec);
            gdst.set_min_ready(env.flink.frontier());
            drop(out);
        }
        // Three supersteps on the same GDST, no panics, frontier advanced.
        assert!(env.flink.frontier() > SimTime::ZERO);
    }
}
