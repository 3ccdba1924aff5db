//! Worker-level configuration: GPU complement, scheduling, fault policy,
//! and the transfer-channel knobs (§4.1.2 pinned staging + small-GWork
//! batching).

use crate::cache::CachePolicy;
use crate::recovery::CpuFallback;
use crate::scheduling::ArbitrationPolicy;
use gflink_gpu::{GpuModel, TransferMode};
use gflink_sim::{RetryPolicy, SimTime};

/// Transfer-channel configuration: host-side staging mode and small-GWork
/// transfer batching.
///
/// The defaults reproduce the pre-optimization timeline byte-for-byte:
/// `Pinned` mode *is* the fitted Table 2 path (the paper measures
/// page-locked direct buffers, so registration is already inside the
/// fitted α), and batching is off.
#[derive(Clone, Debug)]
pub struct TransferConfig {
    /// Host-side staging behaviour. `Pageable` models the path GFlink's
    /// off-heap design avoids: an extra host memcpy per copy, synchronous.
    pub mode: TransferMode,
    /// Small-GWork transfer batching.
    pub batch: BatchConfig,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            mode: TransferMode::Pinned,
            batch: BatchConfig::default(),
        }
    }
}

/// Small-GWork transfer batching (CrystalGPU-style task batching): GWorks
/// bound for the same GPU that would otherwise *queue* are coalesced into
/// one fused H2D / kernel-sequence / fused D2H unit, paying a single
/// per-call α per direction for the whole group. A pending batch also
/// flushes once its summed input bytes reach 4 MiB (`BATCH_MAX_BYTES`).
///
/// Batches only form under backlog — a work that finds an idle stream runs
/// immediately, unbatched — so enabling this never adds latency to an idle
/// fabric, and a freed stream always flushes the pending batch rather than
/// waiting out the window.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Master switch; off by default (byte-identical legacy behaviour).
    pub enabled: bool,
    /// Flush when a pending batch reaches this many works.
    pub max_works: usize,
    /// Only works whose summed input logical bytes are at or below this
    /// cutoff are batched; bigger works already amortize α on their own.
    pub small_work_bytes: u64,
    /// Upper bound on how long a pending batch may accumulate before it is
    /// flushed to the queue regardless of fill.
    pub window: SimTime,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            enabled: false,
            max_works: 8,
            small_work_bytes: 256 << 10,
            window: SimTime::from_micros(50),
        }
    }
}

impl BatchConfig {
    /// Batching enabled with the default thresholds.
    pub fn enabled() -> Self {
        BatchConfig {
            enabled: true,
            ..BatchConfig::default()
        }
    }
}

/// Multi-job scheduler configuration: cross-job queue arbitration,
/// admission control, and cache-budget partitioning.
///
/// Follows the [`TransferConfig`] convention: the defaults reproduce the
/// single-tenant timeline byte-for-byte (FIFO arbitration, unbounded
/// admission, shared cache budget). Every knob is opt-in.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// How queued works of different jobs share one GPU's queue.
    pub arbitration: ArbitrationPolicy,
    /// Admission cap: `GpuFabric::open_job` rejects a submission that would
    /// push the number of live jobs past this. `usize::MAX` = unbounded.
    pub max_live_jobs: usize,
    /// Backpressure: once a job has this many bytes parked in the GPU
    /// queues, its further submissions are *parked* in a per-job pen and
    /// re-injected as the backlog drains (they are delayed, never dropped).
    /// `u64::MAX` = no backpressure.
    pub max_queued_bytes: u64,
    /// Partition each GPU's cache-region budget across live jobs in
    /// proportion to their weights, re-balancing (with eviction of any
    /// overflow) when a job opens or closes. Off = every job gets the full
    /// region budget, as before.
    pub partition_cache: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            arbitration: ArbitrationPolicy::Fifo,
            max_live_jobs: usize::MAX,
            max_queued_bytes: u64::MAX,
            partition_cache: false,
        }
    }
}

impl SchedulerConfig {
    /// Weighted-fair arbitration with the default 256 KiB quantum;
    /// admission and partitioning stay at their defaults.
    pub fn weighted_fair() -> Self {
        SchedulerConfig {
            arbitration: ArbitrationPolicy::WeightedFair {
                quantum_bytes: 256 << 10,
            },
            ..SchedulerConfig::default()
        }
    }
}

/// Checkpoint/restore configuration for the fabric's [`crate::checkpoint::CheckpointManager`].
///
/// Follows the [`TransferConfig`] convention: off by default, and when
/// off nothing is snapshotted, nothing is restored, and every timeline is
/// byte-identical to a fabric without the subsystem.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Master switch; off by default.
    pub enabled: bool,
    /// Simulated interval between periodic snapshots of a live job.
    pub interval: SimTime,
    /// HDFS path prefix under which snapshot files are written
    /// (`<prefix>/<job>/op<seq>`).
    pub prefix: String,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: false,
            interval: SimTime::from_millis(10),
            prefix: "ckpt".to_string(),
        }
    }
}

impl CheckpointConfig {
    /// Checkpointing enabled at the given interval, default prefix.
    pub fn every(interval: SimTime) -> Self {
        CheckpointConfig {
            enabled: true,
            interval,
            ..CheckpointConfig::default()
        }
    }
}

/// Knobs for the hybrid CPU+GPU cost-model placement policy
/// ([`crate::scheduling::SchedulingPolicy::HybridCostModel`]).
///
/// There is no master switch here: selecting the policy *is* the opt-in.
/// Under every other policy these knobs are inert, so default timelines
/// stay byte-for-byte identical. The estimators' EWMA factor, the host
/// route's margin and the split's error threshold are fixed in
/// `costmodel.rs`.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Adaptive sizing: never split a block into pieces smaller than this
    /// many elements (a block below `2 *` this is never split).
    pub min_split_elems: usize,
    /// Split only when the CPU/GPU predicted-time ratio is within this
    /// factor of parity in either direction — beyond it, one device is so
    /// dominant that splitting just adds launch overheads.
    pub split_balance: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            min_split_elems: 8_192,
            split_balance: 3.0,
        }
    }
}

/// Configuration of one worker's GPU complement.
#[derive(Clone, Debug)]
pub struct GpuWorkerConfig {
    /// GPU models installed in the worker (the paper's standard worker has
    /// two Tesla C2050s).
    pub models: Vec<GpuModel>,
    /// CUDA streams per GPU (the stream bulk size).
    pub streams_per_gpu: usize,
    /// GPU cache region capacity per GPU, logical bytes (§4.2.2: a
    /// user-defined parameter).
    pub cache_capacity: u64,
    /// Cache policy.
    pub cache_policy: CachePolicy,
    /// GWork scheduling policy.
    pub scheduling: crate::scheduling::SchedulingPolicy,
    /// Injected per-launch kernel failure probability (fault-tolerance
    /// testing; §1 motivates building on Flink precisely because it
    /// "uses replication and error detection to schedule around
    /// failures"). A failed launch is detected at kernel completion, its
    /// buffers are reclaimed, and the GWork is resubmitted — on a
    /// *different* GPU when the worker has more than one.
    pub failure_rate: f64,
    /// Retry policy for faulted, hung, or resource-starved works:
    /// exponential backoff, a retry budget and an optional deadline.
    pub retry: RetryPolicy,
    /// Watchdog timeout: a kernel flagged as hung is recovered this long
    /// after its launch. Must be finite for hang faults to be recoverable.
    pub hang_timeout: SimTime,
    /// The CPU execution path used once every GPU is lost.
    pub cpu_fallback: CpuFallback,
    /// Transfer-channel behaviour: staging mode and batching.
    pub transfer: TransferConfig,
    /// Multi-job scheduling: cross-job arbitration, admission control, and
    /// cache-budget partitioning.
    pub scheduler: SchedulerConfig,
    /// Hybrid cost-model placement knobs (inert unless `scheduling` is
    /// [`crate::scheduling::SchedulingPolicy::HybridCostModel`]).
    pub hybrid: HybridConfig,
}

impl Default for GpuWorkerConfig {
    fn default() -> Self {
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
            streams_per_gpu: 4,
            cache_capacity: 2_000_000_000, // 2 GB of the C2050's 3 GB
            cache_policy: CachePolicy::Fifo,
            scheduling: crate::scheduling::SchedulingPolicy::LocalityAware,
            failure_rate: 0.0,
            retry: RetryPolicy::default(),
            hang_timeout: SimTime::from_secs(10),
            cpu_fallback: CpuFallback::default(),
            transfer: TransferConfig::default(),
            scheduler: SchedulerConfig::default(),
            hybrid: HybridConfig::default(),
        }
    }
}
