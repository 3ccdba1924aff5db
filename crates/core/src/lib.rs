#![warn(missing_docs)]

//! # gflink-core
//!
//! GFlink itself: the in-memory computing architecture on heterogeneous
//! CPU–GPU clusters from the paper. This crate layers the GPU side onto the
//! baseline engine in `gflink-flink`:
//!
//! * [`GWork`] — the unit of GPU work the paper's programmers build in
//!   GPU-based mappers/reducers (§3.5.3): named kernel, input/output
//!   buffers, launch geometry, cache annotations.
//! * [`GpuManager`] — the per-worker GPUManager (§3.4): a slim coordinator
//!   over the [`gmemory::GMemoryManager`] (automatic device allocation +
//!   the GPU cache scheme of §4.2), the [`gstream::GStreamManager`] (§5:
//!   producer/consumer decoupling, stream bulks, per-GPU FIFO GWork
//!   queues, three-stage H2D/K/D2H pipelining, and the adaptive
//!   locality-aware scheduling of Algorithms 5.1/5.2), and the
//!   [`recovery::RecoveryManager`] (fault plans, retry/backoff, CPU
//!   fallback, ledgers) — with one [`JobSession`] of per-job state (cache
//!   regions, completions, failures, ledger deltas) per open [`JobId`].
//! * [`GflinkEnv`] / [`GDataSet`] — the programming framework (§3.5): a
//!   GPU-based DataSet built on [`GRecord`] (the GStruct binding), with
//!   `gpu_map_partition`-style operators that split partitions into blocks
//!   and drive them through the GPU fabric. A [`GpuMapSpec`] turns each
//!   block — or stream micro-batch, or fired window — into its `GWork`.
//! * [`commpath`] — the JVM→GPU communication-strategy comparison: GStruct
//!   zero-copy vs. the serialize/copy path of prior systems (§4.1).
//! * [`model`] — the analytical model of §6.3/6.4 (Eqs. 1–4).

pub mod cache;
pub mod checkpoint;
pub mod commpath;
pub mod config;
pub(crate) mod costmodel;
mod elastic;
mod exec;
mod flight;
pub mod fused;
pub mod gdst;
pub mod gmemory;
pub mod gstream;
pub mod gwork;
pub mod jobsched;
mod lowering;
pub mod manager;
pub mod model;
mod observe;
pub mod recovery;
pub mod scheduling;
pub mod session;
pub mod stream;

pub use cache::{CachePolicy, GpuCache};
pub use checkpoint::{
    segment_name, CacheManifestEntry, ChainAudit, CheckpointManager, CheckpointToken, JobSnapshot,
    OpenPane, RestoredSnapshot, SegmentLink, SnapshotBlock, SnapshotError, SnapshotSegment,
    StreamState,
};
pub use config::{BatchConfig, CheckpointConfig, HybridConfig, SchedulerConfig, TransferConfig};
pub use gdst::{
    ExtraInput, FabricConfig, GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, GpuReduceCosts,
    OutMode, SpecError,
};
pub use gwork::{CacheKey, CompletedWork, GWork, WorkBuf, WorkTiming};
pub use jobsched::{AdmissionError, JobBacklog, JobHandle};
pub use manager::{
    CpuFallback, FailReason, FailedWork, GpuManager, GpuWorkerConfig, ManagerError,
    CPU_FALLBACK_GPU,
};
pub use scheduling::{ArbitrationPolicy, SchedulingPolicy};
pub use session::{JobId, JobSession};
pub use stream::{
    output_digest, watermark_digest, AggOp, AggResult, AggSpec, CpuMapPipeline, DataStream,
    KeyedStream, LostBatch, MapPipeline, Session, Sliding, StreamEnv, StreamError, StreamReport,
    StreamSource, Tumbling, WatermarkStamp, WatermarkStrategy, WindowAssigner, WindowOutput,
    WindowPipeline, WindowSpan, WindowedRun, WindowedStream,
};
