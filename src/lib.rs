#![warn(missing_docs)]

//! # GFlink
//!
//! A simulation-backed reproduction of *"GFlink: An In-Memory Computing
//! Architecture on Heterogeneous CPU-GPU Clusters for Big Data"* (Chen, Li,
//! Ouyang, Zeng, Li — ICPP'16 / IEEE TPDS'18).
//!
//! This facade re-exports the whole workspace:
//!
//! * [`sim`] — deterministic timeline/event simulation kernel;
//! * [`memory`] — off-heap buffers, GStruct layouts (AoS/SoA/AoP);
//! * [`gpu`] — the virtual GPU substrate (device catalogue, device memory,
//!   PCIe model, kernel registry);
//! * [`hdfs`] — simulated HDFS;
//! * [`flink`] — the baseline CPU dataflow engine (DataSet API, cluster
//!   runtime, shuffles);
//! * [`core`] — GFlink itself: GPUManager, GMemoryManager + GPU cache,
//!   GStreamManager (three-stage pipelining, Algorithms 5.1/5.2), the GDST
//!   programming framework;
//! * [`apps`] — the six paper workloads plus the PointAdd microkernel.
//!
//! ## Quickstart
//!
//! ```
//! use gflink::apps::{kmeans, Setup};
//!
//! // A 2-worker cluster, each worker with 4 CPU slots and 2 Tesla C2050s.
//! let setup = Setup::standard(2);
//! let params = kmeans::Params {
//!     n_logical: 10_000_000, // paper-scale element count (drives timing)
//!     n_actual: 2_000,       // materialized elements (drive computation)
//!     iterations: 3,
//!     parallelism: setup.default_parallelism(),
//!     seed: 42,
//! };
//! let run = gflink::apps::kmeans::run_gpu(&setup, &params);
//! println!("GFlink KMeans took {} (simulated)", run.report.total);
//! assert!(run.report.total.as_secs_f64() > 0.0);
//! ```

pub use gflink_apps as apps;
pub use gflink_core as core;
pub use gflink_flink as flink;
pub use gflink_gpu as gpu;
pub use gflink_hdfs as hdfs;
pub use gflink_memory as memory;
pub use gflink_sim as sim;

/// Everything a typical GFlink program needs, in one import.
///
/// Pulls in the application harness ([`apps`]), the GDST programming
/// surface and fabric configuration ([`core`]), the cluster/driver types
/// ([`flink`]), the virtual GPU substrate ([`gpu`]), GStruct layouts
/// ([`memory`]) and the simulation primitives ([`sim`]):
///
/// ```
/// use gflink::prelude::*;
///
/// let setup = Setup::standard(2);
/// let run = kmeans::run_gpu(&setup, &kmeans::Params::paper(4, &setup));
/// assert!(run.report.total > SimTime::ZERO);
/// ```
pub mod prelude {
    pub use crate::apps::{
        common::digests_match, concomp, kmeans, linreg, pagerank, pointadd, run_concurrent, spmv,
        wordcount, AppRun, ConcurrentJob, ExecMode, Setup,
    };
    pub use crate::core::{
        output_digest, watermark_digest, AdmissionError, AggOp, AggResult, AggSpec,
        ArbitrationPolicy, BatchConfig, CachePolicy, CheckpointConfig, CheckpointManager,
        FabricConfig, GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec, GpuWorkerConfig,
        JobBacklog, JobHandle, JobId, JobSnapshot, SchedulerConfig, SchedulingPolicy, Session,
        Sliding, SpecError, StreamEnv, StreamError, StreamReport, StreamSource, TransferConfig,
        Tumbling, WatermarkStrategy, WindowAssigner, WindowOutput, WindowedRun, CPU_FALLBACK_GPU,
    };
    pub use crate::flink::{
        ClusterConfig, ClusterSnapshot, FlinkEnv, JobGate, JobReport, OpCost, SharedCluster,
    };
    pub use crate::gpu::{GpuModel, KernelArgs, KernelProfile};
    pub use crate::memory::{
        gstruct, AlignClass, DataLayout, FieldDef, FieldKey, GStructDef, PrimType, RecordReader,
        RecordView,
    };
    pub use crate::sim::trace::PipelineProfile;
    pub use crate::sim::{
        FaultKind, FaultPlan, MembershipKind, MembershipPlan, Metrics, Phase, SimTime, SloPolicy,
    };
}
