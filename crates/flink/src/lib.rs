#![warn(missing_docs)]

//! # gflink-flink
//!
//! The baseline engine: a working reimplementation of the parts of Apache
//! Flink that GFlink builds on — the `DataSet` API, a master/worker cluster
//! runtime with task slots, hash shuffles over a modelled network, HDFS
//! sources/sinks and driver-side iterations.
//!
//! Everything executes for real (transformations run user closures over
//! actual, scale-reduced data) while simulated time is charged to the
//! cluster's resource timelines: CPU task slots per worker, NIC directions
//! per worker, datanode disks. The paper's Eq. (1) phases (map, reduce,
//! shuffle, submit, IO, schedule) are recorded in an
//! [`gflink_sim::Accounting`] ledger per job.
//!
//! Faithfulness notes:
//! * Flink's **one-element-at-a-time iterator model** (§3.1) appears as a
//!   per-element dispatch overhead in [`cost::CpuSpec`]; GFlink's block
//!   processing model avoids it on the GPU path.
//! * Parallelism defaults to one task slot per CPU core per worker (§5.1).
//! * Shuffles are hash partitioned with map-side combining, matching
//!   Flink's `reduceGroup` on a grouped dataset.

pub mod cost;
pub mod dataset;
pub mod env;
pub mod gate;
pub mod graph;
pub mod observe;
pub mod rollup;
pub mod topology;

pub use cost::{CpuSpec, OpCost};
pub use dataset::{DataSet, KeyedOps};
pub use env::{FlinkEnv, JobReport};
pub use gate::JobGate;
pub use graph::{JobGraph, PhaseRecord};
pub use observe::{ClusterSnapshot, DeviceSnapshot, DeviceState, JobHealth, WorkerSnapshot};
pub use rollup::{GpuLane, GpuRollup, GpuWorkSample};
pub use topology::{Cluster, ClusterConfig, NetworkModel, SharedCluster, Worker};
