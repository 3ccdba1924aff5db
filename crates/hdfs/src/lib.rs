#![warn(missing_docs)]

//! # gflink-hdfs
//!
//! A simulated Hadoop Distributed File System.
//!
//! Flink (and therefore GFlink) reads job input from and writes results to
//! HDFS; the paper's Eq. (1) carries an explicit `T_IO` term and §6.6.1
//! attributes the slow first/last iterations of SpMV and KMeans to HDFS
//! reads and writes. This crate provides the substrate: a namenode file
//! table, per-datanode disks modelled as [`gflink_sim::Timeline`]s, 64 MB
//! blocks with rack-unaware round-robin replica placement, and
//! locality-aware reads (a local replica costs a disk pass; a remote one
//! adds the network term).
//!
//! Files carry both a *logical* size (paper scale, used for timing) and
//! optional *actual* bytes (scale-reduced data the workloads really parse).

mod crc;
pub mod fs;

pub use crc::crc32;
pub use fs::{Hdfs, HdfsConfig, HdfsError, IoGrant, Piece, Pieces, SnapshotManifest};
