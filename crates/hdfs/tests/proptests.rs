//! Property tests for the simulated HDFS: physical lower bounds, byte
//! conservation, locality accounting and failover safety.

use gflink_hdfs::{Hdfs, HdfsConfig};
use gflink_sim::SimTime;
use proptest::prelude::*;

fn cfg() -> HdfsConfig {
    HdfsConfig {
        block_size: 8 * 1024 * 1024,
        ..HdfsConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A read can never beat the disk's bandwidth, and its local + remote
    /// byte split always sums to the requested length.
    #[test]
    fn read_respects_physics_and_conserves_bytes(
        file_mb in 1u64..64,
        frac_lo in 0.0f64..0.9,
        frac_len in 0.01f64..0.5,
        node in 0usize..6,
        nodes in 1usize..7,
    ) {
        let node = node % nodes;
        let mut fs = Hdfs::new(nodes, cfg());
        let size = file_mb * 1024 * 1024;
        fs.create("f", size, vec![]).unwrap();
        let lo = (size as f64 * frac_lo) as u64;
        let len = ((size as f64 * frac_len) as u64).min(size - lo).max(1);
        let g = fs.read(node, "f", lo, len, SimTime::ZERO).unwrap();
        prop_assert_eq!(g.local_bytes + g.remote_bytes, len);
        let min_time = len as f64 / fs.config().disk_read_bps;
        prop_assert!(
            g.duration().as_secs_f64() >= min_time * 0.999,
            "read faster than the disk: {} < {min_time}",
            g.duration().as_secs_f64()
        );
        // Remote bytes additionally pay the network.
        if g.remote_bytes == len && g.local_bytes == 0 {
            let with_net = len as f64 / fs.config().disk_read_bps
                + len as f64 / fs.config().net_bps;
            prop_assert!(g.duration().as_secs_f64() >= with_net * 0.999);
        }
    }

    /// Reads on a single-node cluster are always fully local; with
    /// replication >= nodes, reads are local from every node.
    #[test]
    fn full_replication_means_always_local(
        file_mb in 1u64..32,
        nodes in 1usize..4, // replication is 3: <=3 nodes => full replication
    ) {
        let mut fs = Hdfs::new(nodes, cfg());
        let size = file_mb * 1024 * 1024;
        fs.create("f", size, vec![]).unwrap();
        for node in 0..nodes {
            let g = fs.read(node, "f", 0, size, SimTime::ZERO).unwrap();
            prop_assert_eq!(g.remote_bytes, 0, "node {} read remotely", node);
        }
    }

    /// Sequential reads of disjoint ranges are deterministic and replay
    /// bit-identically.
    #[test]
    fn reads_replay_identically(
        ranges in prop::collection::vec((0.0f64..0.9, 0.01f64..0.2, 0usize..5), 1..12),
        nodes in 1usize..6,
    ) {
        let run = || {
            let mut fs = Hdfs::new(nodes, cfg());
            let size: u64 = 48 * 1024 * 1024;
            fs.create("f", size, vec![]).unwrap();
            let mut ends = Vec::new();
            for &(flo, flen, n) in &ranges {
                let lo = (size as f64 * flo) as u64;
                let len = ((size as f64 * flen) as u64).min(size - lo).max(1);
                let g = fs.read(n % nodes, "f", lo, len, SimTime::ZERO).unwrap();
                ends.push(g.end);
            }
            ends
        };
        prop_assert_eq!(run(), run());
    }

    /// Failing any strict subset of replicas never loses data; reads keep
    /// succeeding with the same byte totals.
    #[test]
    fn partial_failures_never_lose_data(
        file_mb in 1u64..32,
        kill in 0usize..2, // kill at most 2 of 3 replicas
    ) {
        let mut fs = Hdfs::new(6, cfg());
        let size = file_mb * 1024 * 1024;
        fs.create("f", size, vec![]).unwrap();
        // Kill `kill + 1` arbitrary nodes (at most 2 < replication 3).
        for n in 0..=kill {
            fs.fail_node(n).unwrap();
        }
        let g = fs.read(5, "f", 0, size, SimTime::ZERO).unwrap();
        prop_assert_eq!(g.local_bytes + g.remote_bytes, size);
    }

    /// Writes always land `replication` copies' worth of disk traffic.
    #[test]
    fn write_replication_accounting(file_mb in 1u64..32, nodes in 3usize..8) {
        let mut fs = Hdfs::new(nodes, cfg());
        let size = file_mb * 1024 * 1024;
        let g = fs.write(0, "out", size, vec![], SimTime::ZERO).unwrap();
        // One replica may be local per block; at least (r-1)/r of the bytes
        // cross the network.
        prop_assert_eq!(g.local_bytes + g.remote_bytes, size * 3);
        prop_assert!(g.remote_bytes >= size * 2 / 3);
        let min_time = size as f64 / fs.config().disk_write_bps;
        prop_assert!(g.duration().as_secs_f64() >= min_time * 0.999);
    }
}
