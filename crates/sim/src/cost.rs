//! Cost-model primitives.
//!
//! Every hardware model in the reproduction (PCIe links, NICs, disks, GPU
//! engines, CPU cores) reduces to one of two shapes:
//!
//! * [`BandwidthCost`] / [`LatencyBandwidth`] — a fixed per-operation
//!   overhead plus a per-byte term. This is the classic `T = α + β·n` model
//!   used by the paper to discuss PCIe behaviour (Table 2 shows exactly the
//!   α-dominated regime for small transfers).
//! * [`ComputeCost`] — a roofline-style term: time is the maximum of a
//!   flop-bound and a memory-bound component plus a launch overhead.

use crate::time::SimTime;

/// `T(n) = overhead + n / bytes_per_sec` — a latency + bandwidth channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthCost {
    /// Fixed per-operation overhead.
    pub overhead: SimTime,
    /// Sustained throughput in bytes per second.
    pub bytes_per_sec: f64,
}

impl BandwidthCost {
    /// Construct with throughput in bytes/second.
    pub fn new(overhead: SimTime, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "bandwidth must be positive and finite"
        );
        BandwidthCost {
            overhead,
            bytes_per_sec,
        }
    }

    /// Construct with throughput in GB/s (decimal gigabytes, as vendor
    /// datasheets and the paper's Table 2 use).
    pub fn gb_per_sec(overhead: SimTime, gbps: f64) -> Self {
        Self::new(overhead, gbps * 1e9)
    }

    /// Time to move `bytes` through the channel.
    pub fn time_for(&self, bytes: u64) -> SimTime {
        self.overhead + SimTime::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Effective bandwidth (bytes/s) achieved for a transfer of `bytes`,
    /// including the fixed overhead — the quantity Table 2 reports.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        let t = self.time_for(bytes).as_secs_f64();
        if t == 0.0 {
            return self.bytes_per_sec;
        }
        bytes as f64 / t
    }
}

/// Alias emphasising the α+βn reading at call sites that model networks.
pub type LatencyBandwidth = BandwidthCost;

/// Roofline compute cost: `T = launch + max(flops/F, bytes/B)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeCost {
    /// Fixed launch/dispatch overhead per invocation.
    pub launch_overhead: SimTime,
    /// Sustained arithmetic throughput, FLOP/s.
    pub flops_per_sec: f64,
    /// Sustained memory throughput, bytes/s.
    pub mem_bytes_per_sec: f64,
}

impl ComputeCost {
    /// Construct a roofline cost model.
    pub fn new(launch_overhead: SimTime, flops_per_sec: f64, mem_bytes_per_sec: f64) -> Self {
        assert!(flops_per_sec > 0.0 && flops_per_sec.is_finite());
        assert!(mem_bytes_per_sec > 0.0 && mem_bytes_per_sec.is_finite());
        ComputeCost {
            launch_overhead,
            flops_per_sec,
            mem_bytes_per_sec,
        }
    }

    /// Time to execute a region doing `flops` arithmetic over `bytes` of
    /// memory traffic. `efficiency` in `(0, 1]` scales both throughputs
    /// (e.g. uncoalesced access lowers the memory roof).
    pub fn time_for(&self, flops: f64, bytes: f64, efficiency: f64) -> SimTime {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        let t_flops = flops / (self.flops_per_sec * efficiency);
        let t_mem = bytes / (self.mem_bytes_per_sec * efficiency);
        self.launch_overhead + SimTime::from_secs_f64(t_flops.max(t_mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_linear_in_bytes() {
        let c = BandwidthCost::gb_per_sec(SimTime::from_micros(2), 1.0); // 1 GB/s
        let t1 = c.time_for(1_000_000); // 1 MB -> 1 ms + 2 us
        assert_eq!(t1, SimTime::from_micros(1002));
        let t0 = c.time_for(0);
        assert_eq!(t0, SimTime::from_micros(2));
    }

    #[test]
    fn effective_bandwidth_is_overhead_dominated_for_small_sizes() {
        // Mirrors the paper's Table 2 regime: small transfers see a fraction
        // of link bandwidth; large transfers approach it.
        let c = BandwidthCost::gb_per_sec(SimTime::from_micros(2), 3.0);
        let small = c.effective_bandwidth(2048);
        let large = c.effective_bandwidth(1 << 20);
        assert!(small < 1.0e9, "small transfer should be far below the link");
        assert!(large > 2.5e9, "large transfer should approach the link");
        assert!(large > small);
    }

    #[test]
    fn roofline_picks_binding_resource() {
        let c = ComputeCost::new(SimTime::ZERO, 1e9, 1e9); // 1 GFLOP/s, 1 GB/s
                                                           // Compute-bound: many flops, few bytes.
        let t = c.time_for(2e9, 1e6, 1.0);
        assert_eq!(t, SimTime::from_secs(2));
        // Memory-bound: few flops, many bytes.
        let t = c.time_for(1e6, 3e9, 1.0);
        assert_eq!(t, SimTime::from_secs(3));
    }

    #[test]
    fn efficiency_scales_time() {
        let c = ComputeCost::new(SimTime::ZERO, 1e9, 1e12);
        let full = c.time_for(1e9, 0.0, 1.0);
        let half = c.time_for(1e9, 0.0, 0.5);
        assert_eq!(half.as_nanos(), full.as_nanos() * 2);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        let c = ComputeCost::new(SimTime::ZERO, 1e9, 1e9);
        let _ = c.time_for(1.0, 1.0, 0.0);
    }
}
