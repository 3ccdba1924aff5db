//! Device catalogue.
//!
//! The paper's testbed uses four NVIDIA parts — Tesla C2050, GeForce
//! GTX 750, Tesla K20 and Tesla P100 (§6.1). [`GpuSpec`] carries the
//! datasheet numbers the virtual GPU's cost model needs; the efficiency
//! knobs account for the gap between datasheet peaks and what irregular
//! data-parallel MapReduce kernels sustain.

use gflink_sim::{BandwidthCost, ComputeCost, SimTime};

/// The GPU models used in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA Tesla C2050 (Fermi): the workhorse of Figs. 5–7.
    TeslaC2050,
    /// NVIDIA GeForce GTX 750 (Maxwell).
    Gtx750,
    /// NVIDIA Tesla K20 (Kepler) — two copy engines (§4.1.2).
    TeslaK20,
    /// NVIDIA Tesla P100 (Pascal).
    TeslaP100,
}

impl GpuModel {
    /// All models, in the order Fig. 8b reports them.
    pub const ALL: [GpuModel; 4] = [
        GpuModel::TeslaC2050,
        GpuModel::Gtx750,
        GpuModel::TeslaK20,
        GpuModel::TeslaP100,
    ];

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            GpuModel::TeslaC2050 => "Tesla C2050",
            GpuModel::Gtx750 => "GTX 750",
            GpuModel::TeslaK20 => "Tesla K20",
            GpuModel::TeslaP100 => "Tesla P100",
        }
    }

    /// The full specification for this model.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuModel::TeslaC2050 => GpuSpec {
                model: self,
                sm_count: 14,
                sp_gflops: 1030.0,
                mem_bw_gbps: 144.0,
                dev_mem_bytes: 3 * GB,
                copy_engines: 1,
                pcie_gbps: 3.0,
                launch_overhead: SimTime::from_micros(8),
                compute_efficiency: 0.22,
                mem_efficiency: 0.65,
            },
            GpuModel::Gtx750 => GpuSpec {
                model: self,
                sm_count: 4,
                sp_gflops: 1044.0,
                mem_bw_gbps: 80.0,
                dev_mem_bytes: 2 * GB,
                copy_engines: 1,
                pcie_gbps: 3.0,
                launch_overhead: SimTime::from_micros(6),
                compute_efficiency: 0.24,
                mem_efficiency: 0.70,
            },
            GpuModel::TeslaK20 => GpuSpec {
                model: self,
                sm_count: 13,
                sp_gflops: 3520.0,
                mem_bw_gbps: 208.0,
                dev_mem_bytes: 5 * GB,
                copy_engines: 2,
                pcie_gbps: 6.0,
                launch_overhead: SimTime::from_micros(6),
                compute_efficiency: 0.22,
                mem_efficiency: 0.68,
            },
            GpuModel::TeslaP100 => GpuSpec {
                model: self,
                sm_count: 56,
                sp_gflops: 9300.0,
                mem_bw_gbps: 732.0,
                dev_mem_bytes: 16 * GB,
                copy_engines: 2,
                pcie_gbps: 12.0,
                launch_overhead: SimTime::from_micros(5),
                compute_efficiency: 0.24,
                mem_efficiency: 0.72,
            },
        }
    }
}

const GB: u64 = 1_000_000_000;

/// Datasheet + calibration parameters for one GPU model.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Which model this is.
    pub model: GpuModel,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Peak single-precision throughput, GFLOP/s.
    pub sp_gflops: f64,
    /// Peak device-memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Device memory capacity in bytes.
    pub dev_mem_bytes: u64,
    /// Number of DMA copy engines (1 = half duplex, 2 = full duplex, §4.1.2).
    pub copy_engines: u32,
    /// PCIe sustained bandwidth per direction, GB/s.
    pub pcie_gbps: f64,
    /// Fixed kernel launch overhead.
    pub launch_overhead: SimTime,
    /// Fraction of peak FLOP/s sustained by data-parallel MapReduce kernels.
    pub compute_efficiency: f64,
    /// Fraction of peak memory bandwidth sustained with coalesced access.
    pub mem_efficiency: f64,
}

impl GpuSpec {
    /// The roofline cost model for kernels on this device.
    ///
    /// The returned model's throughputs are the *sustained* values
    /// (peak × efficiency); per-kernel coalescing factors further scale the
    /// memory roof via the `efficiency` argument of
    /// [`ComputeCost::time_for`].
    pub fn kernel_cost(&self) -> ComputeCost {
        ComputeCost::new(
            self.launch_overhead,
            self.sp_gflops * 1e9 * self.compute_efficiency,
            self.mem_bw_gbps * 1e9 * self.mem_efficiency,
        )
    }

    /// PCIe transfer model for one direction, excluding API-call overheads
    /// (those belong to the communication channel, see [`crate::channel`]).
    pub fn pcie_cost(&self) -> BandwidthCost {
        BandwidthCost::gb_per_sec(SimTime::ZERO, self.pcie_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_ordered_by_generation_performance() {
        // Fig. 8b's finding: P100 > K20 > (GTX 750 ≈ C2050).
        let c2050 = GpuModel::TeslaC2050.spec();
        let gtx = GpuModel::Gtx750.spec();
        let k20 = GpuModel::TeslaK20.spec();
        let p100 = GpuModel::TeslaP100.spec();
        assert!(p100.sp_gflops > k20.sp_gflops);
        assert!(k20.sp_gflops > gtx.sp_gflops);
        assert!((gtx.sp_gflops - c2050.sp_gflops).abs() / c2050.sp_gflops < 0.05);
    }

    #[test]
    fn copy_engine_duplexing() {
        // H2D and D2H overlap only with a second copy engine.
        assert_eq!(GpuModel::TeslaC2050.spec().copy_engines, 1);
        assert_eq!(GpuModel::TeslaK20.spec().copy_engines, 2);
        assert_eq!(GpuModel::TeslaP100.spec().copy_engines, 2);
    }

    #[test]
    fn kernel_cost_reflects_efficiency() {
        let spec = GpuModel::TeslaC2050.spec();
        let cost = spec.kernel_cost();
        assert!((cost.flops_per_sec - 1030.0e9 * 0.22).abs() < 1.0);
        assert!((cost.mem_bytes_per_sec - 144.0e9 * 0.65).abs() < 1.0);
        assert_eq!(cost.launch_overhead, SimTime::from_micros(8));
    }

    #[test]
    fn pcie_cost_has_no_builtin_call_overhead() {
        let spec = GpuModel::TeslaC2050.spec();
        assert_eq!(spec.pcie_cost().overhead, SimTime::ZERO);
        // 3 GB/s: 3 MB takes 1 ms.
        assert_eq!(
            spec.pcie_cost().time_for(3_000_000),
            SimTime::from_millis(1)
        );
    }

    #[test]
    fn names_match_models() {
        for m in GpuModel::ALL {
            assert!(!m.name().is_empty());
            assert_eq!(m.spec().model, m);
        }
    }
}
