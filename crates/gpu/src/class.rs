//! Device classes.
//!
//! The hybrid placement policy (ISSUE 9) treats the host CPU pool as a
//! sibling device of the worker's GPUs. A [`DeviceClass`] names one such
//! execution target; [`ClassPriors`] packages the analytical cost priors —
//! the paper's Eqs (1)–(4) terms — the online cost model is seeded from
//! before any observation arrives.

use crate::spec::GpuModel;
use gflink_sim::{BandwidthCost, ComputeCost};

/// An execution target class on a worker: one of its GPUs, or the host
/// CPU slot pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A discrete GPU of the given model, reached over PCIe.
    Gpu(GpuModel),
    /// The worker's host CPU task slots (no transfer link: inputs are
    /// already host-resident).
    Host,
}

impl DeviceClass {
    /// Stable label for metrics/rollup lanes.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Gpu(GpuModel::TeslaC2050) => "gpu/c2050",
            DeviceClass::Gpu(GpuModel::Gtx750) => "gpu/gtx750",
            DeviceClass::Gpu(GpuModel::TeslaK20) => "gpu/k20",
            DeviceClass::Gpu(GpuModel::TeslaP100) => "gpu/p100",
            DeviceClass::Host => "host",
        }
    }
}

/// Analytical cost priors for one device class: the kernel roofline and,
/// for GPU classes, the PCIe link model. These are exactly the terms of the
/// paper's Eq. (1) decomposition (`T = T_sched + T_trans + T_exec`), so a
/// cost model seeded from them predicts sensibly before its first
/// observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassPriors {
    /// Roofline kernel cost (sustained throughputs).
    pub kernel: ComputeCost,
    /// Per-direction transfer model; `None` for the host class.
    pub link: Option<BandwidthCost>,
}

impl ClassPriors {
    /// Priors for a GPU class, from the datasheet-calibrated spec.
    pub fn for_gpu(model: GpuModel) -> Self {
        let spec = model.spec();
        ClassPriors {
            kernel: spec.kernel_cost(),
            link: Some(spec.pcie_cost()),
        }
    }

    /// Priors for the host class from a caller-supplied roofline (host
    /// throughput is a deployment property, not a catalogue entry).
    pub fn for_host(cost: ComputeCost) -> Self {
        ClassPriors {
            kernel: cost,
            link: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gflink_sim::SimTime;

    #[test]
    fn labels_are_distinct_and_stable() {
        let mut labels: Vec<&str> = GpuModel::ALL
            .iter()
            .map(|&m| DeviceClass::Gpu(m).label())
            .collect();
        labels.push(DeviceClass::Host.label());
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "labels must be unique");
        assert_eq!(DeviceClass::Host.label(), "host");
    }

    #[test]
    fn gpu_priors_match_spec() {
        let spec = GpuModel::TeslaK20.spec();
        let p = ClassPriors::for_gpu(GpuModel::TeslaK20);
        assert_eq!(p.kernel, spec.kernel_cost());
        assert_eq!(p.link, Some(spec.pcie_cost()));
    }

    #[test]
    fn host_priors_have_no_link() {
        let cost = ComputeCost::new(SimTime::from_micros(5), 50e9, 20e9);
        let p = ClassPriors::for_host(cost);
        assert_eq!(p.kernel, cost);
        assert!(p.link.is_none());
    }
}
