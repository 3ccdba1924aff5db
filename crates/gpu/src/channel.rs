//! JVM↔GPU communication channel models.
//!
//! §4.1 splits communication into a *control channel* (API calls redirected
//! CUDAWrapper → CUDAStub over JNI; small payloads, per-call cost) and a
//! *transfer channel* (bulk DMA over PCIe from off-heap direct buffers).
//! Table 2 measures the end-to-end H2D bandwidth of the transfer channel
//! against a native C implementation: identical plateau (~2.97 GB/s on the
//! C2050 testbed), with GFlink paying a slightly larger per-call overhead
//! that only shows at small sizes.
//!
//! [`TransferPath`] is the `T(n) = α + n/β` model with those two α values.
//! The constants below were fitted to Table 2 (worst-row fit error 1.2%;
//! see `table2_transfer_bandwidth` in `gflink-bench` for the regeneration).
//!
//! Table 2 was measured from page-locked direct buffers, so the fitted
//! model *is* the pinned path: [`TransferPath::pinned`] is byte-identical
//! to [`TransferPath::gflink`]. The *pageable* variant
//! ([`TransferPath::pageable`]) adds the cost the paper's design avoids —
//! the driver must first memcpy the pageable source into its own pinned
//! bounce buffer at host-memory bandwidth, and the copy is synchronous
//! (it blocks the stream's copy engine for the staging leg too). A fused
//! (batched) transfer is one call over the group's summed bytes, so it
//! pays one call overhead for the whole group
//! ([`TransferPath::alpha_saved`] counts what that saves).

use crate::spec::GpuSpec;
use gflink_sim::{BandwidthCost, SimTime};

/// Host-memory bandwidth of the Table 2 testbed era (DDR3 memcpy),
/// bytes/second — the staging-copy rate the pageable path pays.
pub const HOST_STAGING_BYTES_PER_SEC: f64 = 6.0e9;

/// Host-side staging behaviour of a transfer path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransferMode {
    /// Page-locked source buffers: full PCIe bandwidth, async-capable.
    /// This is what Table 2 measured and the default everywhere.
    #[default]
    Pinned,
    /// Pageable source buffers: the driver stages through its own pinned
    /// bounce buffer first (extra host memcpy, synchronous).
    Pageable,
}

/// Per-call overhead of the GFlink path (JNI redirect through CUDAWrapper
/// and CUDAStub), fitted to Table 2's GFlink column.
pub const GFLINK_CALL_OVERHEAD_NS: u64 = 1_955;

/// Per-call overhead of the native C path, fitted to Table 2's native
/// column.
pub const NATIVE_CALL_OVERHEAD_NS: u64 = 1_750;

/// Sustained PCIe bandwidth of the Table 2 testbed (C2050, PCIe 2.0 x16),
/// bytes/second.
pub const TABLE2_PCIE_BYTES_PER_SEC: f64 = 3.0e9;

/// One direction of the transfer channel: per-call overhead + optional
/// pageable staging copy + PCIe DMA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPath {
    /// Fixed cost per transfer call (API dispatch, pinning checks, …).
    pub call_overhead: SimTime,
    /// The DMA engine's latency/bandwidth model.
    pub pcie: BandwidthCost,
    /// `Some` on the pageable path: the driver's host-memory staging copy
    /// into its pinned bounce buffer. `None` on pinned paths — identical
    /// timing to the pre-split model.
    pub staging: Option<BandwidthCost>,
}

impl TransferPath {
    /// The GFlink path (CUDAWrapper → JNI → CUDAStub → DMA) for `spec`.
    /// Sources are off-heap direct buffers, i.e. page-locked: this is the
    /// pinned variant Table 2 measured.
    pub fn gflink(spec: &GpuSpec) -> Self {
        TransferPath {
            call_overhead: SimTime::from_nanos(GFLINK_CALL_OVERHEAD_NS),
            pcie: BandwidthCost::gb_per_sec(SimTime::ZERO, spec.pcie_gbps),
            staging: None,
        }
    }

    /// The native C path (direct `cudaMemcpy` from a pinned buffer).
    pub fn native(spec: &GpuSpec) -> Self {
        TransferPath {
            call_overhead: SimTime::from_nanos(NATIVE_CALL_OVERHEAD_NS),
            pcie: BandwidthCost::gb_per_sec(SimTime::ZERO, spec.pcie_gbps),
            staging: None,
        }
    }

    /// Explicit alias of [`TransferPath::gflink`]: the page-locked variant.
    pub fn pinned(spec: &GpuSpec) -> Self {
        Self::gflink(spec)
    }

    /// The pageable variant: same α and PCIe model, plus the driver's
    /// staging memcpy at [`HOST_STAGING_BYTES_PER_SEC`].
    pub fn pageable(spec: &GpuSpec) -> Self {
        TransferPath {
            staging: Some(BandwidthCost::new(
                SimTime::ZERO,
                HOST_STAGING_BYTES_PER_SEC,
            )),
            ..Self::gflink(spec)
        }
    }

    /// The GFlink-side path for `mode`.
    pub fn for_mode(spec: &GpuSpec, mode: TransferMode) -> Self {
        match mode {
            TransferMode::Pinned => Self::pinned(spec),
            TransferMode::Pageable => Self::pageable(spec),
        }
    }

    /// True when this path stages through a pageable bounce copy.
    pub fn is_pageable(&self) -> bool {
        self.staging.is_some()
    }

    /// Time to move `bytes` through this path in one call.
    pub fn time_for(&self, bytes: u64) -> SimTime {
        let stage = match self.staging {
            Some(s) => s.time_for(bytes),
            None => SimTime::ZERO,
        };
        self.call_overhead + stage + self.pcie.time_for(bytes)
    }

    /// Call overhead saved by fusing `works` transfers into one call.
    pub fn alpha_saved(&self, works: usize) -> SimTime {
        self.call_overhead * works.saturating_sub(1) as u64
    }

    /// Effective bandwidth (bytes/s) for a transfer of `bytes` — the metric
    /// Table 2 tabulates.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        let t = self.time_for(bytes).as_secs_f64();
        if t == 0.0 {
            self.pcie.bytes_per_sec
        } else {
            bytes as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuModel;

    /// Table 2 of the paper (bandwidth in MB/s, 1 MB = 1e6 B).
    const TABLE2: [(u64, f64, f64); 8] = [
        (2048, 776.398, 814.425),
        (4096, 1241.311, 1348.418),
        (16384, 2195.872, 2245.351),
        (32768, 2556.237, 2646.721),
        (131072, 2858.368, 2878.373),
        (262144, 2968.151, 2945.243),
        (524288, 2960.003, 2931.513),
        (1048576, 2973.701, 2963.532),
    ];

    #[test]
    fn model_fits_table2_within_five_percent() {
        let spec = GpuModel::TeslaC2050.spec();
        let gflink = TransferPath::gflink(&spec);
        let native = TransferPath::native(&spec);
        for &(bytes, g_mbps, n_mbps) in &TABLE2 {
            let g = gflink.effective_bandwidth(bytes) / 1e6;
            let n = native.effective_bandwidth(bytes) / 1e6;
            assert!(
                (g - g_mbps).abs() / g_mbps < 0.05,
                "GFlink {bytes}B: model {g:.1} vs paper {g_mbps:.1}"
            );
            assert!(
                (n - n_mbps).abs() / n_mbps < 0.05,
                "native {bytes}B: model {n:.1} vs paper {n_mbps:.1}"
            );
        }
    }

    #[test]
    fn native_wins_small_parity_large() {
        // The qualitative shape §6.7 reports.
        let spec = GpuModel::TeslaC2050.spec();
        let gflink = TransferPath::gflink(&spec);
        let native = TransferPath::native(&spec);
        assert!(native.effective_bandwidth(2048) > gflink.effective_bandwidth(2048));
        let g = gflink.effective_bandwidth(1 << 20);
        let n = native.effective_bandwidth(1 << 20);
        assert!((g - n).abs() / n < 0.01, "large transfers reach parity");
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let spec = GpuModel::TeslaC2050.spec();
        let path = TransferPath::gflink(&spec);
        let mut prev = 0.0;
        for shift in 10..24 {
            let bw = path.effective_bandwidth(1 << shift);
            assert!(bw > prev);
            prev = bw;
        }
    }

    /// Regression pin for the Table 2 regeneration: the pinned split must
    /// not perturb the fitted path. Exact `time_for` nanoseconds for every
    /// Table 2 size are pinned here; any drift in the model (or in
    /// `SimTime` rounding) fails this before it can skew a figure.
    #[test]
    fn pinned_path_times_are_pinned_to_table2_fit() {
        const EXPECTED_GFLINK_NS: [(u64, u64); 8] = [
            (2048, 2_638),
            (4096, 3_320),
            (16384, 7_416),
            (32768, 12_878),
            (131072, 45_646),
            (262144, 89_336),
            (524288, 176_718),
            (1048576, 351_480),
        ];
        let spec = GpuModel::TeslaC2050.spec();
        let gflink = TransferPath::gflink(&spec);
        let pinned = TransferPath::pinned(&spec);
        let native = TransferPath::native(&spec);
        for &(bytes, ns) in &EXPECTED_GFLINK_NS {
            assert_eq!(gflink.time_for(bytes), SimTime::from_nanos(ns), "{bytes} B");
            assert_eq!(pinned.time_for(bytes), gflink.time_for(bytes));
            assert_eq!(
                native.time_for(bytes),
                SimTime::from_nanos(ns - (GFLINK_CALL_OVERHEAD_NS - NATIVE_CALL_OVERHEAD_NS)),
            );
        }
        assert_eq!(pinned, gflink, "pinned IS the fitted Table 2 path");
    }

    /// Per-row fit error of the pinned model against Table 2's GFlink
    /// column. The worst row (256 KiB, −1.14%) slightly exceeds 1%; every
    /// other row is within it. (The native column's small-transfer rows fit
    /// more loosely — up to 3.4% — and stay under the 5% bound above.)
    #[test]
    fn table2_fit_error_bounded_per_row() {
        let spec = GpuModel::TeslaC2050.spec();
        let gflink = TransferPath::pinned(&spec);
        for &(bytes, g_mbps, _) in &TABLE2 {
            let g_err = (gflink.effective_bandwidth(bytes) / 1e6 - g_mbps).abs() / g_mbps;
            assert!(g_err < 0.012, "GFlink {bytes} B: {:.2}%", g_err * 100.0);
        }
    }

    #[test]
    fn pageable_pays_staging_on_top_of_pinned() {
        let spec = GpuModel::TeslaC2050.spec();
        let pinned = TransferPath::pinned(&spec);
        let pageable = TransferPath::pageable(&spec);
        assert!(!pinned.is_pageable());
        assert!(pageable.is_pageable());
        for bytes in [0u64, 2048, 1 << 20, 1 << 24] {
            let staging = SimTime::from_secs_f64(bytes as f64 / HOST_STAGING_BYTES_PER_SEC);
            assert_eq!(pageable.time_for(bytes), pinned.time_for(bytes) + staging);
        }
        // α is unchanged: at zero bytes the two paths agree.
        assert_eq!(pageable.time_for(0), pinned.time_for(0));
        assert!(pageable.effective_bandwidth(1 << 20) < pinned.effective_bandwidth(1 << 20));
    }

    #[test]
    fn fused_transfers_amortize_call_overhead() {
        let spec = GpuModel::TeslaC2050.spec();
        let path = TransferPath::for_mode(&spec, TransferMode::Pinned);
        let solo = path.time_for(2048) * 8;
        let fused = path.time_for(8 * 2048);
        assert!(fused < solo);
        // The gap is the seven saved α calls (modulo rounding of the
        // per-call vs summed PCIe term).
        let saved = solo.saturating_sub(fused);
        let alpha7 = path.alpha_saved(8);
        assert_eq!(alpha7, path.call_overhead * 7);
        let slack = saved
            .saturating_sub(alpha7)
            .max(alpha7.saturating_sub(saved));
        assert!(
            slack <= SimTime::from_nanos(8),
            "saved {saved:?} vs {alpha7:?}"
        );
        assert_eq!(path.alpha_saved(1), SimTime::ZERO);
        assert_eq!(path.alpha_saved(0), SimTime::ZERO);
    }
}
