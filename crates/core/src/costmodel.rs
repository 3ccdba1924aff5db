//! Online per-(operator, device-class) cost model for hybrid placement
//! (ISSUE 9).
//!
//! For every execution target — each GPU, plus the host CPU pool — the
//! model keeps EWMA estimators of the quantities the paper's Eq. (1)
//! decomposition needs to predict a GWork's completion time:
//!
//! * per-kernel effective throughput (logical bytes / kernel second),
//!   seeded from the device's sustained-memory-bandwidth prior
//!   ([`gflink_gpu::ClassPriors`], the Eqs (1)–(4) terms) until the first
//!   observation of that operator on that device class arrives;
//! * H2D / D2H link bandwidth, seeded from the datasheet PCIe rate;
//! * per-kernel relative prediction error (drives adaptive block sizing).
//!
//! Placement compares `predict = queue + transfer + kernel` across targets;
//! cache-resident input bytes are discounted from the transfer term by the
//! caller (it owns the cache regions). All estimator state is plain `f64`
//! arithmetic over simulated durations — deterministic, no clocks.

use crate::config::{GpuWorkerConfig, HybridConfig};
use gflink_gpu::{ClassPriors, GpuModel, KernelId};
use gflink_sim::SimTime;

/// One device class's estimators.
#[derive(Clone, Debug)]
struct ClassEstimator {
    /// Fixed launch overhead (prior; not adapted — it is α-sized and the
    /// throughput terms dominate at block scale).
    launch: SimTime,
    /// Throughput prior for kernels never observed on this class:
    /// sustained memory bandwidth, the roofline's memory-bound roof.
    prior_bps: f64,
    /// Link bandwidth estimators (bytes/s); zero for the host class (its
    /// inputs are already host-resident, Eq. (1)'s transfer term vanishes).
    h2d_bps: f64,
    d2h_bps: f64,
    /// Per-kernel observed throughput EWMA, indexed by [`KernelId::index`];
    /// `0.0` = not yet observed (use `prior_bps`).
    kernel_bps: Vec<f64>,
}

impl ClassEstimator {
    fn from_priors(p: ClassPriors) -> Self {
        let link = p.link.map(|l| l.bytes_per_sec).unwrap_or(0.0);
        ClassEstimator {
            launch: p.kernel.launch_overhead,
            prior_bps: p.kernel.mem_bytes_per_sec,
            h2d_bps: link,
            d2h_bps: link,
            kernel_bps: Vec::new(),
        }
    }

    fn kernel_bps(&self, kernel: KernelId) -> f64 {
        kernel
            .index()
            .and_then(|i| self.kernel_bps.get(i).copied())
            .filter(|&b| b > 0.0)
            .unwrap_or(self.prior_bps)
    }

    fn kernel_time(&self, kernel: KernelId, bytes: u64) -> SimTime {
        self.launch + SimTime::from_secs_f64(bytes as f64 / self.kernel_bps(kernel))
    }
}

/// EWMA smoothing factor of the online estimators: higher adapts faster
/// and forgets the priors sooner.
const EWMA_ALPHA: f64 = 0.25;

/// Margin the host prediction must beat every GPU route by before work
/// leaves the GPUs (`predict_cpu * CPU_MARGIN < best_gpu`); guards against
/// thrashing on near-ties.
const CPU_MARGIN: f64 = 1.2;

/// A split halves the host's share while the model's relative prediction
/// error (EWMA) exceeds this.
const SPLIT_ERROR_THRESHOLD: f64 = 0.25;

fn ewma(slot: &mut f64, obs: f64) {
    if !obs.is_finite() || obs <= 0.0 {
        return;
    }
    *slot = if *slot > 0.0 {
        EWMA_ALPHA * obs + (1.0 - EWMA_ALPHA) * *slot
    } else {
        obs
    };
}

/// The worker's online cost model: one [`ClassEstimator`] per GPU plus one
/// for the host CPU pool, and a per-kernel prediction-error EWMA.
#[derive(Clone, Debug)]
pub(crate) struct CostModel {
    gpus: Vec<ClassEstimator>,
    host: ClassEstimator,
    /// Per-kernel EWMA of `|predicted - observed| / observed` over the
    /// pipeline stages (queueing excluded); `0.0` = not yet observed.
    err: Vec<f64>,
}

impl CostModel {
    pub(crate) fn new(cfg: &GpuWorkerConfig) -> Self {
        CostModel {
            gpus: cfg
                .models
                .iter()
                .map(|&m| ClassEstimator::from_priors(ClassPriors::for_gpu(m)))
                .collect(),
            host: ClassEstimator::from_priors(ClassPriors::for_host(cfg.cpu_fallback.cost)),
            err: Vec::new(),
        }
    }

    /// Grow the estimator bank for a device that joined the complement.
    pub(crate) fn grow(&mut self, model: GpuModel) {
        self.gpus
            .push(ClassEstimator::from_priors(ClassPriors::for_gpu(model)));
    }

    /// Predicted kernel time for `bytes` of logical traffic on GPU `g`.
    pub(crate) fn gpu_kernel_time(&self, g: usize, kernel: KernelId, bytes: u64) -> SimTime {
        self.gpus[g].kernel_time(kernel, bytes)
    }

    /// Predicted kernel time on the host CPU pool.
    pub(crate) fn host_kernel_time(&self, kernel: KernelId, bytes: u64) -> SimTime {
        self.host.kernel_time(kernel, bytes)
    }

    /// Predicted H2D transfer time for `bytes` not resident on GPU `g`.
    pub(crate) fn h2d_time(&self, g: usize, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.gpus[g].h2d_bps.max(1.0))
    }

    /// Predicted D2H transfer time for `bytes` coming back from GPU `g`.
    pub(crate) fn d2h_time(&self, g: usize, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.gpus[g].d2h_bps.max(1.0))
    }

    /// Fold one observed kernel execution on GPU `g` into the estimators.
    pub(crate) fn observe_gpu_kernel(
        &mut self,
        g: usize,
        kernel: KernelId,
        bytes: u64,
        dur: SimTime,
    ) {
        let net = dur.saturating_sub(self.gpus[g].launch);
        if let Some(slot) = slot_mut(&mut self.gpus[g].kernel_bps, kernel) {
            ewma(slot, bytes as f64 / net.as_secs_f64());
        }
    }

    /// Fold one observed host execution into the estimators.
    pub(crate) fn observe_host_kernel(&mut self, kernel: KernelId, bytes: u64, dur: SimTime) {
        let net = dur.saturating_sub(self.host.launch);
        if let Some(slot) = slot_mut(&mut self.host.kernel_bps, kernel) {
            ewma(slot, bytes as f64 / net.as_secs_f64());
        }
    }

    /// Fold one observed H2D transfer on GPU `g` into the link estimator.
    pub(crate) fn observe_h2d(&mut self, g: usize, bytes: u64, dur: SimTime) {
        if bytes == 0 || dur.is_zero() {
            return;
        }
        ewma(&mut self.gpus[g].h2d_bps, bytes as f64 / dur.as_secs_f64());
    }

    /// Fold one observed D2H transfer on GPU `g` into the link estimator.
    pub(crate) fn observe_d2h(&mut self, g: usize, bytes: u64, dur: SimTime) {
        if bytes == 0 || dur.is_zero() {
            return;
        }
        ewma(&mut self.gpus[g].d2h_bps, bytes as f64 / dur.as_secs_f64());
    }

    /// Fold one relative prediction error for `kernel` into its EWMA.
    pub(crate) fn observe_error(&mut self, kernel: KernelId, rel_err: f64) {
        if let Some(slot) = slot_mut(&mut self.err, kernel) {
            // rel_err == 0.0 is a perfect prediction and must still decay
            // the EWMA, so bypass the zero-is-unseeded convention.
            if *slot > 0.0 {
                *slot = EWMA_ALPHA * rel_err.max(0.0) + (1.0 - EWMA_ALPHA) * *slot;
            } else {
                *slot = rel_err.max(f64::MIN_POSITIVE);
            }
        }
    }

    /// Current relative prediction error EWMA for `kernel`.
    pub(crate) fn error(&self, kernel: KernelId) -> f64 {
        kernel
            .index()
            .and_then(|i| self.err.get(i).copied())
            .unwrap_or(0.0)
    }
}

fn slot_mut(v: &mut Vec<f64>, kernel: KernelId) -> Option<&mut f64> {
    let i = kernel.index()?;
    if v.len() <= i {
        v.resize(i + 1, 0.0);
    }
    Some(&mut v[i])
}

/// The hybrid placement verdict for one GWork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HybridRoute {
    /// Fall through to Alg. 5.1 GPU placement.
    Gpu,
    /// Run on the host CPU pool.
    Cpu,
    /// Split: the first `cpu_n` elements run on the host, the rest on GPU.
    Split {
        /// Elements of the block routed to the host.
        cpu_n: usize,
    },
}

/// Pure decision function over the predicted completion times: compare the
/// best GPU route against the host route under [`CPU_MARGIN`] and the
/// [`HybridConfig`] split rules. `splittable_n` is `Some(n_actual)` when
/// the work can be split element-wise, `None` otherwise.
pub(crate) fn decide(
    cfg: &HybridConfig,
    gpu_pred: SimTime,
    cpu_pred: SimTime,
    model_err: f64,
    splittable_n: Option<usize>,
) -> HybridRoute {
    let tg = gpu_pred.as_secs_f64();
    let tc = cpu_pred.as_secs_f64();
    if tg <= 0.0 || tc <= 0.0 {
        return HybridRoute::Gpu;
    }
    // Adaptive split: devices close enough to parity that both finishing
    // together beats either alone. The CPU takes the share proportional to
    // its predicted speed; a noisy model (error EWMA over threshold)
    // halves the riskier host share.
    if let Some(n) = splittable_n {
        let ratio = (tc / tg).max(tg / tc);
        if n >= 2 * cfg.min_split_elems && ratio <= cfg.split_balance {
            let mut cpu_frac = tg / (tc + tg);
            if model_err > SPLIT_ERROR_THRESHOLD {
                cpu_frac /= 2.0;
            }
            let cpu_n = ((n as f64 * cpu_frac) as usize)
                .clamp(cfg.min_split_elems, n - cfg.min_split_elems);
            return HybridRoute::Split { cpu_n };
        }
    }
    if tc * CPU_MARGIN < tg {
        HybridRoute::Cpu
    } else {
        HybridRoute::Gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gflink_gpu::KernelRegistry;

    fn cfg() -> GpuWorkerConfig {
        GpuWorkerConfig::default()
    }

    fn interned(names: &[&str]) -> Vec<KernelId> {
        let mut reg = KernelRegistry::new();
        for n in names {
            reg.register(n, |_| gflink_gpu::KernelProfile::new(1.0, 1.0));
        }
        names.iter().map(|n| reg.resolve(n).unwrap()).collect()
    }

    #[test]
    fn priors_seed_from_spec_and_fallback() {
        let cfg = cfg();
        let m = CostModel::new(&cfg);
        let k = interned(&["k"])[0];
        // C2050 sustained memory roof: 144 GB/s × 0.65.
        let spec = GpuModel::TeslaC2050.spec();
        let expect = spec.kernel_cost().time_for(0.0, 1e6, 1.0);
        assert_eq!(m.gpu_kernel_time(0, k, 1_000_000), expect);
        // Host prior: the CpuFallback roofline's memory roof (20 GB/s).
        let host = m.host_kernel_time(k, 2_000_000_000);
        assert_eq!(
            host,
            cfg.cpu_fallback.cost.launch_overhead + SimTime::from_millis(100)
        );
        // Transfer prior: datasheet PCIe, 3 GB/s → 3 MB in 1 ms.
        assert_eq!(m.h2d_time(0, 3_000_000), SimTime::from_millis(1));
        assert_eq!(m.d2h_time(0, 3_000_000), SimTime::from_millis(1));
    }

    #[test]
    fn observations_move_estimates_toward_measurements() {
        let mut m = CostModel::new(&cfg());
        let k = interned(&["k"])[0];
        let before = m.gpu_kernel_time(0, k, 1 << 20);
        // This operator sustains only 1 GB/s on GPU 0 (launch excluded).
        let launch = GpuModel::TeslaC2050.spec().launch_overhead;
        for _ in 0..32 {
            m.observe_gpu_kernel(0, k, 1 << 30, launch + SimTime::from_secs(1));
        }
        let after = m.gpu_kernel_time(0, k, 1 << 20);
        assert!(after > before, "estimate must track the slower observation");
        let expect = launch + SimTime::from_secs_f64((1u64 << 20) as f64 / (1u64 << 30) as f64);
        let rel = (after.as_secs_f64() - expect.as_secs_f64()).abs() / expect.as_secs_f64();
        assert!(rel < 0.05, "converged estimate within 5%, got {rel}");
        // Another kernel is untouched: it still predicts from the prior.
        let k2 = interned(&["a", "b"])[1];
        assert_eq!(m.gpu_kernel_time(0, k2, 1 << 20), before);
    }

    #[test]
    fn link_estimators_adapt_independently_per_direction() {
        let mut m = CostModel::new(&cfg());
        for _ in 0..32 {
            m.observe_h2d(0, 1_000_000_000, SimTime::from_secs(1)); // 1 GB/s
        }
        assert!(m.h2d_time(0, 1 << 20) > m.d2h_time(0, 1 << 20));
        // Zero-byte / zero-duration observations are ignored.
        m.observe_d2h(0, 0, SimTime::from_secs(1));
        m.observe_d2h(0, 1, SimTime::ZERO);
        assert_eq!(m.d2h_time(0, 3_000_000), SimTime::from_millis(1));
    }

    #[test]
    fn unresolved_kernel_uses_priors_and_ignores_observations() {
        let mut m = CostModel::new(&cfg());
        let prior = m.host_kernel_time(KernelId::UNRESOLVED, 1 << 20);
        m.observe_host_kernel(KernelId::UNRESOLVED, 1 << 30, SimTime::from_secs(1));
        assert_eq!(m.host_kernel_time(KernelId::UNRESOLVED, 1 << 20), prior);
        assert_eq!(m.error(KernelId::UNRESOLVED), 0.0);
    }

    #[test]
    fn error_ewma_tracks_and_decays() {
        let mut m = CostModel::new(&cfg());
        let k = interned(&["k"])[0];
        m.observe_error(k, 0.5);
        assert!(m.error(k) > 0.4);
        for _ in 0..64 {
            m.observe_error(k, 0.0);
        }
        assert!(m.error(k) < 0.01, "perfect predictions must decay the EWMA");
    }

    #[test]
    fn grow_appends_estimators_for_joined_devices() {
        let mut m = CostModel::new(&cfg());
        m.grow(GpuModel::TeslaP100);
        let k = interned(&["k"])[0];
        // The P100's memory roof is far higher than the C2050's.
        assert!(m.gpu_kernel_time(2, k, 1 << 30) < m.gpu_kernel_time(0, k, 1 << 30));
    }

    #[test]
    fn decision_routes_by_margin_and_splits_near_parity() {
        let h = HybridConfig::default();
        let ms = SimTime::from_millis;
        // GPU clearly wins.
        assert_eq!(decide(&h, ms(1), ms(100), 0.0, None), HybridRoute::Gpu);
        // CPU wins past the margin.
        assert_eq!(decide(&h, ms(100), ms(10), 0.0, None), HybridRoute::Cpu);
        // Near-tie within the margin stays on GPU (no thrashing).
        assert_eq!(decide(&h, ms(10), ms(9), 0.0, None), HybridRoute::Gpu);
        // Splittable near-parity work splits, CPU share ∝ its speed.
        let n = 4 * h.min_split_elems;
        match decide(&h, ms(10), ms(10), 0.0, Some(n)) {
            HybridRoute::Split { cpu_n } => {
                assert!((cpu_n as f64 / n as f64 - 0.5).abs() < 0.01)
            }
            other => panic!("expected split, got {other:?}"),
        }
        // High model error halves the host share.
        match decide(&h, ms(10), ms(10), 1.0, Some(n)) {
            HybridRoute::Split { cpu_n } => {
                assert!((cpu_n as f64 / n as f64 - 0.25).abs() < 0.01)
            }
            other => panic!("expected split, got {other:?}"),
        }
        // Too small to split: the margin rule applies instead.
        assert_eq!(
            decide(&h, ms(10), ms(10), 0.0, Some(h.min_split_elems)),
            HybridRoute::Gpu
        );
        // Dominance beyond split_balance: no split, route outright.
        assert_eq!(decide(&h, ms(100), ms(10), 0.0, Some(n)), HybridRoute::Cpu);
    }
}
