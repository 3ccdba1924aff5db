//! Shared harness types for the benchmark applications.

use gflink_core::{FabricConfig, GpuFabric};
use gflink_flink::{ClusterConfig, JobGate, JobReport, SharedCluster};

/// Which engine an app ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Baseline: the original (CPU-only) Flink engine.
    Cpu,
    /// GFlink: map/reduce phases offloaded to the GPU fabric.
    Gpu,
}

impl ExecMode {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Cpu => "Flink",
            ExecMode::Gpu => "GFlink",
        }
    }
}

/// The outcome of one application run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Engine used.
    pub mode: ExecMode,
    /// Job report (total time, Eq. 1 decomposition, phase graph).
    pub report: JobReport,
    /// App-specific result digest for CPU/GPU cross-checking.
    pub digest: f64,
    /// Per-iteration job times (iterative apps; one entry for batch apps).
    pub per_iteration: Vec<gflink_sim::SimTime>,
}

impl AppRun {
    /// Total simulated job time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.report.total.as_secs_f64()
    }
}

/// A freshly provisioned cluster + GPU fabric for one experiment.
///
/// Clones share the same cluster and fabric (both are handles), so a clone
/// can be moved into another tenant's driver thread.
#[derive(Clone)]
pub struct Setup {
    /// The shared cluster (CPU slots, network, HDFS).
    pub cluster: SharedCluster,
    /// The shared GPU fabric (one GpuManager per worker).
    pub fabric: GpuFabric,
}

impl Setup {
    /// The paper's standard testbed shape: `workers` nodes, 4 slots and two
    /// C2050s each.
    pub fn standard(workers: usize) -> Setup {
        Setup::with_configs(ClusterConfig::standard(workers), FabricConfig::default())
    }

    /// Fully custom setup.
    pub fn with_configs(cluster_cfg: ClusterConfig, fabric_cfg: FabricConfig) -> Setup {
        let workers = cluster_cfg.num_workers;
        let cluster = SharedCluster::new(cluster_cfg);
        let fabric = GpuFabric::new(workers, fabric_cfg);
        Setup { cluster, fabric }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.cluster.config().num_workers
    }

    /// Default parallelism: total task slots.
    pub fn default_parallelism(&self) -> usize {
        self.cluster.config().total_slots()
    }
}

/// One tenant of a concurrent run: a display name plus the closure that
/// drives the whole job (typically an app's `run_gpu_at` over a shared
/// [`Setup`]).
pub type ConcurrentJob<'a> = (&'static str, Box<dyn FnOnce() -> AppRun + Send + 'a>);

/// Run several jobs genuinely concurrently — one OS thread per tenant —
/// against whatever shared cluster/fabric the closures capture.
///
/// A [`JobGate`] keeps the interleaving deterministic: the driver threads
/// pass a baton in simulated-time order (ties broken by submission order),
/// so two invocations produce identical timelines no matter how the OS
/// schedules the threads. Returns the runs in submission order.
pub fn run_concurrent(jobs: Vec<ConcurrentJob<'_>>) -> Vec<(&'static str, AppRun)> {
    let gate = JobGate::new();
    let entries: Vec<_> = jobs
        .into_iter()
        .map(|(name, f)| (gate.register(), name, f))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = entries
            .into_iter()
            .map(|(token, name, f)| {
                let gate = gate.clone();
                (name, s.spawn(move || gate.run(token, f)))
            })
            .collect();
        handles
            .into_iter()
            .map(|(name, h)| (name, h.join().expect("concurrent tenant panicked")))
            .collect()
    })
}

/// Relative-tolerance comparison for CPU/GPU digest cross-checks
/// (accumulation order differs between block-level and partition-level
/// partials, so exact equality is not expected for floats).
pub fn digests_match(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true;
    }
    let denom = a.abs().max(b.abs()).max(1e-12);
    ((a - b) / denom).abs() <= rel_tol
}

/// Differential-test support for kernel bodies.
#[cfg(test)]
pub(crate) mod oracle {
    use gflink_core::GRecord;
    use gflink_gpu::{KernelArgs, KernelProfile};
    use gflink_memory::{DataLayout, HBuffer, RecordView};

    /// A kernel body, as the fabric's registry holds it.
    pub(crate) type KernelBody = fn(&mut KernelArgs<'_, '_>) -> KernelProfile;

    /// Block sizes every differential test runs: empty, one record, and
    /// odd sizes.
    pub(crate) const SIZES: [usize; 5] = [0, 1, 2, 33, 257];

    /// `records` stored as one AoS block, as `to_gdst` packs them.
    pub(crate) fn aos_block<T: GRecord>(records: &[T]) -> HBuffer {
        let def = T::def();
        let n = records.len();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, DataLayout::Aos, n));
        let mut view = RecordView::new(&mut buf, def, DataLayout::Aos, n);
        for (i, r) in records.iter().enumerate() {
            r.store(&mut view, i);
        }
        buf
    }

    /// Launch `kernel` and `oracle` on the same `n`-record inputs, each
    /// into a zeroed `out_bytes` output as a host launch does, and assert
    /// equal output bytes and equal profiles.
    pub(crate) fn assert_same_launch(
        kernel: KernelBody,
        oracle: KernelBody,
        inputs: &[&HBuffer],
        params: &[f64],
        n: usize,
        out_bytes: usize,
    ) {
        let run = |body: KernelBody| {
            let mut out = HBuffer::zeroed(out_bytes);
            let profile = body(&mut KernelArgs {
                inputs,
                outputs: &mut [&mut out],
                params,
                n_actual: n,
                n_logical: n as u64 * 1000 + 7,
            });
            (out, profile)
        };
        assert_eq!(run(kernel), run(oracle), "n = {n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_setup_shape() {
        let s = Setup::standard(3);
        assert_eq!(s.workers(), 3);
        assert_eq!(s.default_parallelism(), 12);
        s.fabric.with_managers(|ms| {
            assert_eq!(ms.len(), 3);
            assert_eq!(ms[0].gpu_count(), 2);
        });
    }

    #[test]
    fn digest_tolerance() {
        assert!(digests_match(1.0, 1.0, 0.0));
        assert!(digests_match(1.0, 1.0000001, 1e-5));
        assert!(!digests_match(1.0, 1.1, 1e-3));
        assert!(digests_match(0.0, 0.0, 1e-9));
    }

    #[test]
    fn labels() {
        assert_eq!(ExecMode::Cpu.label(), "Flink");
        assert_eq!(ExecMode::Gpu.label(), "GFlink");
    }
}
