//! The execution environment and job lifecycle.
//!
//! A [`FlinkEnv`] is the driver's handle to one submitted job: it owns the
//! job's phase accounting (Eq. 1), its executed-phase graph, and the job
//! clock frontier. Several `FlinkEnv`s may share one [`SharedCluster`], in
//! which case their reservations contend on the same worker timelines —
//! exactly how the concurrent multi-application experiments (§6.6.4) are
//! run.

use crate::graph::{JobGraph, PhaseRecord};
use crate::rollup::GpuRollup;
use crate::topology::{ClusterConfig, SharedCluster};
use gflink_sim::{Accounting, FaultLedger, Phase, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

pub(crate) struct EnvInner {
    pub cluster: SharedCluster,
    pub acct: Accounting,
    pub graph: JobGraph,
    pub name: String,
    pub submitted_at: SimTime,
    pub frontier: SimTime,
    pub faults: FaultLedger,
    /// Per-job HDFS block-placement cursor. Files this job creates are
    /// placed from here (`Hdfs::create_at`), not from the cluster-global
    /// cursor, so the block layout a job sees — and everything derived
    /// from it, like locality-aware split assignment — depends only on the
    /// job's own create history, never on what other tenants wrote first.
    pub hdfs_cursor: usize,
    /// GPU-side observability rollup, fed by the GPU fabric's drain loop.
    /// Stays empty (and off the report) for CPU-only jobs.
    pub gpu: GpuRollup,
}

/// Driver-side handle to a submitted job.
#[derive(Clone)]
pub struct FlinkEnv {
    pub(crate) inner: Arc<Mutex<EnvInner>>,
}

/// Final report for a finished job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Submission instant (absolute simulated time).
    pub submitted_at: SimTime,
    /// Completion instant (absolute simulated time).
    pub finished_at: SimTime,
    /// Total job time (completion − submission), the paper's `T_total`.
    pub total: SimTime,
    /// Eq. (1) phase decomposition.
    pub acct: Accounting,
    /// Executed phases.
    pub graph: JobGraph,
    /// Failure ledger: faults the job absorbed and the recovery actions
    /// they triggered (retries, drains, cache invalidations, CPU
    /// fallbacks). All zeros on an undisturbed run.
    pub faults: FaultLedger,
    /// GPU observability rollup: per-stage histograms, cache hit rate,
    /// bytes per channel, steals and per-device lanes. `None` when the job
    /// never touched the GPU fabric.
    pub gpu: Option<GpuRollup>,
}

impl FlinkEnv {
    /// Submit a job named `name` to `cluster` at simulated instant `at`.
    ///
    /// Charges the submission overhead (`T_submit`): client-side packaging,
    /// JobManager admission and task deployment.
    pub fn submit(cluster: &SharedCluster, name: &str, at: SimTime) -> FlinkEnv {
        let submit = cluster.config().submit_overhead;
        let mut acct = Accounting::new();
        acct.add(Phase::Submit, submit);
        FlinkEnv {
            inner: Arc::new(Mutex::new(EnvInner {
                cluster: cluster.clone(),
                acct,
                graph: JobGraph::new(),
                name: name.to_string(),
                submitted_at: at,
                frontier: at + submit,
                faults: FaultLedger::default(),
                hdfs_cursor: 0,
                gpu: GpuRollup::default(),
            })),
        }
    }

    /// The shared cluster this job runs on.
    pub fn cluster(&self) -> SharedCluster {
        self.inner.lock().cluster.clone()
    }

    /// The cluster configuration (cloned).
    pub fn config(&self) -> ClusterConfig {
        self.inner.lock().cluster.config()
    }

    /// The job's name.
    pub fn name(&self) -> String {
        self.inner.lock().name.clone()
    }

    /// The job's current frontier: the latest completion instant any
    /// partition or driver action has reached.
    pub fn frontier(&self) -> SimTime {
        self.inner.lock().frontier
    }

    /// Advance the frontier to at least `t`.
    pub fn bump_frontier(&self, t: SimTime) {
        let mut inner = self.inner.lock();
        inner.frontier = inner.frontier.max(t);
    }

    /// Add `dt` to the accounting ledger under `phase`.
    pub fn charge(&self, phase: Phase, dt: SimTime) {
        self.inner.lock().acct.add(phase, dt);
    }

    /// Record an executed phase in the job graph.
    pub fn record_phase(&self, rec: PhaseRecord) {
        self.inner.lock().graph.push(rec);
    }

    /// Merge a phase's fault/recovery counters into the job's failure
    /// ledger (deltas, not running totals — callers snapshot a manager's
    /// ledger around each drain and record the difference).
    pub fn record_faults(&self, delta: FaultLedger) {
        let mut inner = self.inner.lock();
        inner.faults = inner.faults.merge(&delta);
    }

    /// The job's failure ledger so far.
    pub fn faults(&self) -> FaultLedger {
        self.inner.lock().faults
    }

    /// Run `f` over the job's GPU rollup (steal counts, per-device lanes —
    /// the fields the fabric fills at teardown rather than per work).
    pub fn with_gpu_rollup<R>(&self, f: impl FnOnce(&mut GpuRollup) -> R) -> R {
        f(&mut self.inner.lock().gpu)
    }

    /// The job's private HDFS placement cursor (see `EnvInner`): where the
    /// next file this job creates starts its round-robin block placement.
    pub fn hdfs_cursor(&self) -> usize {
        self.inner.lock().hdfs_cursor
    }

    /// Advance the job's placement cursor past `blocks` freshly-placed
    /// blocks.
    pub fn advance_hdfs_cursor(&self, blocks: usize) {
        self.inner.lock().hdfs_cursor += blocks;
    }

    /// Charge the per-phase scheduling overhead and return it.
    ///
    /// The JobManager/DAGScheduler spend this much per phase deciding
    /// placements (`T_schedule` of Eq. 1); every partition of the phase
    /// starts no earlier than its input plus this delay.
    pub fn schedule_phase(&self) -> SimTime {
        // Concurrent drivers yield the interleaving baton at every phase
        // boundary (no-op for solo runs; see `gate`). Never called with the
        // inner lock held.
        crate::gate::checkpoint(self.frontier());
        let inner = self.inner.lock();
        let dt = inner.cluster.config().schedule_overhead;
        drop(inner);
        self.charge(Phase::Schedule, dt);
        dt
    }

    /// Finish the job: returns the report. The job's total is
    /// `frontier − submitted_at`.
    pub fn finish(&self) -> JobReport {
        let inner = self.inner.lock();
        JobReport {
            name: inner.name.clone(),
            submitted_at: inner.submitted_at,
            finished_at: inner.frontier,
            total: inner.frontier - inner.submitted_at,
            acct: inner.acct.clone(),
            graph: inner.graph.clone(),
            faults: inner.faults,
            gpu: (!inner.gpu.is_empty()).then(|| inner.gpu.clone()),
        }
    }
}

impl std::fmt::Debug for FlinkEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(f, "FlinkEnv({:?}, frontier {})", inner.name, inner.frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterConfig;

    #[test]
    fn submit_charges_overhead_and_sets_frontier() {
        let cluster = SharedCluster::new(ClusterConfig::standard(2));
        let env = FlinkEnv::submit(&cluster, "job", SimTime::from_secs(5));
        let report = env.finish();
        assert_eq!(report.name, "job");
        assert_eq!(report.submitted_at, SimTime::from_secs(5));
        assert_eq!(report.total, cluster.config().submit_overhead);
        assert_eq!(
            report.acct.get(Phase::Submit),
            cluster.config().submit_overhead
        );
    }

    #[test]
    fn frontier_only_moves_forward() {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let env = FlinkEnv::submit(&cluster, "j", SimTime::ZERO);
        let f0 = env.frontier();
        env.bump_frontier(f0 + SimTime::from_secs(1));
        env.bump_frontier(f0); // no-op backwards
        assert_eq!(env.frontier(), f0 + SimTime::from_secs(1));
    }

    #[test]
    fn schedule_phase_accumulates() {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let env = FlinkEnv::submit(&cluster, "j", SimTime::ZERO);
        let dt = env.schedule_phase();
        assert_eq!(dt, cluster.config().schedule_overhead);
        env.schedule_phase();
        assert_eq!(env.finish().acct.get(Phase::Schedule), dt * 2);
    }

    #[test]
    fn fault_ledger_merges_deltas_into_the_report() {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let env = FlinkEnv::submit(&cluster, "j", SimTime::ZERO);
        assert!(env.faults().is_quiet());
        env.record_faults(FaultLedger {
            faults_injected: 2,
            retries: 3,
            ..FaultLedger::default()
        });
        env.record_faults(FaultLedger {
            gpus_lost: 1,
            ..FaultLedger::default()
        });
        let report = env.finish();
        assert_eq!(report.faults.faults_injected, 2);
        assert_eq!(report.faults.retries, 3);
        assert_eq!(report.faults.gpus_lost, 1);
        assert!(!report.faults.is_quiet());
    }

    #[test]
    fn concurrent_envs_share_the_cluster() {
        let cluster = SharedCluster::new(ClusterConfig::standard(1));
        let a = FlinkEnv::submit(&cluster, "a", SimTime::ZERO);
        let b = FlinkEnv::submit(&cluster, "b", SimTime::ZERO);
        // Both see the same worker timelines.
        a.cluster().lock().workers[0]
            .nic_out
            .reserve(SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(b.cluster().lock().drained_at(), SimTime::from_secs(2));
    }
}
