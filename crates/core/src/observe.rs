//! The live metrics plane of the GPU fabric: per-layer metric wiring,
//! cluster health snapshots, and the postmortem flight-recorder dumps.
//! Kept out of `manager.rs`/`gdst.rs` so the coordinator and the operator
//! driver stay the slim wiring the paper's decomposition calls for (the
//! `elastic.rs` precedent).
//!
//! Three surfaces live here:
//!
//! * [`GpuManager::set_metrics`] — mirrors `set_tracer`: hands every layer
//!   (GMemory, GStream, Recovery, and through them each device) its
//!   pre-registered counter/gauge/histogram handles, so the per-work hot
//!   path stays allocation-free and a disabled plane costs one branch.
//! * [`GpuFabric::cluster_snapshot`] — a point-in-time
//!   [`ClusterSnapshot`] health view (device health and utilization,
//!   stream queue depths, cache occupancy against budget, pen depth,
//!   checkpoint lag, live membership), exportable as a text dashboard,
//!   Prometheus exposition, or JSON.
//! * [`Observer`] — the fabric's postmortem policy: when a drain's fault
//!   ledger delta is non-quiet or a work breaches the [`SloPolicy`], the
//!   offending job's flight-recorder ring is bundled with the ledger delta
//!   and a health snapshot and written to `target/postmortem/*.json`.

use crate::gdst::GpuFabric;
use crate::manager::GpuManager;
use crate::session::JobId;
use gflink_flink::{ClusterSnapshot, DeviceSnapshot, DeviceState, JobHealth, WorkerSnapshot};
use gflink_gpu::DeviceHealth;
use gflink_sim::{
    write_postmortem, FaultLedger, Metrics, PostmortemBundle, RecEvent, SimTime, SloPolicy,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

impl GpuManager {
    /// Attach the shared metrics plane to every layer of this worker,
    /// mirroring [`set_tracer`](GpuManager::set_tracer): each layer
    /// registers its own labelled series once, here, so the per-work hot
    /// path only touches pre-minted handles.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.gmem.set_metrics(metrics, self.worker_id);
        self.gstream.set_metrics(metrics, self.worker_id);
        self.recovery.set_metrics(metrics, self.worker_id);
    }

    /// Whether a tracer or the live metrics plane is attached: both record
    /// emission order across workers, so such a manager's drains keep the
    /// worker order.
    pub(crate) fn observed(&self) -> bool {
        self.gstream.tracer.enabled() || self.gstream.metrics.enabled()
    }

    /// Push one structured event onto `job`'s flight-recorder ring (no-op
    /// for unknown jobs — the session may already be torn down).
    pub(crate) fn record_job_event(&mut self, job: JobId, ev: RecEvent) {
        if let Some(s) = self.sessions.get_mut(&job) {
            s.recorder.push(ev);
        }
    }
}

/// Map a device's health regime into the snapshot's transport enum (the
/// flink crate does not see `gflink-gpu`).
fn device_state(h: DeviceHealth) -> DeviceState {
    match h {
        DeviceHealth::Healthy => DeviceState::Healthy,
        DeviceHealth::Degraded { throughput } => DeviceState::Degraded(throughput),
        DeviceHealth::Lost => DeviceState::Lost,
    }
}

/// Build the health view over already-locked managers. Free function so
/// both [`GpuFabric::cluster_snapshot`] and the in-drain postmortem path
/// (which already holds the manager lock) share one builder. Checkpoint
/// lag is precomputed by the caller (`last_ticks`) so no checkpoint lock
/// is taken while the managers are held.
pub(crate) fn build_cluster_snapshot(
    at: SimTime,
    live_jobs: &[u64],
    last_ticks: &BTreeMap<u64, SimTime>,
    ckpt_on: bool,
    managers: &[GpuManager],
) -> ClusterSnapshot {
    let mut workers = Vec::with_capacity(managers.len());
    for m in managers {
        let mut devices = Vec::with_capacity(m.gpu_count());
        for g in 0..m.gpu_count() {
            let gpu = m.gpu(g);
            let (mut used, mut budget) = (0u64, 0u64);
            for &job in live_jobs {
                if let Some(s) = m.session(JobId(job)) {
                    if let Some(region) = s.regions.get(g) {
                        used += region.used();
                        budget += region.capacity();
                    }
                }
            }
            devices.push(DeviceSnapshot {
                worker: m.worker_id(),
                gpu: g,
                model: gpu.spec().model.name().to_string(),
                state: device_state(gpu.health()),
                utilization: gpu.kernel_utilization(at),
                kernel_busy: gpu.kernel_busy(),
                copy_busy: gpu.copy_busy(),
                queue_depth: m.gstream.sched.queue_len(g),
                cache_used: used,
                cache_budget: budget,
                works_executed: m.executed_per_gpu()[g],
            });
        }
        let mut jobs = Vec::new();
        for &job in live_jobs {
            if let Some(s) = m.session(JobId(job)) {
                jobs.push(JobHealth {
                    job,
                    weight: s.weight(),
                    pen_depth: m.gstream.sched.pen_depth(JobId(job)),
                    queued_bytes: m.gstream.sched.queued_bytes_of(JobId(job)),
                    checkpoint_lag: if ckpt_on {
                        last_ticks.get(&job).map(|&t| at.saturating_sub(t))
                    } else {
                        None
                    },
                });
            }
        }
        workers.push(WorkerSnapshot {
            worker: m.worker_id(),
            usable_gpus: m.usable_gpus(),
            total_gpus: m.gpu_count(),
            devices,
            jobs,
            ledger: m.fault_ledger(),
        });
    }
    ClusterSnapshot {
        at,
        live_jobs: live_jobs.to_vec(),
        workers,
    }
}

/// The fabric's postmortem policy and dump archive: the SLO threshold,
/// where bundles are written, and the bundles themselves (kept in memory
/// for tests and reporting alongside the on-disk JSON).
pub(crate) struct Observer {
    /// The SLO the flight recorder watches.
    pub(crate) slo: SloPolicy,
    /// Directory postmortem bundles are written to.
    pub(crate) dir: PathBuf,
    /// All bundles dumped so far, in emission order.
    pub(crate) bundles: Vec<PostmortemBundle>,
    /// Per-job dump counter (bounds the archive and names the files).
    pub(crate) per_job: BTreeMap<u64, u64>,
}

/// Postmortem dumps retained per job; later triggers on the same job are
/// counted but not dumped, so a flapping device cannot flood the archive.
pub(crate) const MAX_POSTMORTEMS_PER_JOB: u64 = 8;

impl Default for Observer {
    fn default() -> Self {
        Observer {
            slo: SloPolicy::default(),
            dir: PathBuf::from("target/postmortem"),
            bundles: Vec::new(),
            per_job: BTreeMap::new(),
        }
    }
}

impl Observer {
    /// Record one trigger for `job`: archive the bundle and write it to
    /// disk unless the job already used up its dump budget. Disk errors
    /// are swallowed (observability must never fail the job).
    pub(crate) fn dump(
        &mut self,
        job: u64,
        reason: &str,
        at: SimTime,
        delta: FaultLedger,
        events: Vec<RecEvent>,
        snapshot_json: String,
    ) {
        let seq = self.per_job.entry(job).or_insert(0);
        if *seq >= MAX_POSTMORTEMS_PER_JOB {
            return;
        }
        let bundle = PostmortemBundle {
            job,
            seq: *seq,
            reason: reason.to_string(),
            at,
            ledger_delta: delta,
            events,
            snapshot_json,
        };
        *seq += 1;
        let _ = write_postmortem(&self.dir, &bundle);
        self.bundles.push(bundle);
    }
}

impl GpuFabric {
    /// Turn on the live metrics plane at the default sampling cadence and
    /// return the shared [`Metrics`] handle. Every worker layer registers
    /// its labelled series and keeps the minted handles; flight-recorder
    /// rings and postmortem dumps arm at the same time. Call before
    /// submitting work — counters accrue as works execute.
    pub fn enable_metrics(&self) -> Metrics {
        self.enable_metrics_with(Metrics::new(Metrics::DEFAULT_CADENCE))
    }

    /// [`enable_metrics`](Self::enable_metrics) with a caller-built plane
    /// (custom cadence).
    pub fn enable_metrics_with(&self, metrics: Metrics) -> Metrics {
        *self.metrics.lock() = metrics.clone();
        for m in self.managers.lock().iter_mut() {
            m.set_metrics(&metrics);
        }
        metrics
    }

    /// The fabric's metrics plane (disabled unless
    /// [`enable_metrics`](Self::enable_metrics) was called).
    pub fn metrics(&self) -> Metrics {
        self.metrics.lock().clone()
    }

    /// Set the SLO the flight recorder watches: any work whose end-to-end
    /// latency exceeds the policy triggers a postmortem dump (when the
    /// metrics plane is enabled).
    pub fn set_slo(&self, slo: SloPolicy) {
        self.observer.lock().slo = slo;
    }

    /// Redirect postmortem bundles to `dir` (default `target/postmortem`).
    pub fn set_postmortem_dir(&self, dir: impl Into<PathBuf>) {
        self.observer.lock().dir = dir.into();
    }

    /// All postmortem bundles dumped so far, in emission order.
    pub fn postmortems(&self) -> Vec<PostmortemBundle> {
        self.observer.lock().bundles.clone()
    }

    /// A point-in-time health view of the whole fabric at simulated
    /// instant `at`. Lock order matters: live jobs and checkpoint cursors
    /// are copied out first, then the managers are locked once.
    pub fn cluster_snapshot(&self, at: SimTime) -> ClusterSnapshot {
        let live: Vec<u64> = self.live_jobs.lock().iter().map(|j| j.0).collect();
        let (ckpt_on, last_ticks) = {
            let ck = self.ckpt.lock();
            let ticks = live
                .iter()
                .filter_map(|&j| ck.last_tick(j).map(|t| (j, t)))
                .collect();
            (ck.enabled(), ticks)
        };
        self.with_managers(|ms| build_cluster_snapshot(at, &live, &last_ticks, ckpt_on, ms))
    }
}
