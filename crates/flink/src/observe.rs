//! Cluster health snapshots.
//!
//! This module holds the *pure data* side of the live metrics plane: the
//! [`ClusterSnapshot`] health view (per-device utilization and health
//! state, stream queue depths, cache occupancy against budget, pen depth,
//! checkpoint lag, live membership) plus its three renderers — the text
//! dashboard (`Display`), Prometheus text-exposition
//! ([`ClusterSnapshot::to_prometheus`]) and deterministic JSON
//! ([`ClusterSnapshot::to_json`]). Snapshot *builders* live in
//! `gflink-core::observe`, next to the managers that own the state; this
//! crate only knows how to carry and render the result, mirroring how
//! [`crate::rollup`] carries what the drain loop feeds it.

use gflink_sim::{FaultLedger, SimTime};
use std::fmt;
use std::fmt::Write as _;

/// Health regime of one device, as the snapshot carries it (the flink
/// layer does not see the gpu crate; `gflink-core` maps the device's
/// health enum into this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceState {
    /// Nominal throughput.
    Healthy,
    /// Running at the contained fraction of nominal throughput.
    Degraded(f64),
    /// Permanently off the bus.
    Lost,
}

impl DeviceState {
    /// Stable lowercase name used by the JSON/Prometheus encodings.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceState::Healthy => "healthy",
            DeviceState::Degraded(_) => "degraded",
            DeviceState::Lost => "lost",
        }
    }

    /// Numeric encoding for gauge export: 0 healthy, 1 degraded, 2 lost.
    pub fn as_level(self) -> u64 {
        match self {
            DeviceState::Healthy => 0,
            DeviceState::Degraded(_) => 1,
            DeviceState::Lost => 2,
        }
    }
}

impl fmt::Display for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceState::Degraded(t) => write!(f, "degraded({:.0}%)", t * 100.0),
            other => f.write_str(other.as_str()),
        }
    }
}

/// One device's health view at snapshot time.
#[derive(Clone, Debug)]
pub struct DeviceSnapshot {
    /// Worker the device belongs to.
    pub worker: usize,
    /// Device index within the worker.
    pub gpu: usize,
    /// Device model name.
    pub model: String,
    /// Health regime.
    pub state: DeviceState,
    /// Kernel-engine utilization over the elapsed horizon, in `[0, 1]`.
    pub utilization: f64,
    /// Cumulative kernel-engine busy time.
    pub kernel_busy: SimTime,
    /// Cumulative copy-engine busy time (both directions).
    pub copy_busy: SimTime,
    /// Works waiting in the device's stream queue.
    pub queue_depth: usize,
    /// Bytes resident in the device's cache regions across live jobs
    /// (plus retired-region residue accounted at the worker level).
    pub cache_used: u64,
    /// Total cache budget carved out on the device for live jobs.
    pub cache_budget: u64,
    /// Works this device has executed so far.
    pub works_executed: u64,
}

/// One live job's health as seen by a worker.
#[derive(Clone, Debug)]
pub struct JobHealth {
    /// Fabric job id.
    pub job: u64,
    /// WFQ fair-share weight.
    pub weight: u32,
    /// Submissions parked in the backpressure pen right now.
    pub pen_depth: usize,
    /// Bytes admitted but not yet dispatched (the WFQ virtual-queue level).
    pub queued_bytes: u64,
    /// Time since the job's last durable checkpoint, `None` when
    /// checkpointing is off or nothing was written yet.
    pub checkpoint_lag: Option<SimTime>,
}

/// One worker's slice of the cluster health view.
#[derive(Clone, Debug)]
pub struct WorkerSnapshot {
    /// Worker id.
    pub worker: usize,
    /// Devices currently usable (healthy or degraded).
    pub usable_gpus: usize,
    /// Devices ever attached (including lost ones still shown as lanes).
    pub total_gpus: usize,
    /// Per-device views, in device order.
    pub devices: Vec<DeviceSnapshot>,
    /// Per-live-job health, in job order.
    pub jobs: Vec<JobHealth>,
    /// The worker's cumulative fault/recovery ledger.
    pub ledger: FaultLedger,
}

/// A point-in-time health view of the whole fabric: live membership,
/// device states, queue depths, cache occupancy, pen buildup and
/// checkpoint lag. Built by `GpuFabric::cluster_snapshot`; rendered as a
/// text dashboard (`Display`), Prometheus exposition or JSON.
#[derive(Clone, Debug, Default)]
pub struct ClusterSnapshot {
    /// Simulated instant the snapshot was taken.
    pub at: SimTime,
    /// Jobs currently admitted to the fabric, ascending.
    pub live_jobs: Vec<u64>,
    /// Per-worker views, in worker order.
    pub workers: Vec<WorkerSnapshot>,
}

impl ClusterSnapshot {
    /// Devices usable across all workers.
    pub fn usable_gpus(&self) -> usize {
        self.workers.iter().map(|w| w.usable_gpus).sum()
    }

    /// Devices attached across all workers.
    pub fn total_gpus(&self) -> usize {
        self.workers.iter().map(|w| w.total_gpus).sum()
    }

    /// Submissions parked across all workers and jobs.
    pub fn pen_depth(&self) -> usize {
        self.workers
            .iter()
            .flat_map(|w| w.jobs.iter())
            .map(|j| j.pen_depth)
            .sum()
    }

    /// The cluster-wide fault ledger (all workers merged).
    pub fn ledger(&self) -> FaultLedger {
        self.workers
            .iter()
            .fold(FaultLedger::default(), |acc, w| acc.merge(&w.ledger))
    }

    /// Prometheus text-exposition rendering: one gauge family per signal,
    /// labelled by worker/gpu/job. Byte-deterministic for a given
    /// snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let push_family = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
        };
        push_family(
            &mut out,
            "gflink_snapshot_time_ns",
            "Simulated instant of this snapshot",
        );
        let _ = writeln!(out, "gflink_snapshot_time_ns {}", self.at.as_nanos());
        push_family(&mut out, "gflink_live_jobs", "Jobs admitted to the fabric");
        let _ = writeln!(out, "gflink_live_jobs {}", self.live_jobs.len());
        push_family(
            &mut out,
            "gflink_usable_gpus",
            "Devices usable (healthy or degraded) per worker",
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "gflink_usable_gpus{{worker=\"{}\"}} {}",
                w.worker, w.usable_gpus
            );
        }
        push_family(
            &mut out,
            "gflink_device_health",
            "Device health level: 0 healthy, 1 degraded, 2 lost",
        );
        for d in self.workers.iter().flat_map(|w| w.devices.iter()) {
            let _ = writeln!(
                out,
                "gflink_device_health{{worker=\"{}\",gpu=\"{}\"}} {}",
                d.worker,
                d.gpu,
                d.state.as_level()
            );
        }
        push_family(
            &mut out,
            "gflink_device_utilization_permille",
            "Kernel-engine utilization over the elapsed horizon, in permille",
        );
        for d in self.workers.iter().flat_map(|w| w.devices.iter()) {
            let _ = writeln!(
                out,
                "gflink_device_utilization_permille{{worker=\"{}\",gpu=\"{}\"}} {}",
                d.worker,
                d.gpu,
                (d.utilization * 1000.0).round() as u64
            );
        }
        push_family(
            &mut out,
            "gflink_stream_queue_depth",
            "Works waiting in the device's stream queue",
        );
        for d in self.workers.iter().flat_map(|w| w.devices.iter()) {
            let _ = writeln!(
                out,
                "gflink_stream_queue_depth{{worker=\"{}\",gpu=\"{}\"}} {}",
                d.worker, d.gpu, d.queue_depth
            );
        }
        push_family(
            &mut out,
            "gflink_cache_used_bytes",
            "Bytes resident in the device cache across live jobs",
        );
        for d in self.workers.iter().flat_map(|w| w.devices.iter()) {
            let _ = writeln!(
                out,
                "gflink_cache_used_bytes{{worker=\"{}\",gpu=\"{}\"}} {}",
                d.worker, d.gpu, d.cache_used
            );
        }
        push_family(
            &mut out,
            "gflink_cache_budget_bytes",
            "Cache budget carved out on the device for live jobs",
        );
        for d in self.workers.iter().flat_map(|w| w.devices.iter()) {
            let _ = writeln!(
                out,
                "gflink_cache_budget_bytes{{worker=\"{}\",gpu=\"{}\"}} {}",
                d.worker, d.gpu, d.cache_budget
            );
        }
        push_family(
            &mut out,
            "gflink_job_pen_depth",
            "Submissions parked in the backpressure pen",
        );
        for w in &self.workers {
            for j in &w.jobs {
                let _ = writeln!(
                    out,
                    "gflink_job_pen_depth{{worker=\"{}\",job=\"{}\"}} {}",
                    w.worker, j.job, j.pen_depth
                );
            }
        }
        push_family(
            &mut out,
            "gflink_job_queued_bytes",
            "Bytes admitted but not yet dispatched (WFQ virtual queue)",
        );
        for w in &self.workers {
            for j in &w.jobs {
                let _ = writeln!(
                    out,
                    "gflink_job_queued_bytes{{worker=\"{}\",job=\"{}\"}} {}",
                    w.worker, j.job, j.queued_bytes
                );
            }
        }
        push_family(
            &mut out,
            "gflink_job_checkpoint_lag_ns",
            "Time since the job's last durable checkpoint (absent when off)",
        );
        for w in &self.workers {
            for j in &w.jobs {
                if let Some(lag) = j.checkpoint_lag {
                    let _ = writeln!(
                        out,
                        "gflink_job_checkpoint_lag_ns{{worker=\"{}\",job=\"{}\"}} {}",
                        w.worker,
                        j.job,
                        lag.as_nanos()
                    );
                }
            }
        }
        out
    }

    /// Deterministic JSON rendering of the full snapshot.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"t_ns\":{},\"live_jobs\":[", self.at.as_nanos());
        for (i, j) in self.live_jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{j}");
        }
        out.push_str("],\"workers\":[");
        for (wi, w) in self.workers.iter().enumerate() {
            if wi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"usable_gpus\":{},\"total_gpus\":{},\"devices\":[",
                w.worker, w.usable_gpus, w.total_gpus
            );
            for (di, d) in w.devices.iter().enumerate() {
                if di > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"gpu\":{},\"model\":\"{}\",\"state\":\"{}\",\
                     \"utilization_permille\":{},\"kernel_busy_ns\":{},\"copy_busy_ns\":{},\
                     \"queue_depth\":{},\"cache_used\":{},\"cache_budget\":{},\"works\":{}}}",
                    d.gpu,
                    d.model,
                    d.state.as_str(),
                    (d.utilization * 1000.0).round() as u64,
                    d.kernel_busy.as_nanos(),
                    d.copy_busy.as_nanos(),
                    d.queue_depth,
                    d.cache_used,
                    d.cache_budget,
                    d.works_executed
                );
            }
            out.push_str("],\"jobs\":[");
            for (ji, j) in w.jobs.iter().enumerate() {
                if ji > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"job\":{},\"weight\":{},\"pen_depth\":{},\"queued_bytes\":{}",
                    j.job, j.weight, j.pen_depth, j.queued_bytes
                );
                if let Some(lag) = j.checkpoint_lag {
                    let _ = write!(out, ",\"checkpoint_lag_ns\":{}", lag.as_nanos());
                }
                out.push('}');
            }
            let _ = write!(out, "],\"ledger\":{}}}", w.ledger.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for ClusterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster @ {} — {} live jobs, {}/{} gpus usable, {} penned",
            self.at,
            self.live_jobs.len(),
            self.usable_gpus(),
            self.total_gpus(),
            self.pen_depth()
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  worker{} ({}/{} gpus usable)",
                w.worker, w.usable_gpus, w.total_gpus
            )?;
            for d in &w.devices {
                writeln!(
                    f,
                    "    gpu{} {:<12} {:<14} util {:>5.1}%  queue {:<3} cache {}/{}",
                    d.gpu,
                    d.model,
                    d.state.to_string(),
                    d.utilization * 100.0,
                    d.queue_depth,
                    fmt_bytes(d.cache_used),
                    fmt_bytes(d.cache_budget)
                )?;
            }
            for j in &w.jobs {
                write!(
                    f,
                    "    job{} weight {} — pen {}, queued {}",
                    j.job,
                    j.weight,
                    j.pen_depth,
                    fmt_bytes(j.queued_bytes)
                )?;
                match j.checkpoint_lag {
                    Some(lag) => writeln!(f, ", ckpt lag {lag}")?,
                    None => writeln!(f)?,
                }
            }
            let l = &w.ledger;
            if !l.is_quiet() {
                writeln!(
                    f,
                    "    ledger: {} faults, {} lost, {} retries, {} steals, {} failed, \
                     {} joined/{} left",
                    l.faults_injected,
                    l.gpus_lost,
                    l.retries,
                    l.steals_on_drain,
                    l.works_failed,
                    l.members_joined,
                    l.members_left
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_bytes(b: u64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = b as f64;
    if b >= MIB {
        format!("{:.1} MiB", b / MIB)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ClusterSnapshot {
        ClusterSnapshot {
            at: SimTime::from_millis(5),
            live_jobs: vec![1, 2],
            workers: vec![WorkerSnapshot {
                worker: 0,
                usable_gpus: 1,
                total_gpus: 2,
                devices: vec![
                    DeviceSnapshot {
                        worker: 0,
                        gpu: 0,
                        model: "TeslaC2050".into(),
                        state: DeviceState::Healthy,
                        utilization: 0.42,
                        kernel_busy: SimTime::from_micros(420),
                        copy_busy: SimTime::from_micros(100),
                        queue_depth: 3,
                        cache_used: 4096,
                        cache_budget: 65536,
                        works_executed: 17,
                    },
                    DeviceSnapshot {
                        worker: 0,
                        gpu: 1,
                        model: "TeslaC2050".into(),
                        state: DeviceState::Lost,
                        utilization: 0.0,
                        kernel_busy: SimTime::ZERO,
                        copy_busy: SimTime::ZERO,
                        queue_depth: 0,
                        cache_used: 0,
                        cache_budget: 0,
                        works_executed: 2,
                    },
                ],
                jobs: vec![JobHealth {
                    job: 1,
                    weight: 3,
                    pen_depth: 4,
                    queued_bytes: 8192,
                    checkpoint_lag: Some(SimTime::from_millis(2)),
                }],
                ledger: FaultLedger {
                    gpus_lost: 1,
                    steals_on_drain: 2,
                    ..Default::default()
                },
            }],
        }
    }

    #[test]
    fn aggregates_roll_up_over_workers() {
        let s = snapshot();
        assert_eq!(s.usable_gpus(), 1);
        assert_eq!(s.total_gpus(), 2);
        assert_eq!(s.pen_depth(), 4);
        assert_eq!(s.ledger().gpus_lost, 1);
    }

    #[test]
    fn dashboard_renders_devices_jobs_and_ledger() {
        let text = format!("{}", snapshot());
        assert!(text.contains("2 live jobs, 1/2 gpus usable, 4 penned"));
        assert!(text.contains("gpu0 TeslaC2050"));
        assert!(text.contains("lost"));
        assert!(text.contains("util  42.0%"));
        assert!(text.contains("job1 weight 3 — pen 4, queued 8.0 KiB, ckpt lag"));
        assert!(text.contains("ledger: 0 faults, 1 lost"));
    }

    #[test]
    fn prometheus_export_is_labelled_and_stable() {
        let s = snapshot();
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE gflink_device_health gauge"));
        assert!(text.contains("gflink_device_health{worker=\"0\",gpu=\"1\"} 2"));
        assert!(text.contains("gflink_device_utilization_permille{worker=\"0\",gpu=\"0\"} 420"));
        assert!(text.contains("gflink_job_pen_depth{worker=\"0\",job=\"1\"} 4"));
        assert!(text.contains("gflink_job_checkpoint_lag_ns{worker=\"0\",job=\"1\"} 2000000"));
        assert_eq!(text, s.to_prometheus());
    }

    #[test]
    fn json_export_carries_the_full_view() {
        let s = snapshot();
        let json = s.to_json();
        assert!(json.contains("\"live_jobs\":[1,2]"));
        assert!(json.contains("\"state\":\"lost\""));
        assert!(json.contains("\"checkpoint_lag_ns\":2000000"));
        assert!(json.contains("\"gpus_lost\":1"));
        assert_eq!(json, s.to_json());
    }
}
