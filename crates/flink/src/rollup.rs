//! Per-job GPU rollups: the observability summary folded into a
//! [`crate::JobReport`].
//!
//! While the tracer (`gflink_sim::trace`) records *individual* spans for
//! offline timeline inspection, the rollup keeps *aggregate* statistics
//! cheap enough to compute on every job: per-stage time histograms
//! ([`gflink_sim::LogHistogram`]: one entry per work in fixed-size
//! storage, exact count, sum, min and max, deterministic p50/p95/p99),
//! cache hit rate, bytes moved per channel, work-steal counts, and
//! per-device busy/utilization lanes. The drain loop feeds one
//! [`GpuWorkSample`] per completed `GWork` as it drains the managers,
//! plus one [`GpuLane`] per device at job teardown.

use gflink_sim::{LogHistogram, Samples, SimTime};
use std::fmt;

/// Per-work observation fed into the rollup by the drain loop.
#[derive(Clone, Copy, Debug)]
pub struct GpuWorkSample {
    /// Worker that executed the work.
    pub worker: usize,
    /// Device index within the worker, `None` for a CPU fallback.
    pub gpu: Option<usize>,
    /// Time queued before a stream picked the work up.
    pub queued: SimTime,
    /// H2D transfer time (zero on a full cache hit).
    pub h2d: SimTime,
    /// Kernel execution time.
    pub kernel: SimTime,
    /// D2H transfer time.
    pub d2h: SimTime,
    /// Submission-to-completion time.
    pub total: SimTime,
    /// Cache hits among the work's inputs.
    pub cache_hits: u32,
    /// Cache misses among the work's cacheable inputs.
    pub cache_misses: u32,
    /// Logical bytes copied host→device.
    pub bytes_h2d: u64,
    /// Logical bytes copied device→host.
    pub bytes_d2h: u64,
}

/// Per-device activity over the job's run, reported at teardown.
#[derive(Clone, Copy, Debug)]
pub struct GpuLane {
    /// Worker index.
    pub worker: usize,
    /// Device index within the worker.
    pub gpu: usize,
    /// Works this device completed for the job.
    pub works: u64,
    /// Cumulative kernel-engine busy time.
    pub kernel_busy: SimTime,
    /// Cumulative copy-engine busy time (both directions).
    pub copy_busy: SimTime,
    /// Kernel-engine utilization over the job's report window.
    pub utilization: f64,
}

/// Aggregate GPU-side statistics for one job.
#[derive(Clone, Debug, Default)]
pub struct GpuRollup {
    /// Works completed on a GPU.
    pub works: u64,
    /// Works completed on the host CPU pool — the all-GPUs-lost fallback
    /// path or a hybrid cost-model placement (see `hybrid_cpu`).
    pub cpu_works: u64,
    /// Queueing-time histogram.
    pub queue: LogHistogram,
    /// H2D-stage histogram.
    pub h2d: LogHistogram,
    /// Kernel-stage histogram.
    pub kernel: LogHistogram,
    /// D2H-stage histogram.
    pub d2h: LogHistogram,
    /// Submission-to-completion histogram.
    pub total: LogHistogram,
    /// Time submissions sat in the backpressure pen, one entry per release
    /// (merged in at teardown from the sessions' pen histograms).
    pub pen: LogHistogram,
    /// Cache hits across all works.
    pub cache_hits: u64,
    /// Cache misses across all works.
    pub cache_misses: u64,
    /// Logical bytes moved host→device.
    pub bytes_h2d: u64,
    /// Logical bytes moved device→host.
    pub bytes_d2h: u64,
    /// Alg. 5.2 steals that served this job's works.
    pub steals: u64,
    /// Fair-share weight the job ran under (0 when the job never went
    /// through the session-scoped fabric API).
    pub weight: u32,
    /// Submissions parked by queued-bytes backpressure before dispatch.
    pub parked_works: u64,
    /// Total simulated time submissions sat in the backpressure pen.
    pub park_delay: SimTime,
    /// Pinned-pool staging acquisitions served by a recycled buffer.
    pub pinned_hits: u64,
    /// Pinned-pool staging acquisitions that registered a fresh buffer.
    pub pinned_misses: u64,
    /// Bytes staged through the pinned pool.
    pub pinned_bytes: u64,
    /// Fused transfer batches dispatched under backlog.
    pub batches: u64,
    /// Works that rode a fused batch instead of a solo dispatch.
    pub batched_works: u64,
    /// Per-copy setup time (α) amortized away by fusing transfers.
    pub alpha_saved: SimTime,
    /// Checkpoints snapshotted to HDFS for this job.
    pub checkpoints: u64,
    /// Encoded snapshot bytes written across those checkpoints.
    pub checkpoint_bytes: u64,
    /// Operator invocations that found a durable snapshot and restored it.
    pub restores: u64,
    /// Operator invocations that refused a corrupt or broken snapshot and
    /// replayed from zero.
    pub restores_refused: u64,
    /// Works satisfied from a restored snapshot instead of executing.
    pub works_restored: u64,
    /// Per restored operator: simulated time from the snapshot's restore
    /// landing to the replayed delta's completion — what resuming actually
    /// cost, versus re-running the whole operator.
    pub recovery_delta: Samples,
    /// Works the hybrid cost model placed on a GPU (host was a live
    /// candidate but predicted slower).
    pub hybrid_gpu: u64,
    /// Works the hybrid cost model placed on the host CPU pool by choice
    /// (distinct from `cpu_works`, the all-GPUs-lost fallback).
    pub hybrid_cpu: u64,
    /// Blocks the hybrid cost model split across CPU and GPU near parity.
    pub hybrid_splits: u64,
    /// Predicted-vs-observed relative error per hybrid completion, in
    /// basis points (1/100 of a percent).
    pub hybrid_err: LogHistogram,
    /// Trace events the tracer's ring dropped during the job — nonzero
    /// means the Chrome timeline is incomplete.
    pub trace_dropped: u64,
    /// Per-device activity lanes, in (worker, gpu) order.
    pub lanes: Vec<GpuLane>,
}

impl GpuRollup {
    /// Fold one completed work into the rollup.
    pub fn record(&mut self, s: &GpuWorkSample) {
        match s.gpu {
            Some(_) => self.works += 1,
            None => self.cpu_works += 1,
        }
        self.queue.record(s.queued);
        self.h2d.record(s.h2d);
        self.kernel.record(s.kernel);
        self.d2h.record(s.d2h);
        self.total.record(s.total);
        self.cache_hits += s.cache_hits as u64;
        self.cache_misses += s.cache_misses as u64;
        self.bytes_h2d += s.bytes_h2d;
        self.bytes_d2h += s.bytes_d2h;
    }

    /// The per-work latency histograms in render order as `(name,
    /// histogram)` pairs: end to end, then every stage a work passes.
    pub fn stages(&self) -> [(&'static str, &LogHistogram); 6] {
        [
            ("total", &self.total),
            ("queued", &self.queue),
            ("pen", &self.pen),
            ("h2d", &self.h2d),
            ("kernel", &self.kernel),
            ("d2h", &self.d2h),
        ]
    }

    /// Mean works per fused batch (0 when nothing was fused).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_works as f64 / self.batches as f64
        }
    }

    /// GPU cache hit rate over cacheable lookups, in `[0, 1]`.
    /// Returns 0.0 when no lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// True when no work was recorded (CPU-only job). A job fully covered
    /// by a restored checkpoint executed nothing, but its rollup still
    /// carries the restore accounting — not empty.
    pub fn is_empty(&self) -> bool {
        self.works == 0 && self.cpu_works == 0 && self.works_restored == 0
    }

    /// Pinned staging pool hit rate in `[0, 1]`; 0.0 when the pool was
    /// never used (pageable mode, or no H2D misses).
    pub fn pinned_hit_rate(&self) -> f64 {
        let acquisitions = self.pinned_hits + self.pinned_misses;
        if acquisitions == 0 {
            0.0
        } else {
            self.pinned_hits as f64 / acquisitions as f64
        }
    }

    /// Single-line digest for compact logs.
    pub fn one_line(&self) -> String {
        format!(
            "{} works ({} on cpu), cache {:.0}% hit, {} H2D / {} D2H, {} steals",
            self.works,
            self.cpu_works,
            self.hit_rate() * 100.0,
            fmt_bytes(self.bytes_h2d),
            fmt_bytes(self.bytes_d2h),
            self.steals,
        )
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

fn fmt_ms(secs: f64) -> String {
    format!("{:.3} ms", secs * 1e3)
}

impl fmt::Display for GpuRollup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gpu rollup: {} works on GPU, {} on CPU, {} steals",
            self.works, self.cpu_works, self.steals
        )?;
        writeln!(
            f,
            "  cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "  bytes: {} host→device, {} device→host",
            fmt_bytes(self.bytes_h2d),
            fmt_bytes(self.bytes_d2h)
        )?;
        if self.pinned_hits + self.pinned_misses > 0 {
            writeln!(
                f,
                "  pinned pool: {} hits / {} misses ({:.1}% hit rate), {} staged",
                self.pinned_hits,
                self.pinned_misses,
                self.pinned_hit_rate() * 100.0,
                fmt_bytes(self.pinned_bytes)
            )?;
        }
        if self.batches > 0 {
            writeln!(
                f,
                "  batching: {} works fused into {} batches (mean {:.1}/batch), α saved {}",
                self.batched_works,
                self.batches,
                self.mean_batch_size(),
                self.alpha_saved
            )?;
        }
        if self.parked_works > 0 {
            writeln!(
                f,
                "  backpressure: {} works parked (weight {}), pen delay {}",
                self.parked_works, self.weight, self.park_delay
            )?;
        }
        if self.checkpoints > 0 {
            writeln!(
                f,
                "  checkpointing: {} snapshots ({})",
                self.checkpoints,
                fmt_bytes(self.checkpoint_bytes),
            )?;
        }
        if self.restores > 0 {
            writeln!(
                f,
                "  restores: {} covering {} works, replay delta mean {}",
                self.restores,
                self.works_restored,
                fmt_ms(self.recovery_delta.mean()),
            )?;
        }
        if self.restores_refused > 0 {
            writeln!(
                f,
                "  refused restores: {} (replayed from zero)",
                self.restores_refused
            )?;
        }
        if self.hybrid_gpu + self.hybrid_cpu + self.hybrid_splits > 0 {
            write!(
                f,
                "  hybrid placement: {} gpu, {} cpu, {} split",
                self.hybrid_gpu, self.hybrid_cpu, self.hybrid_splits
            )?;
            if self.hybrid_err.count() > 0 {
                write!(
                    f,
                    ", model error p50 {:.2}% p95 {:.2}%",
                    self.hybrid_err.p50().as_nanos() as f64 / 100.0,
                    self.hybrid_err.p95().as_nanos() as f64 / 100.0
                )?;
            }
            writeln!(f)?;
        }
        if self.trace_dropped > 0 {
            writeln!(
                f,
                "  WARNING: {} trace events dropped (timeline incomplete)",
                self.trace_dropped
            )?;
        }
        writeln!(f, "  stage        mean        max        total")?;
        for (name, s) in [
            ("queue", &self.queue),
            ("h2d", &self.h2d),
            ("kernel", &self.kernel),
            ("d2h", &self.d2h),
            ("total", &self.total),
        ] {
            writeln!(
                f,
                "  {name:<8} {:>11} {:>10} {:>12}",
                fmt_ms(s.mean()),
                fmt_ms(s.max().as_secs_f64()),
                fmt_ms(s.sum_nanos() as f64 / 1e9),
            )?;
        }
        if self.total.count() > 0 {
            writeln!(f, "  slo          p50         p95         p99")?;
            for (name, h) in self.stages() {
                if h.count() == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {name:<8} {:>11} {:>11} {:>11}",
                    fmt_ms(h.p50().as_secs_f64()),
                    fmt_ms(h.p95().as_secs_f64()),
                    fmt_ms(h.p99().as_secs_f64()),
                )?;
            }
        }
        for lane in &self.lanes {
            writeln!(
                f,
                "  worker{}/gpu{}: {} works, kernel busy {}, copy busy {}, util {:.1}%",
                lane.worker,
                lane.gpu,
                lane.works,
                lane.kernel_busy,
                lane.copy_busy,
                lane.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gpu: Option<usize>, hits: u32, misses: u32) -> GpuWorkSample {
        GpuWorkSample {
            worker: 0,
            gpu,
            queued: SimTime::from_micros(10),
            h2d: SimTime::from_micros(100),
            kernel: SimTime::from_micros(200),
            d2h: SimTime::from_micros(50),
            total: SimTime::from_micros(360),
            cache_hits: hits,
            cache_misses: misses,
            bytes_h2d: 1024,
            bytes_d2h: 512,
        }
    }

    #[test]
    fn record_accumulates() {
        let mut r = GpuRollup::default();
        assert!(r.is_empty());
        r.record(&sample(Some(0), 1, 0));
        r.record(&sample(Some(1), 0, 1));
        r.record(&sample(None, 0, 0));
        assert!(!r.is_empty());
        assert_eq!(r.works, 2);
        assert_eq!(r.cpu_works, 1);
        assert_eq!(r.cache_hits, 1);
        assert_eq!(r.cache_misses, 1);
        assert_eq!(r.bytes_h2d, 3 * 1024);
        assert_eq!(r.bytes_d2h, 3 * 512);
        assert_eq!(r.kernel.count(), 3);
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_guards_zero_lookups() {
        let r = GpuRollup::default();
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn display_renders_all_sections() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 2, 1));
        r.steals = 4;
        r.lanes.push(GpuLane {
            worker: 0,
            gpu: 0,
            works: 1,
            kernel_busy: SimTime::from_micros(200),
            copy_busy: SimTime::from_micros(150),
            utilization: 0.5,
        });
        let text = format!("{r}");
        assert!(text.contains("4 steals"));
        assert!(text.contains("66.7% hit rate"));
        assert!(text.contains("kernel"));
        assert!(text.contains("worker0/gpu0"));
        assert!(text.contains("util 50.0%"));
        // Transfer sections are gated on activity: quiet by default.
        assert!(!text.contains("pinned pool"));
        assert!(!text.contains("batching"));
        assert!(!text.contains("backpressure"));
        assert!(!text.contains("checkpointing"));
        assert!(!text.contains("restores:"));
        assert!(!text.contains("hybrid placement"));
        assert!(!text.contains("WARNING"));
        // SLO percentiles render whenever works were recorded.
        assert!(text.contains("slo"));
        assert!(text.contains("p95"));
    }

    #[test]
    fn display_gates_checkpoints_and_restores_independently() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.checkpoints = 2;
        r.checkpoint_bytes = 1024;
        let text = format!("{r}");
        assert!(text.contains("checkpointing: 2 snapshots (1.0 KiB)"));
        // No restore happened: no restore line, no zero-filled fields.
        assert!(!text.contains("restores:"));
        assert!(!text.contains("0 restores"));

        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.restores = 1;
        r.works_restored = 7;
        r.recovery_delta.push(SimTime::from_millis(4));
        let text = format!("{r}");
        assert!(!text.contains("checkpointing"));
        assert!(text.contains("restores: 1 covering 7 works, replay delta mean 4.000 ms"));
        assert!(!text.contains("refused"));

        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.restores_refused = 2;
        let text = format!("{r}");
        assert!(text.contains("refused restores: 2 (replayed from zero)"));
        assert!(!text.contains("covering"));
    }

    #[test]
    fn display_warns_on_dropped_trace_events() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.trace_dropped = 12;
        let text = format!("{r}");
        assert!(text.contains("WARNING: 12 trace events dropped"));
    }

    #[test]
    fn record_feeds_stage_histograms() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 1, 0));
        r.record(&sample(Some(1), 1, 0));
        assert_eq!(r.total.count(), 2);
        assert_eq!(r.kernel.count(), 2);
        // Deterministic exact percentile on identical samples: the p99
        // equals the recorded value's bucket upper clamped to the max.
        assert_eq!(r.total.p99(), r.total.max());
        assert_eq!(r.total.max().as_nanos(), 360_000);
        assert_eq!(r.total.mean(), 360e-6);
        let names = r.stages().map(|(name, _)| name);
        assert_eq!(names, ["total", "queued", "pen", "h2d", "kernel", "d2h"]);
    }

    #[test]
    fn default_rollup_reads_the_true_stage_minimum() {
        let mut r = GpuRollup::default();
        let mut fast = sample(Some(0), 0, 1);
        fast.queued = SimTime::from_micros(3);
        fast.h2d = SimTime::from_micros(40);
        fast.kernel = SimTime::from_micros(90);
        fast.d2h = SimTime::from_micros(20);
        fast.total = SimTime::from_micros(153);
        r.record(&sample(Some(0), 0, 1));
        r.record(&fast);
        let us = SimTime::from_micros;
        assert_eq!(r.queue.min(), us(3));
        assert_eq!(r.h2d.min(), us(40));
        assert_eq!(r.kernel.min(), us(90));
        assert_eq!(r.d2h.min(), us(20));
        assert_eq!(r.total.min(), us(153));
        assert_eq!(r.queue.max(), us(10));
    }

    #[test]
    fn display_renders_checkpointing_when_active() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.checkpoints = 3;
        r.checkpoint_bytes = 2048;
        r.restores = 1;
        r.works_restored = 7;
        r.recovery_delta.push(SimTime::from_millis(4));
        let text = format!("{r}");
        assert!(text.contains("checkpointing: 3 snapshots (2.0 KiB)"));
        assert!(text.contains("restores: 1 covering 7 works"));
        assert!(text.contains("replay delta mean 4.000 ms"));
    }

    #[test]
    fn display_renders_backpressure_when_parked() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.weight = 3;
        r.parked_works = 5;
        r.park_delay = SimTime::from_micros(120);
        let text = format!("{r}");
        assert!(text.contains("backpressure: 5 works parked (weight 3)"));
    }

    #[test]
    fn display_renders_transfer_sections_when_active() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 2));
        r.pinned_hits = 3;
        r.pinned_misses = 1;
        r.pinned_bytes = 4096;
        r.batches = 2;
        r.batched_works = 6;
        r.alpha_saved = SimTime::from_micros(8);
        let text = format!("{r}");
        assert!(text.contains("pinned pool: 3 hits / 1 misses (75.0% hit rate)"));
        assert!(text.contains("6 works fused into 2 batches (mean 3.0/batch)"));
        assert_eq!(r.mean_batch_size(), 3.0);
        assert_eq!(GpuRollup::default().mean_batch_size(), 0.0);
        assert!((r.pinned_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_renders_hybrid_placement_when_active() {
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.hybrid_gpu = 5;
        r.hybrid_cpu = 3;
        r.hybrid_splits = 1;
        // 250 bp = 2.50%, recorded twice so p50 and p95 land on the
        // same bucket upper bound.
        r.hybrid_err.record_nanos(250);
        r.hybrid_err.record_nanos(250);
        let text = format!("{r}");
        assert!(text.contains("hybrid placement: 5 gpu, 3 cpu, 1 split"));
        assert!(text.contains("model error p50"));

        // Counters without error samples still render the counts line.
        let mut r = GpuRollup::default();
        r.record(&sample(Some(0), 0, 1));
        r.hybrid_gpu = 2;
        let text = format!("{r}");
        assert!(text.contains("hybrid placement: 2 gpu, 0 cpu, 0 split"));
        assert!(!text.contains("model error"));
    }

    #[test]
    fn pinned_hit_rate_guards_zero_acquisitions() {
        let r = GpuRollup::default();
        assert_eq!(r.pinned_hit_rate(), 0.0);
    }
}
