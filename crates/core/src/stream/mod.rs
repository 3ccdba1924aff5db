//! The DataStream layer: streaming execution over the GPU fabric — the
//! paper's declared future direction.
//!
//! §1 justifies building on Flink (rather than Spark) by "the needs of
//! future expansion for a better streaming processing implementation":
//! Flink treats batch as a special case of streaming. This module supplies
//! that expansion as a real DataStream API:
//!
//! * [`StreamSource`] — rate-controlled deterministic sources, chopped
//!   into micro-batches (the natural GPU block granularity of §5.1).
//! * [`StreamEnv`] — the single engine-parameterized entry point: a typed
//!   builder (`source → timestamps → key_by → window → aggregate → run`)
//!   lowering onto the existing `JobHandle`/`GpuMapSpec` machinery, so
//!   admission, backpressure pens, WFQ arbitration and the hybrid cost
//!   model all apply to streams unchanged.
//! * Event time ([`WatermarkStrategy`], [`WatermarkStamp`]): per-record
//!   timestamps, bounded-out-of-orderness watermarks advanced per
//!   micro-batch, and late-record routing.
//! * Keyed windows ([`Tumbling`], [`Sliding`], [`Session`]) whose operator
//!   state checkpoints through the fabric's
//!   [`CheckpointManager`](crate::CheckpointManager) (DESIGN.md §17).
//!
//! Per-batch (or per-window) latency — completion minus arrival (or fire
//! instant) — is the quantity of interest: a stable latency profile means
//! the operator sustains the offered rate; a diverging one means
//! backpressure. Everything is deterministic: a run is a pure function of
//! `(seed, FaultPlan)`, and [`WindowedRun::digest`] is bit-identical
//! across engines, placement policies, fault plans, concurrency and
//! crash→restore boundaries.

mod env;
mod source;
mod time;
mod window;

pub use env::{
    CpuMapPipeline, DataStream, KeyedStream, MapPipeline, StreamEnv, WindowPipeline, WindowedRun,
    WindowedStream,
};
pub use source::StreamSource;
pub use time::{watermark_digest, WatermarkStamp, WatermarkStrategy};
pub use window::{
    output_digest, AggOp, AggResult, AggSpec, Session, Sliding, Tumbling, WindowAssigner,
    WindowOutput, WindowSpan,
};

use crate::gdst::SpecError;
use crate::jobsched::AdmissionError;
use crate::recovery::FailReason;
use gflink_sim::{Samples, SimTime};

/// Why a stream pipeline refused to run — configuration errors surfaced
/// as typed values at build time instead of panics mid-stream.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// A source would emit zero micro-batches (rate × duration rounds
    /// down to nothing at the configured batch size).
    EmptySource {
        /// Index of the offending source, in registration order.
        source: usize,
    },
    /// An event-time operation (windowing) was requested but the stream
    /// has no timestamp assigner.
    NoTimestamps,
    /// The pipeline stage requires the other engine.
    WrongEngine {
        /// The engine the stage needs (`"cpu"` or `"gpu"`).
        needed: &'static str,
    },
    /// A kernel map over a stream was given a spec that caches its input
    /// blocks. Every micro-batch is transient — seen once, keyed by
    /// nothing a later batch shares — so a stream map takes only an
    /// `.uncached()` spec rather than silently dropping the flag.
    CachedInput,
    /// The GPU kernel spec failed validation.
    Spec(SpecError),
    /// The fabric refused the job at admission.
    Admission(AdmissionError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::EmptySource { source } => {
                write!(f, "source {source} emits zero micro-batches")
            }
            StreamError::NoTimestamps => {
                write!(f, "windowing requires timestamps(..) on the stream")
            }
            StreamError::WrongEngine { needed } => {
                write!(f, "pipeline stage requires the {needed} engine")
            }
            StreamError::CachedInput => {
                write!(
                    f,
                    "stream micro-batches are transient: the map spec must be uncached"
                )
            }
            StreamError::Spec(e) => write!(f, "kernel spec rejected: {e:?}"),
            StreamError::Admission(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SpecError> for StreamError {
    fn from(e: SpecError) -> Self {
        StreamError::Spec(e)
    }
}

impl From<AdmissionError> for StreamError {
    fn from(e: AdmissionError) -> Self {
        StreamError::Admission(e)
    }
}

/// A micro-batch (or fired window) that terminally failed — retries and
/// CPU fallback both exhausted. Surfaced in the report instead of
/// panicking the driver.
#[derive(Clone, Debug)]
pub struct LostBatch {
    /// The batch index (map pipelines) or window fire sequence (window
    /// pipelines).
    pub index: usize,
    /// Worker whose manager abandoned it.
    pub worker: usize,
    /// Why it was abandoned.
    pub reason: FailReason,
    /// When it was abandoned.
    pub failed_at: SimTime,
}

/// Latency/throughput report for one streaming run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Micro-batches (map) or windows (windowed) processed to completion.
    pub batches: usize,
    /// Per-unit latencies, exact and in completion order: `mean()` in
    /// seconds, nearest-rank `p50()`/`p95()`/`p99()` for SLO-style
    /// reporting.
    pub latency: Samples,
    /// Latency of the final unit — diverges under backpressure.
    pub last_latency: SimTime,
    /// When the last unit completed (or terminally failed).
    pub finished_at: SimTime,
    /// Units lost to terminal failures (device loss past every retry and
    /// fallback). Empty on a healthy run.
    pub lost: Vec<LostBatch>,
    /// Event-time records routed late (windowed pipelines only).
    pub late_records: u64,
    /// Submissions parked in the backpressure pen (GPU engine only).
    pub parked_works: u64,
    /// Total simulated time submissions sat penned before release.
    pub park_delay: SimTime,
}

impl StreamReport {
    /// The report of a run whose units completed with `latency`, the last
    /// of them at `finished_at`, and nothing was lost, late or penned.
    pub(crate) fn new(latency: Samples, finished_at: SimTime) -> StreamReport {
        StreamReport {
            batches: latency.len(),
            last_latency: latency.last(),
            latency,
            finished_at,
            lost: Vec::new(),
            late_records: 0,
            parked_works: 0,
            park_delay: SimTime::ZERO,
        }
    }

    /// Whether the operator kept up: the last unit's latency is within
    /// `factor` of the mean (no queue growth). A run whose mean latency is
    /// zero (nothing completed, or all-zero latencies) is sustained iff
    /// the last latency is also zero — no division by zero.
    pub fn sustained(&self, factor: f64) -> bool {
        let mean = self.latency.mean();
        if mean <= 0.0 {
            return self.last_latency.is_zero();
        }
        self.last_latency.as_secs_f64() <= mean * factor
    }

    /// Effective throughput, logical records per second.
    pub fn throughput(&self, source: &StreamSource) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        source.batch_logical() as f64 * self.batches as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdst::{FabricConfig, GRecord, GpuFabric, GpuMapSpec, OutMode};
    use crate::recovery::CpuFallback;
    use gflink_gpu::{KernelArgs, KernelProfile};
    use gflink_memory::{gstruct, DataLayout, RecordReader, RecordView};
    use gflink_sim::{FaultKind, FaultPlan};

    gstruct! {
        #[derive(Clone, Debug, PartialEq)]
        struct Sample: Align4 {
            v: f32,
        }
    }

    fn fabric_with(workers: usize, cfg: FabricConfig) -> GpuFabric {
        let f = GpuFabric::new(workers, cfg);
        f.register_kernel("streamDouble", |args: &mut KernelArgs<'_, '_>| {
            let def = Sample::def();
            let n = args.n_actual;
            let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
            let out_buf = &mut args.outputs[0];
            let mut out = RecordView::new(out_buf, def, DataLayout::Aos, n);
            for i in 0..n {
                out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
            }
            KernelProfile::new(args.n_logical as f64 * 200.0, args.n_logical as f64 * 8.0)
        });
        f
    }

    fn source(rate: f64) -> StreamSource {
        StreamSource::at_rate(rate).for_duration(SimTime::from_secs(5))
    }

    #[test]
    fn lost_map_batches_surface_instead_of_panicking() {
        // Kill every GPU on worker 0 mid-stream with CPU fallback disabled:
        // the map pipeline must complete and report the losses.
        let mut cfg = FabricConfig::default();
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: false,
            ..CpuFallback::default()
        };
        let f = fabric_with(2, cfg);
        f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new()
                    .with(SimTime::from_millis(400), FaultKind::GpuLost { gpu: 0 })
                    .with(SimTime::from_millis(400), FaultKind::GpuLost { gpu: 1 }),
            );
        });
        let spec = GpuMapSpec::new("streamDouble")
            .uncached()
            .with_out_mode(OutMode::PerRecord);
        let report = StreamEnv::gpu(&f)
            .source(source(20_000_000.0), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(spec)
            .run_each(|_, _| {})
            .expect("stream job admitted");
        assert!(
            !report.lost.is_empty(),
            "batches on the dead worker must surface as lost"
        );
        assert!(report.batches + report.lost.len() == source(20_000_000.0).num_batches());
        for l in &report.lost {
            assert_eq!(l.worker, 0, "only the killed worker loses batches");
        }
    }

    #[test]
    fn sustained_guard_handles_zero_mean() {
        let mut r = StreamReport::new(Samples::new(), SimTime::ZERO);
        assert!(r.sustained(1.5));
        r.last_latency = SimTime::from_millis(5);
        assert!(!r.sustained(1.5), "nonzero last over zero mean diverges");
    }
}
