//! Per-job sessions: the unit of tenant isolation on a shared fabric.
//!
//! The paper gives every job its own GPU cache region (§4.2.2: "a cache
//! region is created when a job starts and released when it finishes").
//! [`JobSession`] generalizes that rule to *all* mutable per-job state the
//! GPUManager holds: the cache regions, the not-yet-drained submissions,
//! the completions and structured failures, and the job's fault/recovery
//! ledger. A session is created by `GpuManager::begin_job` and destroyed by
//! `GpuManager::end_job`, so when a job finishes nothing of it can leak
//! into the next tenant on the same devices.

use crate::cache::GpuCache;
use crate::gwork::{CompletedWork, GWork};
use crate::recovery::FailedWork;
use gflink_sim::{
    FaultLedger, FlightRecorder, LedgerWindow, LogHistogram, RecEvent, RecKind, SimTime,
};
use std::collections::BTreeSet;

/// Identity of one submitted job on a worker's GPU manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// All mutable per-job state on one worker's GPU manager.
pub struct JobSession {
    /// One GPU cache region per device (§4.2.2) — eviction pressure from
    /// this job can only evict this job's blocks.
    pub(crate) regions: Vec<GpuCache>,
    /// Works submitted but not yet picked up by a drain.
    pub(crate) pending: Vec<(SimTime, GWork)>,
    /// Completions waiting to be taken by this job's drain.
    pub(crate) completed: Vec<CompletedWork>,
    /// Works the manager gave up on, in failure order.
    pub(crate) failed: Vec<FailedWork>,
    /// The job's fault/recovery counters, with a delta mark for reporting.
    pub(crate) ledger: LedgerWindow,
    /// Alg. 5.2 steals that served this job's works.
    pub(crate) steals: u64,
    /// Fused transfer batches that carried this job's works.
    pub(crate) batches: u64,
    /// Works that travelled inside fused batches.
    pub(crate) batched_works: u64,
    /// Per-call transfer overhead (α) saved by fusing this job's copies.
    pub(crate) alpha_saved: SimTime,
    /// Fair-share weight under weighted-fair arbitration and cache
    /// partitioning (1 = baseline tenant).
    pub(crate) weight: u32,
    /// Submissions parked in the backpressure pen (queued-bytes cap).
    pub(crate) parked_works: u64,
    /// Total simulated time this job's works sat penned before release.
    pub(crate) park_delay: SimTime,
    /// Tags covered by a restored checkpoint: a submission carrying one
    /// of these is satisfied from the snapshot (counted as
    /// `works_restored`) instead of executing — the exactly-once dedup
    /// across the restore boundary.
    pub(crate) covered: BTreeSet<(u32, u32)>,
    /// The job's flight recorder: a bounded ring of recent structured
    /// fault/recovery events. Only fed while the metrics plane is
    /// enabled, so the default path allocates and pays nothing.
    pub(crate) recorder: FlightRecorder,
    /// Pen-delay histogram (per release, not the cumulative `park_delay`),
    /// merged into the job's rollup at teardown.
    pub(crate) pen_hist: LogHistogram,
    /// Works the hybrid cost model routed to a GPU (it would have chosen
    /// the host otherwise; Alg. 5.1 picked the device).
    pub(crate) hybrid_gpu: u64,
    /// Works the hybrid cost model routed to the host CPU pool by choice
    /// (distinct from `cpu_fallbacks`, the no-GPU-left path).
    pub(crate) hybrid_cpu: u64,
    /// Blocks the hybrid cost model split across CPU and GPU.
    pub(crate) hybrid_splits: u64,
    /// Relative prediction error per hybrid-placed completion, in basis
    /// points (1/100 of a percent) — the observed-vs-predicted gauge.
    pub(crate) hybrid_err: LogHistogram,
}

impl JobSession {
    pub(crate) fn new(regions: Vec<GpuCache>, weight: u32) -> Self {
        JobSession {
            regions,
            pending: Vec::new(),
            completed: Vec::new(),
            failed: Vec::new(),
            ledger: LedgerWindow::default(),
            steals: 0,
            batches: 0,
            batched_works: 0,
            alpha_saved: SimTime::ZERO,
            weight: weight.max(1),
            parked_works: 0,
            park_delay: SimTime::ZERO,
            covered: BTreeSet::new(),
            recorder: FlightRecorder::default(),
            pen_hist: LogHistogram::new(),
            hybrid_gpu: 0,
            hybrid_cpu: 0,
            hybrid_splits: 0,
            hybrid_err: LogHistogram::new(),
        }
    }

    /// The job's recent flight-recorder events, oldest first (empty when
    /// the metrics plane is off).
    pub fn flight_events(&self) -> Vec<RecEvent> {
        self.recorder.events()
    }

    /// Flight-recorder events of `kind` this job ever recorded, including
    /// those the bounded ring has since evicted.
    pub fn flight_recorded(&self, kind: RecKind) -> u64 {
        self.recorder.recorded(kind)
    }

    /// Pen-delay histogram over this job's released penned works.
    pub fn pen_histogram(&self) -> &LogHistogram {
        &self.pen_hist
    }

    /// Works the hybrid cost model placed on a GPU.
    pub fn hybrid_gpu(&self) -> u64 {
        self.hybrid_gpu
    }

    /// Works the hybrid cost model placed on the host CPU pool by choice.
    pub fn hybrid_cpu(&self) -> u64 {
        self.hybrid_cpu
    }

    /// Blocks the hybrid cost model split across CPU and GPU.
    pub fn hybrid_splits(&self) -> u64 {
        self.hybrid_splits
    }

    /// Relative prediction-error histogram (basis points) over this job's
    /// hybrid-placed completions.
    pub fn hybrid_err(&self) -> &LogHistogram {
        &self.hybrid_err
    }

    /// Tags this session will satisfy from a restored checkpoint.
    pub fn covered_tags(&self) -> &BTreeSet<(u32, u32)> {
        &self.covered
    }

    /// Fair-share weight under weighted-fair arbitration (1 = baseline).
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Submissions parked in the backpressure pen (queued-bytes cap).
    pub fn parked_works(&self) -> u64 {
        self.parked_works
    }

    /// Total simulated time this job's works sat penned before release.
    pub fn park_delay(&self) -> SimTime {
        self.park_delay
    }

    /// Alg. 5.2 steals that served this job's works.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Fused transfer batches that carried this job's works.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Works that travelled inside fused batches.
    pub fn batched_works(&self) -> u64 {
        self.batched_works
    }

    /// Per-call transfer overhead (α) saved by fusing this job's copies.
    pub fn alpha_saved(&self) -> SimTime {
        self.alpha_saved
    }

    /// The job's cache region on device `gpu`.
    pub fn region(&self, gpu: usize) -> &GpuCache {
        &self.regions[gpu]
    }

    /// Works this job gave up on, in failure order.
    pub fn failed(&self) -> &[FailedWork] {
        &self.failed
    }

    /// The job's cumulative fault/recovery ledger.
    pub fn faults(&self) -> FaultLedger {
        self.ledger.total()
    }
}
