#![warn(missing_docs)]

//! # gflink-sim
//!
//! Deterministic timeline / discrete-event simulation kernel used by every
//! other GFlink crate.
//!
//! The GFlink reproduction executes all computation for real (kernels run as
//! Rust functions over raw byte buffers) but reports *simulated* durations:
//! every hardware resource in the modelled cluster — CPU task slots, GPU
//! kernel engines, PCIe copy engines, NICs, disks — is a [`Timeline`] that
//! serializes reservations, and dynamic decisions (scheduling, work stealing,
//! cache eviction) are ordered by an [`EventQueue`].
//!
//! Design goals:
//! * **Determinism** — identical inputs and seeds produce bit-identical
//!   simulated times. No wall clocks, no `HashMap` iteration order in any
//!   time-relevant path.
//! * **Composability** — higher layers build pipelines out of `reserve`
//!   calls; three-stage H2D/K/D2H pipelining falls out of per-engine
//!   timelines rather than ad-hoc formulas.
//! * **Accountability** — the [`accounting`] module records named phase
//!   spans so the paper's Eq. (1) decomposition can be reported per job.

pub mod accounting;
pub mod cost;
pub mod events;
pub mod faults;
pub mod host;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;

pub use accounting::{Accounting, Phase};
pub use cost::{BandwidthCost, ComputeCost, LatencyBandwidth};
pub use events::EventQueue;
pub use faults::{
    FaultEvent, FaultKind, FaultLedger, FaultPlan, LedgerEntry, LedgerScope, LedgerWindow,
    MembershipEvent, MembershipKind, MembershipPlan, Plan, RetryPolicy, Timed,
};
pub use host::HostEngine;
pub use metrics::{
    write_postmortem, Counter, FlightRecorder, Gauge, Histogram, LogHistogram, MetricId,
    MetricKind, Metrics, PostmortemBundle, RecEvent, RecKind, SloPolicy, Tally, REC_NO_GPU,
};
pub use rng::SimRng;
pub use stats::Samples;
pub use time::SimTime;
pub use timeline::{MultiTimeline, Reservation, Timeline};
pub use trace::{Cat, EventKind, LaneProfile, PipelineProfile, TraceEvent, Tracer};
