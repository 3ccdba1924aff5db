//! Scripted fault injection.
//!
//! Real GFlink deployments lose GPUs: ECC double-bit errors knock a device
//! off the bus, thermal throttling halves PCIe and kernel throughput,
//! transient launch failures need a retry, and wedged kernels never return.
//! A [`FaultPlan`] scripts such events against the simulated clock so that
//! the recovery machinery in `gflink-core` can be exercised
//! deterministically: the same plan against the same workload produces a
//! bit-identical timeline, and [`FaultPlan::random`] derives a chaos
//! schedule from a [`SimRng`] seed while guaranteeing at least one
//! surviving device.
//!
//! The [`FaultLedger`] is the bookkeeping half: a counter block recording
//! every fault injected and every recovery action taken, threaded from the
//! `GStreamManager` up into the job report so chaos runs are auditable.

use crate::metrics::RecKind;
use crate::rng::SimRng;
use crate::time::SimTime;

/// What goes wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device falls off the bus: all in-flight work on it is lost,
    /// its device memory contents are gone, and it never comes back.
    GpuLost {
        /// Device index within the worker.
        gpu: usize,
    },
    /// The device stays up but its PCIe and kernel throughput drop to
    /// `throughput` (a factor in `(0, 1]`) of nominal — the thermal
    /// throttling / ECC-scrubbing regime.
    GpuDegraded {
        /// Device index within the worker.
        gpu: usize,
        /// Remaining fraction of nominal throughput, in `(0, 1]`.
        throughput: f64,
    },
    /// The next kernel launched on the device fails transiently; the work
    /// is intact on the host and a retry may succeed.
    KernelTransient {
        /// Device index within the worker.
        gpu: usize,
    },
    /// The next kernel launched on the device never completes; only the
    /// hang detector's timeout gets the work back.
    KernelHang {
        /// Device index within the worker.
        gpu: usize,
    },
}

impl FaultKind {
    /// The device the fault targets.
    pub fn gpu(&self) -> usize {
        match *self {
            FaultKind::GpuLost { gpu }
            | FaultKind::GpuDegraded { gpu, .. }
            | FaultKind::KernelTransient { gpu }
            | FaultKind::KernelHang { gpu } => gpu,
        }
    }
}

/// An event scheduled at a simulated instant: a [`FaultEvent`] or a
/// [`MembershipEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed<K> {
    /// When the event fires on the simulated clock.
    pub at: SimTime,
    /// What happens.
    pub kind: K,
}

/// A time-ordered script of events against one worker: a [`FaultPlan`] or
/// a [`MembershipPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct Plan<K> {
    events: Vec<Timed<K>>,
}

impl<K> Default for Plan<K> {
    fn default() -> Self {
        Plan { events: Vec::new() }
    }
}

impl<K> Plan<K> {
    /// An empty plan (nothing scripted — the common case).
    pub fn new() -> Self {
        Plan::default()
    }

    /// Add an event at `at`; keeps the plan time-ordered. Builder-style.
    pub fn with(mut self, at: SimTime, kind: K) -> Self {
        self.push(at, kind);
        self
    }

    /// Add an event at `at`; keeps the plan time-ordered (stable for ties,
    /// so two events at the same instant fire in insertion order).
    pub fn push(&mut self, at: SimTime, kind: K) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, Timed { at, kind });
    }

    /// The scripted events, soonest first.
    pub fn events(&self) -> &[Timed<K>] {
        &self.events
    }

    /// True if nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A fault scheduled at a simulated instant.
pub type FaultEvent = Timed<FaultKind>;

/// A time-ordered script of faults to inject into one worker's devices.
pub type FaultPlan = Plan<FaultKind>;

impl FaultPlan {
    /// How many devices the plan kills outright (distinct `GpuLost` targets).
    pub fn gpus_lost(&self) -> usize {
        let lost = self.events.iter().filter_map(|e| match e.kind {
            FaultKind::GpuLost { gpu } => Some(gpu),
            _ => None,
        });
        lost.collect::<std::collections::BTreeSet<_>>().len()
    }

    /// A seed-reproducible chaos schedule: `n_events` faults spread over
    /// `[0, horizon)` against `gpus` devices.
    ///
    /// At least one device is never the target of a `GpuLost`, so a run
    /// with ≥ 1 GPU always has a survivor to drain onto — the invariant the
    /// chaos property tests rely on. Pass a plan that loses every device
    /// explicitly (via [`FaultPlan::push`]) to exercise the CPU-fallback
    /// path instead.
    pub fn random(seed: u64, gpus: usize, horizon: SimTime, n_events: usize) -> Self {
        assert!(gpus > 0, "fault plan needs at least one device");
        assert!(!horizon.is_zero(), "fault plan needs a nonzero horizon");
        let mut rng = SimRng::new(seed ^ 0x6F4A_17B3_9E2D_55C1);
        let survivor = rng.gen_index(gpus);
        let mut plan = FaultPlan::new();
        for _ in 0..n_events {
            let at = SimTime::from_nanos(rng.gen_range(horizon.as_nanos()));
            let gpu = rng.gen_index(gpus);
            let kind = match rng.gen_range(4) {
                0 if gpu != survivor => FaultKind::GpuLost { gpu },
                1 => FaultKind::GpuDegraded {
                    gpu,
                    // Keep throughput in [0.1, 0.9]: low enough to matter,
                    // never zero (which would stall rather than degrade).
                    throughput: 0.1 + 0.8 * rng.next_f64(),
                },
                2 => FaultKind::KernelTransient { gpu },
                _ => FaultKind::KernelHang { gpu },
            };
            plan.push(at, kind);
        }
        plan
    }
}

/// A membership change on a live worker: a device node joining the
/// complement mid-run, or one leaving gracefully (drained, not killed).
///
/// Unlike a [`FaultKind::GpuLost`], a `Leave` is administrative: queued
/// work migrates to the survivors without being counted as a fault, and
/// the departing device's cache is released rather than wiped by an
/// error path. A `Join` grows the dispatch and cache-budget state so
/// Alg 5.1/5.2 start routing work to the newcomer immediately.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MembershipKind {
    /// A new device node joins the worker's complement.
    Join,
    /// Device `gpu` leaves the complement gracefully.
    Leave {
        /// Device index within the worker.
        gpu: usize,
    },
}

/// A membership change scheduled at a simulated instant.
pub type MembershipEvent = Timed<MembershipKind>;

/// A time-ordered script of membership changes for one worker, the
/// elastic-cluster counterpart of a [`FaultPlan`]. Chaos tests interleave
/// both plans to exercise joins, leaves, kills and checkpoints under one
/// deterministic clock.
pub type MembershipPlan = Plan<MembershipKind>;

impl MembershipPlan {
    /// A seed-reproducible elastic schedule: `n_events` changes spread
    /// over `[0, horizon)` against a worker that starts with `gpus`
    /// devices.
    ///
    /// Leaves only ever target devices beyond index 0 and never drop the
    /// complement below one device, mirroring the survivor guarantee of
    /// [`FaultPlan::random`]: an elastic chaos run always keeps somewhere
    /// to drain onto.
    pub fn random(seed: u64, gpus: usize, horizon: SimTime, n_events: usize) -> Self {
        assert!(gpus > 0, "membership plan needs at least one device");
        assert!(
            !horizon.is_zero(),
            "membership plan needs a nonzero horizon"
        );
        let mut rng = SimRng::new(seed ^ 0x3D91_C07A_52E8_66B4);
        let mut plan = MembershipPlan::new();
        // Track the complement as the plan would apply it in time order;
        // events are generated in time order (sorted draws) so the count
        // is exact, not an estimate.
        let mut draws: Vec<u64> = (0..n_events)
            .map(|_| rng.gen_range(horizon.as_nanos()))
            .collect();
        draws.sort_unstable();
        let mut present: Vec<usize> = (0..gpus).collect();
        let mut next_index = gpus;
        for at in draws {
            let join = present.len() <= 1 || rng.gen_range(2) == 0;
            let kind = if join {
                present.push(next_index);
                next_index += 1;
                MembershipKind::Join
            } else {
                // Never retire device 0: random FaultPlans may pick their
                // survivor there, and tests want one stable anchor.
                let pick = 1 + rng.gen_index(present.len() - 1);
                MembershipKind::Leave {
                    gpu: present.remove(pick),
                }
            };
            plan.push(SimTime::from_nanos(at), kind);
        }
        plan
    }
}

/// Declares the [`FaultLedger`] once. Each entry gives its field and
/// [`LedgerEntry`] variant, its [`LedgerScope`], the flight-recorder kind a
/// noted event pushes (if any) and the help text of its
/// `gflink_<field>_total` live counter; the struct, the entry enum and
/// every per-entry table below derive from this one list.
macro_rules! fault_ledger {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident / $entry:ident: $scope:ident, $rec:expr, $help:literal;
    )*) => {
        /// Counters for faults injected and recovery actions taken.
        ///
        /// Noted by the `RecoveryManager` as the GPU manager reacts to a
        /// [`FaultPlan`] and surfaced on the job report. All counts are
        /// cumulative; use [`FaultLedger::since`] to compute per-job deltas
        /// from a shared manager.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct FaultLedger {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        /// One [`FaultLedger`] entry.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LedgerEntry {
            $($(#[doc = $doc])* $entry,)*
        }

        impl LedgerEntry {
            /// Number of ledger entries.
            pub const COUNT: usize = [$(LedgerEntry::$entry),*].len();

            /// Every entry, in declaration (field) order.
            pub const ALL: [LedgerEntry; LedgerEntry::COUNT] = [$(LedgerEntry::$entry),*];

            /// The entry's field name; its live counter is
            /// `gflink_<name>_total`.
            pub fn name(self) -> &'static str {
                match self {
                    $(LedgerEntry::$entry => stringify!($field),)*
                }
            }

            /// Help text of the entry's live counter.
            pub fn help(self) -> &'static str {
                match self {
                    $(LedgerEntry::$entry => $help,)*
                }
            }

            /// Whom the entry charges besides the worker ledger.
            pub fn scope(self) -> LedgerScope {
                match self {
                    $(LedgerEntry::$entry => LedgerScope::$scope,)*
                }
            }

            /// The flight-recorder event a noted entry pushes, if any.
            pub fn rec_kind(self) -> Option<RecKind> {
                match self {
                    $(LedgerEntry::$entry => $rec,)*
                }
            }
        }

        impl FaultLedger {
            /// The value of one entry.
            pub fn get(&self, entry: LedgerEntry) -> u64 {
                match entry {
                    $(LedgerEntry::$entry => self.$field,)*
                }
            }

            /// Mutable access to one entry.
            pub fn get_mut(&mut self, entry: LedgerEntry) -> &mut u64 {
                match entry {
                    $(LedgerEntry::$entry => &mut self.$field,)*
                }
            }
        }
    };
}

fault_ledger! {
    /// Total scripted faults that fired.
    faults_injected / FaultsInjected: Device, Some(RecKind::FaultInjected), "Faults injected";
    /// Devices permanently lost.
    gpus_lost / GpusLost: Device, Some(RecKind::DeviceLost), "Devices lost";
    /// Degradation events applied.
    gpus_degraded / GpusDegraded: Device, Some(RecKind::DeviceDegraded), "Devices degraded";
    /// Transient kernel failures observed.
    transient_faults / TransientFaults: Work, Some(RecKind::TransientFault),
        "Transient kernel faults recovered";
    /// Kernels declared hung by the timeout detector.
    hangs_detected / HangsDetected: Work, Some(RecKind::HangDetected), "Hung kernels detected";
    /// Work resubmissions (for any reason: transient fault, hang, loss).
    retries / Retries: Work, Some(RecKind::Retry), "Work retries scheduled";
    /// Queued works moved off a dead device onto survivors.
    steals_on_drain / StealsOnDrain: Work, Some(RecKind::StealOnDrain),
        "Works stolen off a dying device";
    /// Cached device buffers invalidated by device loss.
    cache_invalidations / CacheInvalidations: Work, None,
        "Cache entries invalidated by device loss";
    /// Works executed on the host CPU because no GPU was left.
    cpu_fallbacks / CpuFallbacks: Work, Some(RecKind::CpuFallback),
        "Works executed on the host CPU";
    /// Works abandoned after retry exhaustion.
    works_failed / WorksFailed: Work, Some(RecKind::WorkFailed), "Works abandoned";
    /// Works satisfied from a restored checkpoint instead of executing.
    ///
    /// Double-entry invariant across a restore boundary: for every job,
    /// `works_restored + completions == works submitted` — nothing lost,
    /// nothing executed twice.
    works_restored / WorksRestored: Work, None, "Works satisfied from a restored checkpoint";
    /// Device nodes that joined the complement mid-run.
    members_joined / MembersJoined: Device, Some(RecKind::MemberJoined), "Elastic joins applied";
    /// Device nodes that left the complement gracefully (not via fault).
    members_left / MembersLeft: Device, Some(RecKind::MemberLeft), "Elastic leaves applied";
    /// Works still parked (penned or pending) when their job was torn
    /// down — accounted here rather than silently leaked.
    parked_abandoned / ParkedAbandoned: Work, None, "Parked works abandoned at job teardown";
}

/// Whom a [`LedgerEntry`] charges besides the worker ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerScope {
    /// The one job whose work the event concerns; the worker ledger is the
    /// sum over the session ledgers.
    Work,
    /// Every open session (a dead device is every tenant's problem); the
    /// worker ledger counts the event once.
    Device,
}

impl LedgerEntry {
    /// The order the live counters register in, and so the column order
    /// of the metrics plane's JSON export, kept as first exported.
    pub const COUNTER_ORDER: [LedgerEntry; LedgerEntry::COUNT] = [
        LedgerEntry::Retries,
        LedgerEntry::TransientFaults,
        LedgerEntry::HangsDetected,
        LedgerEntry::StealsOnDrain,
        LedgerEntry::CacheInvalidations,
        LedgerEntry::FaultsInjected,
        LedgerEntry::GpusLost,
        LedgerEntry::GpusDegraded,
        LedgerEntry::MembersJoined,
        LedgerEntry::MembersLeft,
        LedgerEntry::WorksRestored,
        LedgerEntry::WorksFailed,
        LedgerEntry::CpuFallbacks,
        LedgerEntry::ParkedAbandoned,
    ];
}

impl FaultLedger {
    /// Elementwise sum of two ledgers (merging managers into a job report).
    pub fn merge(&self, other: &FaultLedger) -> FaultLedger {
        let mut sum = *self;
        for e in LedgerEntry::ALL {
            *sum.get_mut(e) += other.get(e);
        }
        sum
    }

    /// Elementwise delta `self - earlier` (what happened since a snapshot).
    ///
    /// Panics if `earlier` is not a prefix of `self` (counts only grow).
    pub fn since(&self, earlier: &FaultLedger) -> FaultLedger {
        let mut delta = *self;
        for e in LedgerEntry::ALL {
            let (a, b) = (self.get(e), earlier.get(e));
            *delta.get_mut(e) = a
                .checked_sub(b)
                .unwrap_or_else(|| panic!("ledger went backwards on {}: {a} < {b}", e.name()));
        }
        delta
    }

    /// True if nothing was injected and nothing recovered.
    pub fn is_quiet(&self) -> bool {
        *self == FaultLedger::default()
    }

    /// Every entry as a stable `(name, value)` list, in declaration order.
    pub fn entries(&self) -> [(&'static str, u64); LedgerEntry::COUNT] {
        LedgerEntry::ALL.map(|e| (e.name(), self.get(e)))
    }

    /// The ledger as one JSON object, entries in declaration order: the
    /// single serialization postmortem bundles and cluster snapshots share.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = (self.entries().iter())
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A [`FaultLedger`] plus a movable mark: cumulative counters with cheap
/// "what happened since I last looked" deltas.
///
/// This is the per-session form of ledger snapshotting: each job session
/// owns one window, recovery code increments the running total, and the
/// drain path calls [`LedgerWindow::take_delta`] to get exactly the
/// counters accrued since the previous drain — no caller-side snapshot
/// bookkeeping, and no way for one job's counters to bleed into another's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use = "a LedgerWindow holds unread fault deltas; dropping it loses the accounting"]
pub struct LedgerWindow {
    total: FaultLedger,
    mark: FaultLedger,
}

impl LedgerWindow {
    /// The cumulative ledger since the window was created.
    pub fn total(&self) -> FaultLedger {
        self.total
    }

    /// Mutable access to the running total (recovery code tallies here).
    pub fn total_mut(&mut self) -> &mut FaultLedger {
        &mut self.total
    }

    /// Counters accrued since the last `take_delta` (or since creation),
    /// advancing the mark to now.
    pub fn take_delta(&mut self) -> FaultLedger {
        let delta = self.total.since(&self.mark);
        self.mark = self.total;
        delta
    }
}

/// Retry policy with exponential backoff and a hard deadline.
///
/// Attempt `k` (zero-based) that fails is retried after
/// `base · factor^k`, so with `base = 1 ms` and `factor = 2` the waits run
/// 1, 2, 4, 8 … ms. `max_retries` bounds the attempt count;
/// `deadline`, if not `SimTime::MAX`, additionally abandons work whose
/// next retry would start after that simulated duration of retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wait before the first retry.
    pub base: SimTime,
    /// Multiplier applied per subsequent attempt (≥ 1).
    pub factor: u32,
    /// Maximum number of retries before the work is declared failed.
    pub max_retries: u32,
    /// Give up once the cumulative backoff would exceed this duration.
    pub deadline: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimTime::from_micros(100),
            factor: 2,
            max_retries: 8,
            deadline: SimTime::MAX,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (zero-based), saturating at
    /// `SimTime::MAX` rather than overflowing for absurd attempt counts.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let mult = (self.factor as u64).checked_pow(attempt.min(63));
        match mult.and_then(|m| self.base.as_nanos().checked_mul(m)) {
            Some(ns) => SimTime::from_nanos(ns),
            None => SimTime::MAX,
        }
    }

    /// Whether a work item that has already been retried `attempt` times
    /// may try again, given it has been retrying for `spent` so far.
    pub fn allows(&self, attempt: u32, spent: SimTime) -> bool {
        attempt < self.max_retries && spent <= self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_time_ordered() {
        let plan = FaultPlan::new()
            .with(SimTime::from_millis(5), FaultKind::GpuLost { gpu: 1 })
            .with(
                SimTime::from_millis(1),
                FaultKind::KernelTransient { gpu: 0 },
            )
            .with(SimTime::from_millis(3), FaultKind::KernelHang { gpu: 0 });
        let at: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(at, vec![1_000_000, 3_000_000, 5_000_000]);
        assert_eq!(plan.gpus_lost(), 1);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let t = SimTime::from_millis(2);
        let plan = FaultPlan::new()
            .with(t, FaultKind::KernelTransient { gpu: 0 })
            .with(t, FaultKind::KernelHang { gpu: 1 });
        assert_eq!(plan.events()[0].kind, FaultKind::KernelTransient { gpu: 0 });
        assert_eq!(plan.events()[1].kind, FaultKind::KernelHang { gpu: 1 });
    }

    #[test]
    fn random_plans_are_seed_reproducible() {
        let h = SimTime::from_secs(1);
        assert_eq!(
            FaultPlan::random(7, 4, h, 16),
            FaultPlan::random(7, 4, h, 16)
        );
        assert_ne!(
            FaultPlan::random(7, 4, h, 16),
            FaultPlan::random(8, 4, h, 16)
        );
    }

    #[test]
    fn random_plans_always_leave_a_survivor() {
        for seed in 0..64 {
            for gpus in 1..=4 {
                let plan = FaultPlan::random(seed, gpus, SimTime::from_secs(1), 32);
                assert!(
                    plan.gpus_lost() < gpus,
                    "seed {seed}: all {gpus} devices lost"
                );
                for e in plan.events() {
                    assert!(e.kind.gpu() < gpus);
                    assert!(e.at < SimTime::from_secs(1));
                    if let FaultKind::GpuDegraded { throughput, .. } = e.kind {
                        assert!(throughput > 0.0 && throughput <= 1.0);
                    }
                }
            }
        }
    }

    #[test]
    fn membership_plan_stays_time_ordered() {
        let plan = MembershipPlan::new()
            .with(SimTime::from_millis(5), MembershipKind::Leave { gpu: 1 })
            .with(SimTime::from_millis(1), MembershipKind::Join);
        let at: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(at, vec![1_000_000, 5_000_000]);
        assert!(MembershipPlan::new().is_empty());
    }

    #[test]
    fn random_membership_plans_are_seed_reproducible_and_safe() {
        let h = SimTime::from_secs(1);
        assert_eq!(
            MembershipPlan::random(3, 2, h, 12),
            MembershipPlan::random(3, 2, h, 12)
        );
        assert_ne!(
            MembershipPlan::random(3, 2, h, 12),
            MembershipPlan::random(4, 2, h, 12)
        );
        for seed in 0..64 {
            for gpus in 1..=4 {
                let plan = MembershipPlan::random(seed, gpus, h, 12);
                // Replay the plan and check it is always applicable: a
                // leave targets a present, non-zero device, and the
                // complement never empties.
                let mut present: Vec<usize> = (0..gpus).collect();
                let mut next = gpus;
                for e in plan.events() {
                    match e.kind {
                        MembershipKind::Join => {
                            present.push(next);
                            next += 1;
                        }
                        MembershipKind::Leave { gpu } => {
                            assert_ne!(gpu, 0, "seed {seed}: device 0 must never leave");
                            let pos = present
                                .iter()
                                .position(|&g| g == gpu)
                                .unwrap_or_else(|| panic!("seed {seed}: leave of absent {gpu}"));
                            present.remove(pos);
                            assert!(!present.is_empty(), "seed {seed}: complement emptied");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ledger_merge_and_since() {
        let a = FaultLedger {
            retries: 3,
            gpus_lost: 1,
            ..Default::default()
        };
        let b = FaultLedger {
            retries: 2,
            cpu_fallbacks: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.retries, 5);
        assert_eq!(m.gpus_lost, 1);
        assert_eq!(m.cpu_fallbacks, 4);
        assert_eq!(m.since(&a), b);
        assert!(FaultLedger::default().is_quiet());
        assert!(!m.is_quiet());
    }

    #[test]
    fn counter_order_lists_every_entry_once() {
        let mut order = LedgerEntry::COUNTER_ORDER;
        order.sort();
        assert_eq!(order, LedgerEntry::ALL);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn ledger_since_rejects_regression() {
        let a = FaultLedger {
            retries: 1,
            ..Default::default()
        };
        let _ = FaultLedger::default().since(&a);
    }

    #[test]
    fn ledger_window_deltas_reset_at_the_mark() {
        let mut w = LedgerWindow::default();
        w.total_mut().retries += 2;
        w.total_mut().transient_faults += 1;
        let d1 = w.take_delta();
        assert_eq!(d1.retries, 2);
        assert_eq!(d1.transient_faults, 1);
        assert!(w.take_delta().is_quiet(), "nothing new since the mark");
        w.total_mut().retries += 1;
        assert_eq!(w.take_delta().retries, 1);
        assert_eq!(w.total().retries, 3, "the total keeps accumulating");
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy {
            base: SimTime::from_millis(1),
            factor: 2,
            max_retries: 5,
            deadline: SimTime::MAX,
        };
        assert_eq!(p.backoff(0), SimTime::from_millis(1));
        assert_eq!(p.backoff(1), SimTime::from_millis(2));
        assert_eq!(p.backoff(3), SimTime::from_millis(8));
        assert_eq!(p.backoff(200), SimTime::MAX);
    }

    #[test]
    fn retry_policy_limits() {
        let p = RetryPolicy {
            base: SimTime::from_millis(1),
            factor: 2,
            max_retries: 3,
            deadline: SimTime::from_secs(1),
        };
        assert!(p.allows(0, SimTime::ZERO));
        assert!(p.allows(2, SimTime::from_millis(500)));
        assert!(!p.allows(3, SimTime::ZERO), "retry count exhausted");
        assert!(!p.allows(1, SimTime::from_secs(2)), "deadline exceeded");
    }
}
