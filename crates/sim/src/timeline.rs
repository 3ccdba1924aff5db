//! Resource timelines.
//!
//! A [`Timeline`] models a single-server FIFO resource (one PCIe copy engine,
//! one GPU kernel engine, one disk spindle, one NIC direction). Work is
//! admitted with [`Timeline::reserve`], which returns the interval the
//! resource actually grants. A [`MultiTimeline`] models `k` identical servers
//! (e.g. CPU task slots on a worker) with earliest-available dispatch.
//!
//! Timelines are the backbone of the simulated cluster: the three-stage
//! H2D/K/D2H pipeline of the paper's §5 emerges from chaining reservations on
//! the copy-engine and kernel-engine timelines of a device.

use crate::time::SimTime;

/// A single-server FIFO resource on the simulated clock.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    next_free: SimTime,
    busy: SimTime,
    reservations: u64,
}

/// The interval granted by a reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Instant at which the resource begins serving this request.
    pub start: SimTime,
    /// Instant at which the resource finishes serving this request.
    pub end: SimTime,
}

impl Reservation {
    /// Duration of the reservation.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

impl Timeline {
    /// A timeline that is free from the simulation epoch.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Reserve `duration` of service, not starting before `earliest`.
    ///
    /// The request is served at `max(earliest, next_free)`; the timeline's
    /// watermark advances to the end of the granted interval.
    pub fn reserve(&mut self, earliest: SimTime, duration: SimTime) -> Reservation {
        let start = earliest.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy += duration;
        self.reservations += 1;
        Reservation { start, end }
    }

    /// The instant the resource next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Whether the resource is idle at instant `t`.
    pub fn is_idle_at(&self, t: SimTime) -> bool {
        self.next_free <= t
    }

    /// Total busy (service) time accumulated so far.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of reservations granted.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Utilization in `[0, 1]` over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }
}

/// `k` identical single-server resources with earliest-available dispatch.
///
/// Models a pool of CPU task slots or a bulk of CUDA streams when the exact
/// identity of the server does not matter. Where identity *does* matter
/// (locality-aware stream selection, Alg. 5.1) the caller keeps a
/// `Vec<Timeline>` instead and chooses explicitly.
#[derive(Clone, Debug)]
pub struct MultiTimeline {
    servers: Vec<Timeline>,
    /// Running sum of per-server busy time, maintained on every reserve so
    /// `busy_time`/`utilization` are O(1) queries instead of O(k) rebuilds
    /// (they sit on per-work reporting paths).
    busy_total: SimTime,
    /// Running max of per-server `next_free` — monotone under reservation,
    /// so the pool drain time is maintained incrementally.
    drain_at: SimTime,
}

impl MultiTimeline {
    /// Create a pool of `k` idle servers. `k` must be at least 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "MultiTimeline needs at least one server");
        MultiTimeline {
            servers: vec![Timeline::new(); k],
            busy_total: SimTime::ZERO,
            drain_at: SimTime::ZERO,
        }
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True if the pool has no servers (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Reserve `duration` on the server that can start earliest.
    ///
    /// Ties are broken by lowest server index, keeping dispatch
    /// deterministic. Returns `(server index, reservation)`.
    pub fn reserve(&mut self, earliest: SimTime, duration: SimTime) -> (usize, Reservation) {
        let mut best = 0usize;
        let mut best_free = self.servers[0].next_free();
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.next_free() < best_free {
                best = i;
                best_free = s.next_free();
            }
        }
        let r = self.servers[best].reserve(earliest, duration);
        self.busy_total += duration;
        self.drain_at = self.drain_at.max(r.end);
        (best, r)
    }

    /// Reserve on a specific server.
    pub fn reserve_on(
        &mut self,
        server: usize,
        earliest: SimTime,
        duration: SimTime,
    ) -> Reservation {
        let r = self.servers[server].reserve(earliest, duration);
        self.busy_total += duration;
        self.drain_at = self.drain_at.max(r.end);
        r
    }

    /// The earliest instant at which *any* server is free.
    pub fn earliest_free(&self) -> SimTime {
        self.servers
            .iter()
            .map(Timeline::next_free)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// The instant at which *all* servers are free (pool drain time).
    /// O(1): maintained incrementally on every reservation.
    pub fn all_free(&self) -> SimTime {
        self.drain_at
    }

    /// Number of servers idle at instant `t`.
    pub fn idle_at(&self, t: SimTime) -> usize {
        self.servers.iter().filter(|s| s.is_idle_at(t)).count()
    }

    /// Immutable access to the underlying servers.
    pub fn servers(&self) -> &[Timeline] {
        &self.servers
    }

    /// Total busy time summed over all servers. O(1): maintained
    /// incrementally on every reservation.
    pub fn busy_time(&self) -> SimTime {
        self.busy_total
    }

    /// Mean per-server utilization in `[0, 1]` over `[0, horizon]`.
    ///
    /// Like [`Timeline::utilization`], a zero horizon reports zero rather
    /// than NaN/∞ (an empty observation window has no meaningful rate).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        let denom = horizon.as_secs_f64() * self.servers.len() as f64;
        (self.busy_time().as_secs_f64() / denom).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn fifo_serialization() {
        let mut tl = Timeline::new();
        let a = tl.reserve(t(0), t(10));
        let b = tl.reserve(t(0), t(5));
        assert_eq!(a.start, t(0));
        assert_eq!(a.end, t(10));
        // Second request cannot start before the first ends.
        assert_eq!(b.start, t(10));
        assert_eq!(b.end, t(15));
    }

    #[test]
    fn idle_gap_respected() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        let r = tl.reserve(t(50), t(5));
        // Resource was idle; request starts at its own earliest time.
        assert_eq!(r.start, t(50));
        assert_eq!(r.end, t(55));
        assert_eq!(tl.busy_time(), t(15));
    }

    #[test]
    fn utilization_bounds() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(25));
        assert!((tl.utilization(t(100)) - 0.25).abs() < 1e-12);
        assert_eq!(tl.utilization(SimTime::ZERO), 0.0);
        assert!(tl.utilization(t(10)) <= 1.0);
    }

    #[test]
    fn multi_earliest_available_dispatch() {
        let mut pool = MultiTimeline::new(2);
        let (s0, _) = pool.reserve(t(0), t(10));
        let (s1, _) = pool.reserve(t(0), t(4));
        // Distinct servers taken while both idle (tie broken by index).
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        // Server 1 frees first (at 4ms) so the next job lands there.
        let (s2, r2) = pool.reserve(t(0), t(1));
        assert_eq!(s2, 1);
        assert_eq!(r2.start, t(4));
        assert_eq!(pool.earliest_free(), t(5));
        assert_eq!(pool.all_free(), t(10));
    }

    #[test]
    fn multi_idle_count() {
        let mut pool = MultiTimeline::new(3);
        pool.reserve_on(0, t(0), t(10));
        pool.reserve_on(1, t(0), t(20));
        assert_eq!(pool.idle_at(t(0)), 1);
        assert_eq!(pool.idle_at(t(15)), 2);
        assert_eq!(pool.idle_at(t(25)), 3);
    }

    #[test]
    fn multi_utilization_guards_zero_horizon() {
        let mut pool = MultiTimeline::new(2);
        assert_eq!(pool.utilization(SimTime::ZERO), 0.0);
        pool.reserve_on(0, t(0), t(50));
        assert_eq!(pool.utilization(SimTime::ZERO), 0.0);
        // One of two servers busy for half the horizon → 25%.
        assert!((pool.utilization(t(100)) - 0.25).abs() < 1e-12);
        assert!(pool.utilization(t(10)) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = MultiTimeline::new(0);
    }

    #[test]
    fn multi_incremental_aggregates_match_rescan() {
        let mut pool = MultiTimeline::new(3);
        pool.reserve(t(0), t(10));
        pool.reserve_on(2, t(5), t(7));
        pool.reserve(t(0), t(3));
        let busy_rescan: SimTime = pool.servers().iter().map(Timeline::busy_time).sum();
        let drain_rescan = pool
            .servers()
            .iter()
            .map(Timeline::next_free)
            .max()
            .unwrap();
        assert_eq!(pool.busy_time(), busy_rescan);
        assert_eq!(pool.all_free(), drain_rescan);
    }
}
