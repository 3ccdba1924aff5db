//! Property tests for the simulation kernel invariants.

use gflink_sim::{EventQueue, MultiTimeline, SimRng, SimTime, Timeline};
use proptest::prelude::*;

/// One step of the event-queue equivalence proptest.
#[derive(Clone, Debug)]
enum QueueOp {
    Schedule(u64),
    Run(Vec<u64>),
    Pop(usize),
    Reset,
}

proptest! {
    /// Reservations on a timeline never overlap and never go backwards.
    #[test]
    fn timeline_reservations_are_disjoint_and_ordered(
        reqs in prop::collection::vec((0u64..1_000_000, 1u64..10_000), 1..64)
    ) {
        let mut tl = Timeline::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = SimTime::ZERO;
        for (earliest, dur) in reqs {
            let r = tl.reserve(SimTime::from_nanos(earliest), SimTime::from_nanos(dur));
            prop_assert!(r.start >= prev_end, "reservation overlaps predecessor");
            prop_assert!(r.start >= SimTime::from_nanos(earliest));
            prop_assert_eq!(r.duration(), SimTime::from_nanos(dur));
            prev_end = r.end;
            total += SimTime::from_nanos(dur);
        }
        prop_assert_eq!(tl.busy_time(), total);
        prop_assert_eq!(tl.next_free(), prev_end);
    }

    /// A k-server pool finishes a batch no later than a single server would,
    /// and no earlier than the ideal k-way split.
    #[test]
    fn multitimeline_bounded_by_ideal_speedup(
        durs in prop::collection::vec(1u64..100_000, 1..64),
        k in 1usize..8,
    ) {
        let mut pool = MultiTimeline::new(k);
        let mut single = Timeline::new();
        let mut total = 0u64;
        for &d in &durs {
            pool.reserve(SimTime::ZERO, SimTime::from_nanos(d));
            single.reserve(SimTime::ZERO, SimTime::from_nanos(d));
            total += d;
        }
        let pool_end = pool.all_free();
        let single_end = single.next_free();
        prop_assert!(pool_end <= single_end);
        // Lower bound: cannot beat perfect division of work.
        let ideal = total / k as u64;
        prop_assert!(pool_end.as_nanos() >= ideal);
    }

    /// Events pop in nondecreasing time order regardless of insertion order.
    #[test]
    fn event_queue_time_order(times in prop::collection::vec(0u64..1_000_000, 1..128)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// A run entered with `extend_sorted` — sorted or not, interleaved
    /// with `schedule` calls and pops, with tied times and times the clock
    /// has passed (clamped to `now`) — pops exactly as the same events
    /// entered one `schedule` call at a time.
    #[test]
    fn sorted_runs_pop_as_schedule_does(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..40).prop_map(QueueOp::Schedule),
                (prop::collection::vec(0u64..40, 0..12), any::<bool>())
                    .prop_map(|(mut ts, sorted)| {
                        if sorted {
                            ts.sort_unstable();
                        }
                        QueueOp::Run(ts)
                    }),
                (1usize..6).prop_map(QueueOp::Pop),
                Just(QueueOp::Reset),
            ],
            1..40,
        ),
    ) {
        let (mut by_schedule, mut by_run) = (EventQueue::new(), EventQueue::new());
        let mut id = 0u32;
        let mut next = || {
            id += 1;
            id
        };
        for op in ops {
            match op {
                QueueOp::Schedule(at) => {
                    let e = next();
                    by_schedule.schedule(SimTime::from_nanos(at), e);
                    by_run.schedule(SimTime::from_nanos(at), e);
                }
                QueueOp::Run(ts) => {
                    let events: Vec<(SimTime, u32)> =
                        ts.iter().map(|&at| (SimTime::from_nanos(at), next())).collect();
                    for &(at, e) in &events {
                        by_schedule.schedule(at, e);
                    }
                    by_run.extend_sorted(events);
                }
                QueueOp::Pop(k) => {
                    for _ in 0..k {
                        prop_assert_eq!(by_run.pop(), by_schedule.pop());
                    }
                }
                QueueOp::Reset => {
                    by_schedule = EventQueue::new();
                    by_run.reset();
                }
            }
            prop_assert_eq!(by_run.len(), by_schedule.len());
            prop_assert_eq!(by_run.peek_time(), by_schedule.peek_time());
            prop_assert_eq!(by_run.now(), by_schedule.now());
        }
        while let Some(e) = by_schedule.pop() {
            prop_assert_eq!(by_run.pop(), Some(e));
        }
        prop_assert!(by_run.is_empty());
    }

    /// Same seed ⇒ identical RNG stream; fork ⇒ reproducible child stream.
    #[test]
    fn rng_replay_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut ca = a.fork();
        let mut cb = b.fork();
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    /// gen_range always respects its bound.
    #[test]
    fn rng_range_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.gen_range(bound) < bound);
        }
    }
}
