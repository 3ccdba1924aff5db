//! Discrete-event queue.
//!
//! A minimal, deterministic event queue: events are popped in nondecreasing
//! time order, with FIFO order among events scheduled for the same instant
//! (insertion sequence breaks ties). Used by the `GStreamManager` event loop
//! to order stream completions, GWork submissions and stealing attempts.
//!
//! Payloads live in a slab with a free list; the binary heap orders small
//! `Copy` keys (time, sequence, slot) only. Sift operations therefore move
//! 24-byte keys instead of full payloads, and in steady state a
//! schedule/pop cycle reuses slab slots and heap capacity without touching
//! the allocator.
//!
//! A batch of events already in time order — a drain's pending
//! submissions — enters through [`EventQueue::extend_sorted`] as a run
//! that is never heapified: `pop` takes the earlier of the run's front and
//! the heap's top by `(time, seq)`, so the order is exactly the one
//! `schedule` would give. [`EventQueue::reset`] empties the queue for the
//! next drain and keeps every capacity.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Heap key: everything ordering needs, nothing else. `Copy`, 24 bytes.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` pops before `other`.
    fn before(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-time event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Key>,
    /// Keys entered by `extend_sorted`, in increasing `(time, seq)`.
    run: VecDeque<Key>,
    /// Payload slab; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            run: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Empty the queue and rewind its clock and sequence to the epoch, as
    /// a fresh queue, keeping the heap, run and slab capacity for reuse.
    pub fn reset(&mut self) {
        if !self.is_empty() {
            self.heap.clear();
            self.run.clear();
            self.slots.clear();
            self.free.clear();
        }
        self.seq = 0;
        self.now = SimTime::ZERO;
    }

    /// The key of `payload` at `at` (clamped to `now`): the next sequence
    /// number and a slab slot.
    fn key(&mut self, at: SimTime, payload: T) -> Key {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Some(payload));
                slot
            }
        };
        let key = Key {
            time: at.max(self.now),
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        key
    }

    /// Schedule `payload` to fire at absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error in the caller: the queue
    /// clamps such events to `now` (they fire immediately, preserving
    /// insertion order) rather than rewinding the clock.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let key = self.key(at, payload);
        self.heap.push(key);
    }

    /// Schedule every `(at, payload)` of `events` in iteration order, as
    /// that many [`schedule`](Self::schedule) calls would: same clamping,
    /// same sequence numbers, same pop order. Events in nondecreasing time
    /// order (after clamping) join the sorted run and cost no heap push or
    /// sift; one that is earlier than the run's last event goes to the
    /// heap instead.
    pub fn extend_sorted(&mut self, events: impl IntoIterator<Item = (SimTime, T)>) {
        for (at, payload) in events {
            let key = self.key(at, payload);
            match self.run.back() {
                Some(last) if key.time < last.time => self.heap.push(key),
                _ => self.run.push_back(key),
            }
        }
    }

    /// Pop the earliest event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => r.before(h),
            (run, _) => run.is_some(),
        };
        let k = if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(k.time >= self.now, "event queue time went backwards");
        self.now = k.time;
        let payload = self.slots[k.slot as usize]
            .take()
            .expect("heap key points at a full slot");
        self.free.push(k.slot);
        Some((k.time, payload))
    }

    /// Instant of the earliest pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|k| k.time);
        let run = self.run.front().map(|k| k.time);
        heap.into_iter().chain(run).min()
    }

    /// The current simulated instant (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(t(7), i);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.schedule(t(9), ());
        q.pop();
        assert_eq!(q.now(), t(5));
        // An event scheduled "in the past" is clamped to now.
        q.schedule(t(1), ());
        let (when, _) = q.pop().unwrap();
        assert_eq!(when, t(5));
        q.pop();
        assert_eq!(q.now(), t(9));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(t(42), ());
        assert_eq!(q.peek_time(), Some(t(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..4 {
                q.schedule(t(round * 100 + i), (round, i));
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some((t(round * 100 + i), (round, i))));
            }
        }
        // Steady state: the slab never grew past the in-flight high water.
        assert_eq!(q.slots.len(), 4);
        assert_eq!(q.free.len(), 4);
    }

    #[test]
    fn sorted_runs_merge_with_the_heap_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.schedule(t(20), "heap-20");
        q.extend_sorted([(t(10), "run-10"), (t(20), "run-20"), (t(30), "run-30")]);
        q.schedule(t(20), "heap-20b");
        // Out of order for the run: it goes to the heap.
        q.extend_sorted([(t(5), "late-5")]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            ["late-5", "run-10", "heap-20", "run-20", "heap-20b", "run-30"]
        );
    }

    #[test]
    fn reset_keeps_capacity_and_rewinds_the_clock() {
        let mut q = EventQueue::new();
        q.extend_sorted((0..8).map(|i| (t(i), i)));
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!((q.now(), q.len(), q.peek_time()), (SimTime::ZERO, 0, None));
        assert!(q.slots.capacity() >= 8 && q.run.capacity() >= 7);
        q.schedule(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
    }
}
