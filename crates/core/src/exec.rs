//! The one executor for the CPU-side work a run can overlap (DESIGN.md
//! §14): worker-parallel GDST operator steps, and a windowed stream's
//! source stage and output assembly.
//!
//! Every helper here runs on a `std::thread::scope` thread, borrows what
//! the caller lends it, and hands its result back to the caller. A panic
//! on a helper thread is re-raised on the caller with its own payload.
//! On a single core the same work runs in order on the caller:
//! [`Exec::detect`] decides once per process, and nothing else does.

use std::collections::BTreeMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TryRecvError};
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

/// Items a [`Exec::pipe`] helper may hold produced but not yet taken by
/// the sink: how far it runs ahead. The caller produces ahead only while
/// the helper holds the item the sink wants.
const PIPE_DEPTH: usize = 4;

/// How a run executes the stages it may overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exec {
    /// One stage on a scoped helper thread, the other on the caller.
    Threads,
    /// Both stages in order on the caller.
    InOrder,
}

impl Exec {
    /// [`Exec::Threads`] when this process may run on more than one core.
    pub(crate) fn detect() -> Exec {
        if multi_core() {
            Exec::Threads
        } else {
            Exec::InOrder
        }
    }

    /// `sink(items)` over `produce(0), produce(1), …, produce(n − 1)`, in
    /// that order. With threads, a helper claims and produces items ahead
    /// of the sink, at most [`PIPE_DEPTH`] of them waiting; whenever the
    /// next item is not ready, the caller claims and produces the next
    /// unclaimed one itself instead of idling. Each item is produced once,
    /// by whichever thread claimed it. A panic in `produce` is re-raised
    /// on the caller with its payload before the sink sees a cut stream. A
    /// sink that stops early or panics stops the helper at its next item.
    pub(crate) fn pipe<T: Send, R>(
        self,
        n: usize,
        produce: impl Fn(usize) -> T + Sync,
        sink: impl FnOnce(&mut dyn Iterator<Item = T>) -> R,
    ) -> R {
        if self == Exec::InOrder {
            return sink(&mut (0..n).map(produce));
        }
        let next = AtomicUsize::new(0);
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&k| k < n);
        let (claim, produce) = (&claim, &produce);
        std::thread::scope(|s| {
            let (tx, rx) = sync_channel(PIPE_DEPTH);
            let mut helper = Some(s.spawn(move || {
                while let Some(k) = claim() {
                    if tx.send((k, produce(k))).is_err() {
                        break;
                    }
                }
            }));
            let running = &mut helper;
            // Items produced ahead of the one the sink wants, by index.
            let mut ready = BTreeMap::new();
            let mut want = 0;
            let mut items = std::iter::from_fn(move || {
                if want == n {
                    return None;
                }
                let item = loop {
                    if let Some(item) = ready.remove(&want) {
                        break item;
                    }
                    let (k, item) = match rx.try_recv() {
                        Ok(got) => got,
                        Err(TryRecvError::Empty) => match claim() {
                            Some(k) => (k, produce(k)),
                            // Every item is claimed: wait for the helper's.
                            None => rx.recv().unwrap_or_else(|_| gone(running, want)),
                        },
                        Err(TryRecvError::Disconnected) => gone(running, want),
                    };
                    ready.insert(k, item);
                };
                want += 1;
                Some(item)
            });
            let out = sink(&mut items);
            // Hang up first (the receiver goes with `items`), so a helper
            // blocked on a full channel wakes.
            drop(items);
            if let Some(h) = helper {
                rejoin(h);
            }
            out
        })
    }

    /// `(helper(), caller())`: with threads, `helper` runs on a scoped
    /// thread while the caller runs `caller`; in order, `helper` first.
    pub(crate) fn join<A: Send, B>(
        self,
        helper: impl FnOnce() -> A + Send,
        caller: impl FnOnce() -> B,
    ) -> (A, B) {
        if self == Exec::InOrder {
            let a = helper();
            return (a, caller());
        }
        std::thread::scope(|s| {
            let spawned = s.spawn(helper);
            let b = caller();
            (rejoin(spawned), b)
        })
    }
}

/// Whether this process may run on more than one core. Probed once per
/// process, on first use, never at set-up: the probe reads the affinity
/// mask and cgroup limits on every call (≈ 50 µs the first time, ≈ 20 µs
/// after), more than a whole small job's set-up.
pub(crate) fn multi_core() -> bool {
    static MULTI: OnceLock<bool> = OnceLock::new();
    *MULTI.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// `step(i, item)` for every item: item 0's on the calling thread, each
/// further item's on a scoped thread of its own. Returns the results in
/// item order.
pub(crate) fn on_threads<M: Send, R: Send>(
    items: &mut [M],
    step: impl Fn(usize, &mut M) -> R + Sync,
) -> Vec<R> {
    let Some((first, rest)) = items.split_first_mut() else {
        return Vec::new();
    };
    let step = &step;
    std::thread::scope(|s| {
        let spawned: Vec<_> = (rest.iter_mut().enumerate())
            .map(|(i, m)| s.spawn(move || step(i + 1, m)))
            .collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(step(0, first));
        out.extend(spawned.into_iter().map(rejoin));
        out
    })
}

/// The helper hung up before sending item `want`, which it claimed: it
/// can only have panicked, so its panic is re-raised here.
fn gone<T>(helper: &mut Option<ScopedJoinHandle<'_, ()>>, want: usize) -> T {
    if let Some(h) = helper.take() {
        rejoin(h);
    }
    unreachable!("the helper ended without producing item {want}")
}

/// A helper's result, or its panic re-raised here with its own payload.
fn rejoin<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle.join().unwrap_or_else(|p| resume_unwind(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const BOTH: [Exec; 2] = [Exec::Threads, Exec::InOrder];

    fn payload(run: impl FnOnce()) -> String {
        let p = catch_unwind(AssertUnwindSafe(run)).expect_err("the run panics");
        (p.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| p.downcast_ref::<String>().cloned())
            .expect("a string payload")
    }

    #[test]
    fn pipe_delivers_every_item_in_order_once() {
        for exec in BOTH {
            let calls = AtomicUsize::new(0);
            let produce = |k: usize| {
                calls.fetch_add(1, Ordering::Relaxed);
                k * 3
            };
            let got = exec.pipe(1000, produce, |items| items.collect::<Vec<_>>());
            assert!(got.into_iter().eq((0..1000).map(|k| k * 3)), "{exec:?}");
            assert_eq!(exec.pipe(0, produce, |items| items.count()), 0);
            assert_eq!(calls.into_inner(), 1000, "{exec:?}");
        }
    }

    #[test]
    fn pipe_caller_produces_while_the_helper_stalls() {
        let caller = std::thread::current().id();
        let by_caller = AtomicUsize::new(0);
        let produce = |k: usize| {
            if std::thread::current().id() == caller {
                by_caller.fetch_add(1, Ordering::Relaxed);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            k
        };
        let got: Vec<usize> = Exec::Threads.pipe(200, produce, |items| items.collect());
        assert!(got.into_iter().eq(0..200));
        assert!(
            by_caller.into_inner() > 100,
            "the caller idled behind the helper"
        );
    }

    #[test]
    fn pipe_reraises_a_produce_panic_before_the_sink_sees_the_end() {
        for exec in BOTH {
            let produce = |k: usize| {
                assert!(k != 37, "produce broke at {k}");
                k
            };
            let msg = payload(|| {
                exec.pipe(100, produce, |items| {
                    let n = items.count();
                    unreachable!("the sink saw a cut stream of {n} items");
                })
            });
            assert_eq!(msg, "produce broke at 37", "{exec:?}");
        }
    }

    #[test]
    fn pipe_stops_the_helper_when_the_sink_stops_or_panics() {
        for exec in BOTH {
            let first: Vec<usize> = exec.pipe(usize::MAX, |k| k, |items| items.take(3).collect());
            assert_eq!(first, [0, 1, 2]);
            let msg = payload(|| exec.pipe(usize::MAX, |k| k, |_| panic!("sink gave up")));
            assert_eq!(msg, "sink gave up", "{exec:?}");
        }
    }

    #[test]
    fn join_returns_both_results_and_reraises_the_helpers_panic() {
        for exec in BOTH {
            let x = 20;
            assert_eq!(exec.join(|| x + 1, || x * 2), (21, 40));
            let msg = payload(|| {
                exec.join(|| panic!("helper broke"), || ());
            });
            assert_eq!(msg, "helper broke", "{exec:?}");
        }
    }

    #[test]
    fn on_threads_keeps_item_order() {
        let mut items = [1u32, 2, 3, 4];
        let got = on_threads(&mut items, |i, m| {
            *m *= 10;
            (i, *m)
        });
        assert_eq!(got, [(0, 10), (1, 20), (2, 30), (3, 40)]);
        assert!(on_threads(&mut [] as &mut [u32], |_, _| ()).is_empty());
    }
}
