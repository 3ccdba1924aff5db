//! Deterministic interleaving gate for concurrent driver threads.
//!
//! Several jobs may drive one [`SharedCluster`](crate::SharedCluster) and
//! one GPU fabric from their own OS threads. Real thread scheduling is
//! nondeterministic, but the *simulated* outcome must not be: the contract
//! for concurrent multi-job runs is that every job's output is bit-identical
//! to its solo run. The [`JobGate`] makes that hold by turning the threads
//! into a baton-passing round: at every checkpoint the baton goes to the
//! registered job with the least `(frontier, token)` pair, so shared
//! timeline reservations are always replayed in the same simulated-time
//! order regardless of how the OS schedules the threads.
//!
//! Usage: the coordinator calls [`JobGate::register`] once per job *before*
//! spawning the driver threads (token order is the deterministic
//! tie-breaker), then each thread wraps its driver closure in
//! [`JobGate::run`]. Inside, the flink layer yields at phase boundaries via
//! the module-level [`checkpoint`], which is a no-op on threads that never
//! entered a gate — solo runs pay nothing.

use gflink_sim::SimTime;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct GateState {
    /// Next registration token; tokens are handed out in call order.
    next_token: u64,
    /// Frontier last reported by each registered (still-running) job.
    jobs: BTreeMap<u64, SimTime>,
}

/// Baton-passing gate shared by the driver threads of concurrent jobs.
///
/// Cheap to clone; all clones share one state.
#[derive(Clone, Default)]
pub struct JobGate {
    inner: Arc<(Mutex<GateState>, Condvar)>,
}

thread_local! {
    static CURRENT: RefCell<Option<(JobGate, u64)>> = const { RefCell::new(None) };
}

impl JobGate {
    /// A fresh gate with no registered jobs.
    pub fn new() -> JobGate {
        JobGate::default()
    }

    /// Register one job and return its token. Call once per job *before*
    /// spawning the driver threads, in the order that should break
    /// simulated-time ties.
    pub fn register(&self) -> u64 {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        let token = st.next_token;
        st.next_token += 1;
        st.jobs.insert(token, SimTime::ZERO);
        cvar.notify_all();
        token
    }

    /// Report `frontier` for `token` and block until this job holds the
    /// baton: no other registered job has a strictly smaller
    /// `(frontier, token)` pair. Frontiers only move forward.
    pub fn checkpoint(&self, token: u64, frontier: SimTime) {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        let mine = st.jobs.get(&token).copied().unwrap_or(SimTime::ZERO);
        let mine = mine.max(frontier);
        st.jobs.insert(token, mine);
        cvar.notify_all();
        while st.jobs.iter().any(|(&t, &f)| (f, t) < (mine, token)) {
            cvar.wait(&mut st);
        }
    }

    fn deregister(&self, token: u64) {
        let (lock, cvar) = &*self.inner;
        lock.lock().jobs.remove(&token);
        cvar.notify_all();
    }

    /// Run `f` as the driver of job `token`: waits for the baton, installs
    /// the thread-local gate so [`checkpoint`] yields at phase boundaries,
    /// and deregisters on the way out (also on panic, so sibling threads
    /// are not left waiting on a dead job).
    pub fn run<R>(&self, token: u64, f: impl FnOnce() -> R) -> R {
        struct Leave(JobGate, u64);
        impl Drop for Leave {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = None);
                self.0.deregister(self.1);
            }
        }
        CURRENT.with(|c| *c.borrow_mut() = Some((self.clone(), token)));
        let leave = Leave(self.clone(), token);
        self.checkpoint(token, SimTime::ZERO);
        let out = f();
        drop(leave);
        out
    }
}

impl std::fmt::Debug for JobGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.0.lock();
        write!(f, "JobGate({} live jobs)", st.jobs.len())
    }
}

/// Yield the baton at a phase boundary: report this thread's job `frontier`
/// and wait until no concurrent job is behind it in simulated time. No-op
/// on threads that are not inside [`JobGate::run`] — solo drivers pass
/// straight through.
pub fn checkpoint(frontier: SimTime) {
    let entered = CURRENT.with(|c| c.borrow().clone());
    if let Some((gate, token)) = entered {
        gate.checkpoint(token, frontier);
    }
}

/// Whether this thread is inside [`JobGate::run`]: its phase boundaries
/// pass a baton, so work that must sit between two of them stays on this
/// thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn checkpoint_outside_run_is_a_noop() {
        checkpoint(SimTime::from_secs(3)); // must not block or panic
    }

    #[test]
    fn active_only_inside_run() {
        assert!(!active());
        let gate = JobGate::new();
        let token = gate.register();
        assert!(gate.run(token, active));
        assert!(!active());
    }

    #[test]
    fn baton_follows_the_smaller_frontier() {
        // Two jobs, each appending to a shared log at gated checkpoints.
        // Whatever the OS does, the log must come out ordered by
        // (frontier, token).
        let gate = JobGate::new();
        let t0 = gate.register();
        let t1 = gate.register();
        let log = Arc::new(Mutex::new(Vec::new()));
        let seq = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for (token, frontiers) in [(t0, [2u64, 4, 9]), (t1, [1, 5, 6])] {
                let gate = gate.clone();
                let log = Arc::clone(&log);
                let seq = Arc::clone(&seq);
                s.spawn(move || {
                    gate.run(token, || {
                        for f in frontiers {
                            checkpoint(SimTime::from_secs(f));
                            let at = seq.fetch_add(1, Ordering::SeqCst);
                            log.lock().push((f, token, at));
                        }
                    });
                });
            }
        });
        let mut log = log.lock().clone();
        log.sort_by_key(|&(_, _, at)| at);
        let order: Vec<(u64, u64)> = log.iter().map(|&(f, t, _)| (f, t)).collect();
        assert_eq!(
            order,
            vec![(1, t1), (2, t0), (4, t0), (5, t1), (6, t1), (9, t0)]
        );
    }

    #[test]
    fn ties_break_by_token_and_panics_release_the_baton() {
        let gate = JobGate::new();
        let t0 = gate.register();
        let t1 = gate.register();
        let winner = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let g = gate.clone();
            let w = Arc::clone(&winner);
            let dead = s.spawn(move || {
                g.run(t0, || {
                    checkpoint(SimTime::from_secs(1));
                    w.lock().push(t0);
                    panic!("driver died");
                })
            });
            let g = gate.clone();
            let w = Arc::clone(&winner);
            s.spawn(move || {
                g.run(t1, || {
                    // Same frontier: token 0 must go first; and t0's panic
                    // must deregister it so we are not stuck forever.
                    checkpoint(SimTime::from_secs(1));
                    w.lock().push(t1);
                })
            });
            assert!(dead.join().is_err());
        });
        assert_eq!(*winner.lock(), vec![t0, t1]);
    }
}
