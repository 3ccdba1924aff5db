//! Elastic membership and checkpoint/restore surface of the
//! [`GpuManager`] — the methods that grow or shrink a live worker's device
//! complement and that carry a job across a restore boundary. Kept out of
//! `manager.rs` so the coordinator stays the slim event-loop wiring the
//! paper's decomposition calls for.
//!
//! Membership changes arrive two ways, both funneled through
//! [`GStreamManager::on_membership`](crate::gstream::GStreamManager):
//!
//! * **Scripted**: a [`MembershipPlan`] installed via
//!   [`GpuManager::set_membership_plan`] delivers joins and leaves *inside*
//!   the drain event loop, deterministically interleaved with scripted
//!   faults and pipeline events — the chaos-test path.
//! * **Immediate**: [`GpuManager::join_device`] / `leave_device` apply a
//!   change between drains (the `GpuFabric::join_node`/`leave_node` path).
//!   Between drains the stream layer is quiescent — nothing queued, penned,
//!   or in flight — so applying the change through the same handler with a
//!   throwaway event queue is exact: a join's stream wake-ups are
//!   re-created by the next drain's wake-all pass, and a leave has no
//!   flights to evacuate.
//!
//! Restore installs the snapshot's covered tags on the session;
//! `GpuManager::submit_for` consumes one tag per matching submission so a
//! restored work is satisfied from the snapshot exactly once (ledger:
//! `works_restored`), and everything after the snapshot frontier replays
//! normally.

use crate::checkpoint::CacheManifestEntry;
use crate::gstream::Engine;
use crate::manager::GpuManager;
use crate::recovery::Charge;
use crate::session::JobId;
use gflink_sim::{LedgerEntry, MembershipKind, MembershipPlan, SimTime};

impl GpuManager {
    /// Script membership changes (joins/leaves) against this worker.
    /// Events at instants the simulation has already passed fire
    /// immediately at the next drain, interleaved with scripted faults.
    pub fn set_membership_plan(&mut self, plan: MembershipPlan) {
        self.recovery.membership.set(plan);
    }

    /// Apply one membership event right now (between drains) through the
    /// same handler the scripted path uses, on the manager's event queue.
    /// The stream layer is quiescent between drains, so the queue can only
    /// be left holding a join's stream wake-ups — which the next drain's
    /// reset drops and its wake-all pass re-creates.
    fn apply_membership_now(&mut self, kind: MembershipKind, at: SimTime) {
        let registry = self.registry.lock().clone();
        let mut eng = Engine {
            gmem: &mut self.gmem,
            recovery: &mut self.recovery,
            sessions: &mut self.sessions,
            registry: &registry,
            rng: &mut self.rng,
        };
        self.queue.reset();
        self.gstream
            .on_membership(&mut eng, kind, &self.cfg, at, &mut self.queue);
        self.gstream.publish_metrics(&mut self.gmem);
    }

    /// A device joins the live worker at `at`: fresh stream bulk, fresh
    /// GWork queue, one new cache region per open session (partitioned per
    /// weights when cache partitioning is on). Returns the new device's
    /// index. The next drain's Alg. 5.2 wake-ups pull backlog onto it.
    pub fn join_device(&mut self, at: SimTime) -> usize {
        let g = self.gmem.gpu_count();
        self.apply_membership_now(MembershipKind::Join, at);
        g
    }

    /// Device `gpu` gracefully leaves the live worker at `at`: its cached
    /// blocks are invalidated and its budget returns to the survivors. Not
    /// a fault — the ledger records a membership change (`members_left`).
    pub fn leave_device(&mut self, gpu: usize, at: SimTime) {
        self.apply_membership_now(MembershipKind::Leave { gpu }, at);
    }

    /// Open `job` (weighted) as restored from a checkpoint: install the
    /// snapshot's covered tags on the session. Each subsequent
    /// [`submit_for`](GpuManager::submit_for) carrying a covered tag is
    /// satisfied from the snapshot instead of executing, consuming the tag
    /// — the exactly-once dedup across the restore boundary.
    pub fn restore_job(&mut self, job: JobId, weight: u32, tags: &[(u32, u32)]) {
        self.begin_job_weighted(job, weight);
        let session = self.sessions.get_mut(&job).expect("session just ensured");
        session.covered.extend(tags.iter().copied());
    }

    /// Deterministic manifest of `job`'s cached blocks across this
    /// worker's devices — what a checkpoint snapshots so a restored job
    /// knows which blocks were GPU-resident at the frontier.
    pub fn cache_manifest(&self, job: JobId) -> Vec<CacheManifestEntry> {
        let mut out = Vec::new();
        if let Some(s) = self.sessions.get(&job) {
            for (g, region) in s.regions.iter().enumerate() {
                for (key, bytes) in region.manifest() {
                    out.push(CacheManifestEntry {
                        worker: self.worker_id as u32,
                        gpu: g as u32,
                        key,
                        bytes,
                    });
                }
            }
        }
        out
    }

    /// Account works the closing `job` still had parked — in its
    /// backpressure pen or its pending queue — as abandoned in the fault
    /// ledger (`parked_abandoned`), so a `JobHandle` dropped mid-stream
    /// tears down without leaking unexecuted work unaccounted.
    pub(crate) fn abandon_leftovers(
        &mut self,
        job: JobId,
        session: &mut crate::session::JobSession,
    ) {
        let penned = self.gstream.sched.take_pen(job);
        let n = penned.len() as u64 + session.pending.len() as u64;
        session.pending.clear();
        if n > 0 {
            self.recovery
                .note(Charge::Job(session), LedgerEntry::ParkedAbandoned, n, None);
        }
    }
}
