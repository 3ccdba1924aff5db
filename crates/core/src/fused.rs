#![warn(clippy::too_many_lines)]

//! Small-GWork transfer batching: the batch-under-backlog accumulator.
//!
//! Dispatching a tiny GWork pays the transfer channel's per-call overhead α
//! twice (H2D and D2H) for very little payload — at the Table 2 fit, a
//! 2 KiB copy is ~74% α. When the fabric is saturated, small works that
//! would *queue anyway* are instead coalesced into a `PendingBatch` and
//! later dispatched as one flight (`crate::flight`) of several members: a
//! single fused H2D reservation (one α for every member copy), the member
//! kernels back-to-back on one stream, and a single fused D2H. Results are
//! split back per member, so a batched work's output bytes — and therefore
//! every digest downstream — are identical to the unbatched run.
//!
//! Batches only form under backlog (the dispatch path consults the batcher
//! only after Algorithm 5.1 found no idle stream), and a freed stream
//! flushes its GPU's batcher before going idle, so enabling batching never
//! delays work an idle stream could have taken. A window
//! event (`Ev::FlushBatch`) bounds how long a partial batch
//! may wait; epochs guard against stale windows.

use crate::flight::Parked;
use crate::gstream::{Ev, GStreamManager, QueuedWork};
use crate::gwork::GWork;
use gflink_sim::{EventQueue, SimTime};

/// A per-GPU accumulating batch: works land here from the dispatch park
/// path until a flush condition (fill, job change, window, or an idle
/// stream) moves it to the queue.
pub(crate) struct PendingBatch {
    pub(crate) batch: Parked,
    pub(crate) bytes: u64,
    /// Identity guarding the window event against stale firings.
    pub(crate) epoch: u64,
}

fn work_bytes(work: &GWork) -> u64 {
    work.inputs.iter().map(|b| b.logical_bytes).sum()
}

impl GStreamManager {
    /// Whether a work that is about to be parked should accumulate into a
    /// transfer batch instead: batching on, first attempt (retried works
    /// always run solo so recovery stays simple), and small enough that α
    /// dominates its copies.
    pub(crate) fn batchable(&self, retries: u32, work: &GWork) -> bool {
        self.batch_cfg.enabled
            && retries == 0
            // Split children always run solo: the cost model already sized
            // them for their engine.
            && !crate::gstream::is_split_child(work.tag)
            && work_bytes(work) <= self.batch_cfg.small_work_bytes
    }

    /// Park a small work into GPU `gpu`'s accumulating batch, flushing on
    /// job change or when the batch reaches its fill thresholds. A fresh
    /// batch arms a window event so a lull cannot strand it.
    pub(crate) fn enqueue_batched(
        &mut self,
        qw: QueuedWork,
        gpu: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // One job per batch: a different tenant's pending batch flushes.
        if self.batchers[gpu]
            .as_ref()
            .is_some_and(|b| b.batch.job() != qw.job)
        {
            self.flush_batcher(gpu);
        }
        let bytes = work_bytes(&qw.work);
        let b = match &mut self.batchers[gpu] {
            Some(b) => {
                b.batch.rest.push(qw);
                b.bytes += bytes;
                b
            }
            None => {
                let epoch = self.batch_epoch;
                self.batch_epoch += 1;
                q.schedule(t + self.batch_cfg.window, Ev::FlushBatch { gpu, epoch });
                let batch = Parked {
                    head: qw,
                    rest: self.batch_vecs.pop().unwrap_or_default(),
                };
                self.batchers[gpu].insert(PendingBatch {
                    batch,
                    bytes,
                    epoch,
                })
            }
        };
        if b.batch.len() >= self.batch_cfg.max_works || b.bytes >= self.batch_cfg.max_bytes {
            self.flush_batcher(gpu);
        }
    }

    /// Move GPU `gpu`'s accumulating batch to its queue. A lone member
    /// parks as a batch of one and flies solo: fusing one work would pay
    /// batching's bookkeeping for no α savings.
    pub(crate) fn flush_batcher(&mut self, gpu: usize) {
        if let Some(b) = self.batchers[gpu].take() {
            self.sched.park(gpu, b.batch);
        }
    }

    /// The batching window expired: flush the pending batch (unless it was
    /// already flushed or superseded — the epoch tells) and wake an idle
    /// stream so a fully idle fabric cannot strand the flushed work.
    pub(crate) fn on_flush_batch(
        &mut self,
        gpu: usize,
        epoch: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if self.batchers[gpu].as_ref().is_none_or(|b| b.epoch != epoch) {
            return;
        }
        self.flush_batcher(gpu);
        if let Some(s) = self.first_idle_stream(gpu, t) {
            q.schedule(t, Ev::StreamFree { gpu, stream: s });
        } else if self.policy.steals() {
            if let Some((g, s)) = self.most_idle_bulk(t) {
                q.schedule(t, Ev::StreamFree { gpu: g, stream: s });
            }
        }
    }
}
