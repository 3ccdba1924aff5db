//! One GPU map pass, worker by worker (DESIGN.md §14, "Worker-parallel
//! GDST operators").
//!
//! A worker's *step* produces that worker's blocks into its own
//! [`GpuManager`] and then drains it. A producer reserves only its own
//! worker's task slots, and a manager owns its sessions, event queue,
//! devices, RNG, fault plan, arena and cost model, so no step reads what
//! another writes: every simulated timeline is the same whichever thread
//! runs a step, and in whatever order. [`Pass::run`] runs the steps on
//! scoped threads when that pays, and in worker order on the caller
//! otherwise; everything after the drains is folded by the caller, in
//! worker order, either way.

use super::{block_cut, part_rows, Block, GpuFabric, Part};
use crate::gwork::{CacheKey, CompletedWork, WorkBuf};
use crate::lowering::GpuMapSpec;
use crate::manager::GpuManager;
use crate::session::JobId;
use gflink_flink::SharedCluster;
use gflink_memory::{DataLayout, GRecord, GStructDef, HBuffer, RecordView};
use gflink_sim::{Reservation, SimTime};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Fewest blocks a worker must hold in one op to count toward a parallel
/// pass. A scoped spawn + join costs 33–60 µs on a shared 2-vCPU VM, and
/// one GPU-flight GWork ≈ 3.5 µs of wall time, so a thread repays itself
/// only over hundreds of works. pointadd-hybrid (≈ 97 blocks per worker
/// per pass) ran 36% slower in wall time with a spawn per op; kmeans-iter
/// holds ≈ 1,145 blocks per worker per op.
const MIN_PARALLEL_BLOCKS: usize = 256;

/// One pass of a GPU map over a GDST's partitions: what every worker's
/// step shares, read-only. It holds blocks, the spec and the fabric, never
/// a record — a [`GRecord`] is `Send` but not `Sync` — so one `&Pass`
/// serves every thread.
pub(super) struct Pass<'a, T, U> {
    pub parts: &'a [Part],
    pub layout: DataLayout,
    pub scale: f64,
    /// The input GDST's identity, the scope of its blocks' cache keys.
    pub dataset: u64,
    pub spec: &'a GpuMapSpec,
    /// The operator name, interned once; every block shares it.
    pub op_name: Arc<str>,
    pub job: JobId,
    pub cluster: &'a SharedCluster,
    pub fabric: &'a GpuFabric,
    /// Scheduling delay before a partition's producer starts.
    pub sched: SimTime,
    pub records: PhantomData<fn() -> (T, U)>,
}

/// What the producers did, folded over workers.
pub(super) struct Produced {
    /// Earliest producer slot reservation.
    pub wall_start: SimTime,
    /// Latest submit instant.
    pub last_submit: SimTime,
    /// Logical elements submitted.
    pub elements: u64,
}

impl Produced {
    /// Nothing produced: the identity of [`Produced::merge`].
    const NONE: Produced = Produced {
        wall_start: SimTime::MAX,
        last_submit: SimTime::ZERO,
        elements: 0,
    };

    fn merge(self, o: Produced) -> Produced {
        Produced {
            wall_start: self.wall_start.min(o.wall_start),
            last_submit: self.last_submit.max(o.last_submit),
            elements: self.elements + o.elements,
        }
    }
}

impl<T: GRecord, U: GRecord> Pass<'_, T, U> {
    /// Produce and drain every worker's blocks. Returns the producers'
    /// figures and each worker's completions, in worker order.
    pub(super) fn run(&self) -> (Produced, Vec<Vec<CompletedWork>>) {
        let (produced, drained): (Vec<_>, Option<Vec<_>>) = self.fabric.with_managers(|managers| {
            if self.in_worker_order(managers) {
                let steps = managers.iter_mut().enumerate();
                return (steps.map(|(w, m)| self.produce(w, m)).collect(), None);
            }
            let steps = on_threads(managers, |w, m| {
                let produced = self.produce(w, m);
                (produced, m.drain_job(self.job))
            });
            let (produced, drained) = steps.into_iter().unzip();
            (produced, Some(drained))
        });
        let produced = produced.into_iter().fold(Produced::NONE, Produced::merge);
        // Concurrency barrier: under a job gate (concurrent tenants driven
        // by `run_concurrent`-style harnesses), wait here until every
        // co-tenant at or behind this frontier has also submitted, so the
        // shared drain event loop below sees all jobs' works and cross-job
        // arbitration has a real choice. A solo run passes straight
        // through. No locks are held across this wait.
        gflink_flink::gate::checkpoint(produced.last_submit);
        let drained = drained.unwrap_or_else(|| {
            self.fabric
                .with_managers(|ms| ms.iter_mut().map(|m| m.drain_job(self.job)).collect())
        });
        (produced, drained)
    }

    /// Whether the steps must run in worker order on the calling thread.
    fn in_worker_order(&self, managers: &[GpuManager]) -> bool {
        // The shared trace ring and the metrics plane's sample cursor
        // record emission order.
        managers.iter().any(GpuManager::observed)
            // A job gate passes its baton between every producer and every
            // drain.
            || gflink_flink::gate::active()
            // A spawn must be repaid by two workers' worth of blocks.
            || self.busy_workers(managers.len()) < 2
            // Threads would only take turns on one core.
            || !multi_core()
    }

    /// Workers holding at least [`MIN_PARALLEL_BLOCKS`] blocks in this
    /// pass.
    fn busy_workers(&self, workers: usize) -> usize {
        let (size, block_bytes) = (T::def().size(), self.fabric.cfg.block_bytes);
        let mut blocks = vec![0usize; workers];
        for part in self.parts {
            blocks[part.worker] += block_cut(part_rows(part), self.scale, size, block_bytes).len();
        }
        blocks.iter().filter(|&&b| b >= MIN_PARALLEL_BLOCKS).count()
    }

    /// Worker `w`'s producer: each of its partitions' pinned slot
    /// assembles one GWork per block and submits it to `m`.
    fn produce(&self, w: usize, m: &mut GpuManager) -> Produced {
        let def = T::def();
        let overhead = self.fabric.cfg.producer_overhead;
        let mut out = Produced::NONE;
        for (p, part) in self.parts.iter().enumerate() {
            if part.worker != w {
                continue;
            }
            let n_act = part_rows(part);
            let n_log = n_act as f64 * self.scale;
            out.elements += n_log as u64;
            // Zero-copy path: the resident bytes, already in the GDST's
            // layout, are what goes to the device.
            let blocks = self.blocks_for_pass(part, def);
            // The producer occupies its task slot briefly per block. The
            // slots are reserved under one cluster lock per partition, and
            // the works are built once it is released, so the other
            // workers' producers wait only for the reservations.
            let mut cursor = part.ready + self.sched;
            let slots: Vec<Reservation> = {
                let mut cl = self.cluster.lock();
                let slots = &mut cl.workers[w].slots;
                (blocks.iter())
                    .map(|_| {
                        let r = slots.reserve_on(part.slot, cursor, overhead);
                        cursor = r.end;
                        r
                    })
                    .collect()
            };
            for (b, (block, r)) in blocks.iter().zip(&slots).enumerate() {
                let rows = block.rows;
                let n_logical = (n_log * rows as f64 / n_act.max(1) as f64).round() as u64;
                out.wall_start = out.wall_start.min(r.start);
                let (data, bytes) = (Arc::clone(&block.buf), n_logical * def.size() as u64);
                let tag = (p as u32, b as u32);
                let input = if self.spec.cache_input {
                    let key = CacheKey {
                        dataset: self.dataset,
                        partition: tag.0,
                        block: tag.1,
                    };
                    WorkBuf::cached(data, bytes, key)
                } else {
                    WorkBuf::transient(data, bytes)
                };
                let name = Arc::clone(&self.op_name);
                let work = (self.spec).work::<T, U>(name, input, self.layout, rows, n_logical, tag);
                m.submit_for(self.job, work, r.end);
                out.last_submit = out.last_submit.max(r.end);
            }
        }
        out
    }

    /// `part`'s blocks cut for a pass over records of `def`: the resident
    /// blocks themselves when they already sit on the cut with exactly the
    /// bytes their rows need, otherwise new blocks copied row-contiguously
    /// from them. Only AoS blocks — map outputs — can be off the cut: a
    /// GDST built by `to_gdst` is encoded on it.
    fn blocks_for_pass<'p>(&self, part: &'p Part, def: &GStructDef) -> Cow<'p, [Block]> {
        let block_bytes = self.fabric.cfg.block_bytes;
        let cut = block_cut(part_rows(part), self.scale, def.size(), block_bytes);
        let on_cut = cut.len() == part.data.len()
            && cut.clone().zip(&part.data).all(|(rows, blk)| {
                blk.rows == rows.len()
                    && blk.buf.len() == RecordView::required_bytes(def, self.layout, blk.rows)
            });
        if on_cut {
            return Cow::Borrowed(&part.data);
        }
        assert_eq!(self.layout, DataLayout::Aos, "only AoS blocks are re-cut");
        let size = def.size();
        let mut src = part.data.iter().map(|b| &b.buf.as_slice()[..b.rows * size]);
        let mut rest: &[u8] = &[];
        Cow::Owned(
            cut.map(|rows| {
                let mut buf = HBuffer::zeroed(rows.len() * size);
                let mut dst = buf.as_mut_slice();
                while !dst.is_empty() {
                    while rest.is_empty() {
                        rest = src.next().expect("the cut covers exactly the stored rows");
                    }
                    let n = rest.len().min(dst.len());
                    let (head, tail) = std::mem::take(&mut dst).split_at_mut(n);
                    head.copy_from_slice(&rest[..n]);
                    rest = &rest[n..];
                    dst = tail;
                }
                Block {
                    buf: Arc::new(buf),
                    rows: rows.len(),
                }
            })
            .collect(),
        )
    }
}

/// Whether this process may run on more than one core. Probed on the
/// first pass that passes the other checks, once per process: the probe
/// reads the affinity mask and cgroup limits on every call (≈ 50 µs the
/// first time, ≈ 20 µs after), more than a whole small job's set-up.
fn multi_core() -> bool {
    static MULTI: OnceLock<bool> = OnceLock::new();
    *MULTI.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// `step(w, manager)` for every manager: worker 0's on the calling thread,
/// each further worker's on a scoped thread of its own. Returns the
/// results in worker order. A panic on a worker thread is re-raised here
/// with its own payload.
fn on_threads<R: Send>(
    managers: &mut [GpuManager],
    step: impl Fn(usize, &mut GpuManager) -> R + Sync,
) -> Vec<R> {
    let Some((first, rest)) = managers.split_first_mut() else {
        return Vec::new();
    };
    let step = &step;
    std::thread::scope(|s| {
        let spawned: Vec<_> = (rest.iter_mut().enumerate())
            .map(|(i, m)| s.spawn(move || step(i + 1, m)))
            .collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(step(0, first));
        for handle in spawned {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        out
    })
}
