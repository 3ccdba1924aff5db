#![warn(clippy::too_many_lines)]

//! GMemoryManager (§4.2): the device-memory half of the GPUManager.
//!
//! Owns the worker's [`VirtualGpu`]s and everything that touches device
//! memory: buffer allocation with cache-eviction pressure, the H2D staging
//! of a work's inputs (including the §4.2.2 cache insert/pin protocol), and
//! the reclamation of a finished or recovered work's buffers. Device memory
//! is driven exclusively through the narrow [`DeviceMemoryOps`] trait — the
//! explicit surface the memory layer needs from a device.
//!
//! Cache *regions* are per job (owned by each
//! [`JobSession`](crate::session::JobSession)); this type mints them at job
//! start, frees their device buffers at job end, and preserves the
//! hit/miss/eviction statistics of retired regions so whole-worker cache
//! accounting survives session teardown.

use crate::cache::{CachePolicy, GpuCache};
use crate::config::TransferConfig;
use crate::flight::Member;
use crate::gwork::{CacheKey, GWork};
use crate::recovery::ManagerError;
use gflink_gpu::{
    DevBufId, DeviceError, DeviceMemoryOps, DmemError, GpuModel, TransferMode, VirtualGpu,
};
use gflink_memory::{HBuffer, PinnedLease, PinnedPool, PinnedStats};
use gflink_sim::trace::{gpu_pid, Cat, TraceEvent, TID_DEVICE};
use gflink_sim::{Counter, Metrics, SimTime, Tally, Tracer};

/// Where one flight member's inputs live on the device: what stage 1
/// (H2D) builds and [`GMemoryManager::reclaim`] tears down.
#[derive(Default)]
pub(crate) struct Placement {
    /// Device buffers, one per work input, in input order.
    pub dev_inputs: Vec<DevBufId>,
    /// Buffers to free once the member leaves the device.
    pub transient: Vec<DevBufId>,
    /// Cache keys pinned for the duration of the member.
    pub pinned: Vec<CacheKey>,
}

/// Result of staging a flight's inputs onto a device (stage 1, H2D). Each
/// member's [`Placement`] and H2D timing land on the member itself.
pub(crate) struct Staged {
    /// Pinned-pool leases backing the H2D copies; held until the copies
    /// land (the kernel stage), then released for recycling.
    pub staging: Vec<PinnedLease>,
    /// When the first H2D copy engine reservation starts; `None` when every
    /// input was a cache hit (no copy issued).
    pub h2d_start: Option<SimTime>,
    /// When the last H2D copy lands (the first kernel's earliest launch).
    pub kernel_earliest: SimTime,
    /// Input copies issued (one per cache miss).
    pub copies: usize,
    /// Set when staging failed; the partial placement is on the members
    /// and must be reclaimed by the caller, `staging` released.
    pub failure: Option<ManagerError>,
}

/// `logical/total` of `dur`, in integer nanoseconds (a member's share of a
/// fused copy's engine time).
pub(crate) fn pro_rata(dur: SimTime, logical: u64, total: u64) -> SimTime {
    if total == 0 {
        return SimTime::ZERO;
    }
    SimTime::from_nanos((dur.as_nanos() as u128 * logical as u128 / total as u128) as u64)
}

/// Soft budget of registered (page-locked) staging bytes per worker.
/// Buffers acquired beyond it are unregistered on release instead of
/// recycled.
const PINNED_POOL_BYTES: u64 = 64 << 20;

/// The device-memory half of the per-worker GPU manager.
pub struct GMemoryManager {
    gpus: Vec<VirtualGpu>,
    cache_capacity: u64,
    cache_policy: CachePolicy,
    /// (hits, misses, evictions) carried over from retired job regions,
    /// per GPU, so worker-level cache stats survive session teardown.
    retired_stats: Vec<(u64, u64, u64)>,
    /// Reusable page-locked host staging buffers (§4.1.2: registration is
    /// paid once, recycled for the life of the worker).
    pinned_pool: PinnedPool,
    /// Recycled flight-bookkeeping `Vec` allocations (ISSUE 7): the
    /// device-input, transient, pin, and staging lists of every flight
    /// cycle through these pools instead of the host allocator.
    dev_vecs: Vec<Vec<DevBufId>>,
    key_vecs: Vec<Vec<CacheKey>>,
    lease_vecs: Vec<Vec<PinnedLease>>,
    /// Input copies staged but not yet issued, `(member, input, device
    /// buffer, index of the staging lease)`, kept between flights for its
    /// allocation.
    pending_copies: Vec<(usize, usize, DevBufId, Option<usize>)>,
    /// Host-side staging behaviour of the transfer channel.
    mode: TransferMode,
    tracer: Tracer,
    worker_id: usize,
    /// Cumulative (hits, misses) per GPU, sampled into trace counters.
    trace_cache: Vec<(u64, u64)>,
    /// The live-metrics plane (disabled by default); kept so devices that
    /// join later inherit it like they inherit the tracer.
    metrics: Metrics,
    /// Per-GPU live cache counters: (hits, misses, evictions); the per-work
    /// hit and miss feeds are tallies (see [`Self::publish_metrics`]).
    m_cache: Vec<(Tally, Tally, Counter)>,
}

impl GMemoryManager {
    /// Build the memory manager over `models`, with per-GPU cache regions
    /// of `cache_capacity` logical bytes (clamped to 3/4 of device memory)
    /// under `cache_policy`, staging transfers per `transfer`.
    pub fn new(
        models: &[GpuModel],
        cache_capacity: u64,
        cache_policy: CachePolicy,
        transfer: &TransferConfig,
    ) -> Self {
        let mut gpus: Vec<VirtualGpu> = models
            .iter()
            .enumerate()
            .map(|(i, &m)| VirtualGpu::new(i, m))
            .collect();
        if transfer.mode != TransferMode::Pinned {
            for g in &mut gpus {
                g.set_transfer_mode(transfer.mode);
            }
        }
        let n = gpus.len();
        GMemoryManager {
            gpus,
            cache_capacity,
            cache_policy,
            retired_stats: vec![(0, 0, 0); n],
            pinned_pool: PinnedPool::new(PINNED_POOL_BYTES),
            dev_vecs: Vec::new(),
            key_vecs: Vec::new(),
            lease_vecs: Vec::new(),
            pending_copies: Vec::new(),
            mode: transfer.mode,
            tracer: Tracer::disabled(),
            worker_id: 0,
            trace_cache: vec![(0, 0); n],
            metrics: Metrics::disabled(),
            m_cache: vec![Default::default(); n],
        }
    }

    /// Attach the live-metrics plane: registers per-device cache and
    /// engine counter series and hands each [`VirtualGpu`] its handles.
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics, worker_id: usize) {
        self.metrics = metrics.clone();
        self.worker_id = worker_id;
        for i in 0..self.gpus.len() {
            self.register_device_metrics(i);
        }
    }

    /// Register the live-metrics series for device `gpu` (no-op handles
    /// when the plane is disabled).
    fn register_device_metrics(&mut self, gpu: usize) {
        let w = self.worker_id;
        let m = &self.metrics;
        let labels = format!("{{worker=\"{w}\",gpu=\"{gpu}\"}}");
        self.m_cache[gpu].0.publish();
        self.m_cache[gpu].1.publish();
        self.m_cache[gpu] = (
            Tally::new(m.counter(
                &format!("gflink_cache_hits_total{labels}"),
                "GPU cache region hits",
            )),
            Tally::new(m.counter(
                &format!("gflink_cache_misses_total{labels}"),
                "GPU cache region misses",
            )),
            m.counter(
                &format!("gflink_cache_evictions_total{labels}"),
                "GPU cache region evictions",
            ),
        );
        self.gpus[gpu].set_metrics(
            m.counter(
                &format!("gflink_kernel_launches_total{labels}"),
                "Kernels launched on the device",
            ),
            m.counter(
                &format!("gflink_bytes_h2d_total{labels}"),
                "Bytes copied host-to-device",
            ),
            m.counter(
                &format!("gflink_bytes_d2h_total{labels}"),
                "Bytes copied device-to-host",
            ),
        );
    }

    /// Publish the tallied per-device cache and device counters to the
    /// live-metrics plane (before every sample and at quiescence).
    pub(crate) fn publish_metrics(&mut self) {
        for ((hits, misses, _), gpu) in self.m_cache.iter_mut().zip(&mut self.gpus) {
            hits.publish();
            misses.publish();
            gpu.publish_metrics();
        }
    }

    /// Attach a tracer: names one trace process per device and hands each
    /// [`VirtualGpu`] its engine-span emitter.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer, worker_id: usize) {
        for (i, gpu) in self.gpus.iter_mut().enumerate() {
            let pid = gpu_pid(worker_id, i);
            if tracer.enabled() {
                tracer.name_process(
                    pid,
                    &format!("worker{worker_id}/gpu{i} ({})", gpu.spec().model.name()),
                );
            }
            gpu.set_tracer(tracer.clone(), pid);
        }
        self.tracer = tracer;
        self.worker_id = worker_id;
    }

    /// Emit a cache hit/miss instant plus the GPU's cumulative counters.
    fn trace_cache_event(&mut self, gpu: usize, hit: bool, key: CacheKey, t: SimTime) {
        if hit {
            self.m_cache[gpu].0.inc();
        } else {
            self.m_cache[gpu].1.inc();
        }
        if !self.tracer.enabled() {
            return;
        }
        let (h, m) = &mut self.trace_cache[gpu];
        if hit {
            *h += 1;
        } else {
            *m += 1;
        }
        let (h, m) = (*h, *m);
        let pid = gpu_pid(self.worker_id, gpu);
        self.tracer.record(
            TraceEvent::instant(
                pid,
                TID_DEVICE,
                Cat::Cache,
                if hit { "hit" } else { "miss" },
                t,
            )
            .with_arg("partition", key.partition)
            .with_arg("block", key.block),
        );
        self.tracer.record(TraceEvent::counter(
            pid,
            TID_DEVICE,
            Cat::Cache,
            "cache_hits",
            t,
            h as i64,
        ));
        self.tracer.record(TraceEvent::counter(
            pid,
            TID_DEVICE,
            Cat::Cache,
            "cache_misses",
            t,
            m as i64,
        ));
    }

    /// Emit a cache-eviction instant.
    fn trace_eviction(&self, gpu: usize, t: SimTime) {
        self.m_cache[gpu].2.inc();
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::instant(
                gpu_pid(self.worker_id, gpu),
                TID_DEVICE,
                Cat::Cache,
                "evict",
                t,
            ));
        }
    }

    /// Grow the complement: a fresh device of `model` joins as the next
    /// index. It inherits the worker's transfer mode and tracer (its trace
    /// process appears the moment it joins). Returns the new device index.
    pub(crate) fn join_device(&mut self, model: GpuModel) -> usize {
        let i = self.gpus.len();
        let mut gpu = VirtualGpu::new(i, model);
        if self.mode != TransferMode::Pinned {
            gpu.set_transfer_mode(self.mode);
        }
        let pid = gpu_pid(self.worker_id, i);
        if self.tracer.enabled() {
            self.tracer.name_process(
                pid,
                &format!(
                    "worker{}/gpu{i} ({})",
                    self.worker_id,
                    gpu.spec().model.name()
                ),
            );
        }
        gpu.set_tracer(self.tracer.clone(), pid);
        self.gpus.push(gpu);
        self.retired_stats.push((0, 0, 0));
        self.trace_cache.push((0, 0));
        self.m_cache.push(Default::default());
        if self.metrics.enabled() {
            self.register_device_metrics(i);
        }
        i
    }

    /// Retire device `gpu` gracefully (elastic leave): no further
    /// launches, device memory released, traced as an administrative
    /// departure. Returns how many allocations were released.
    pub(crate) fn retire_device(&mut self, gpu: usize, at: SimTime) -> usize {
        self.gpus[gpu].retire(at)
    }

    /// A fresh cache region for a single device (a joining member's slice
    /// of an already-open job).
    pub(crate) fn new_region_for(&self, gpu: usize) -> GpuCache {
        GpuCache::new(self.region_capacity(gpu), self.cache_policy)
    }

    /// Number of GPUs managed.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Immutable access to a GPU.
    pub fn gpu(&self, i: usize) -> &VirtualGpu {
        &self.gpus[i]
    }

    pub(crate) fn gpu_mut(&mut self, i: usize) -> &mut VirtualGpu {
        &mut self.gpus[i]
    }

    /// Whether device `gpu` is still usable (healthy or degraded).
    pub fn usable(&self, gpu: usize) -> bool {
        self.gpus[gpu].health().is_usable()
    }

    /// Number of devices still usable.
    pub fn usable_gpus(&self) -> usize {
        (0..self.gpus.len()).filter(|&g| self.usable(g)).count()
    }

    /// The device-memory surface of GPU `gpu`, as the explicit trait the
    /// memory layer is written against.
    fn dmem(&mut self, gpu: usize) -> &mut dyn DeviceMemoryOps {
        &mut self.gpus[gpu].dmem
    }

    /// Mint a fresh set of per-GPU cache regions for a starting job
    /// (§4.2.2: "a cache region is created when a job starts").
    pub(crate) fn new_regions(&self) -> Vec<GpuCache> {
        self.gpus
            .iter()
            .map(|g| {
                let cap = self.cache_capacity.min(g.spec().dev_mem_bytes * 3 / 4);
                GpuCache::new(cap, self.cache_policy)
            })
            .collect()
    }

    /// The full cache-region byte budget on GPU `gpu` — what
    /// [`new_regions`](Self::new_regions) grants a region before any
    /// cross-job partitioning shrinks it.
    pub(crate) fn region_capacity(&self, gpu: usize) -> u64 {
        self.cache_capacity
            .min(self.gpus[gpu].spec().dev_mem_bytes * 3 / 4)
    }

    /// Free specific device buffers on GPU `gpu` — the overflow evicted by
    /// a cache-partition rebalance shrinking a live region.
    pub(crate) fn release_buffers(&mut self, gpu: usize, devs: Vec<DevBufId>) {
        for dev in devs {
            let _ = self.dmem(gpu).release(dev);
        }
    }

    /// Re-divide each GPU's cache-region budget across live sessions in
    /// proportion to their weights (opt-in via
    /// `SchedulerConfig::partition_cache`), evicting overflow from regions
    /// that shrank. Off = every region keeps the full budget. Runs on job
    /// open/close and on every membership change, so a joining device's
    /// regions are born partitioned and a leaver's budget returns to the
    /// survivors.
    pub(crate) fn rebalance_regions(
        &mut self,
        sessions: &mut std::collections::BTreeMap<
            crate::session::JobId,
            crate::session::JobSession,
        >,
        partition: bool,
    ) {
        if !partition {
            return;
        }
        let total: u64 = sessions.values().map(|s| u64::from(s.weight)).sum();
        if total == 0 {
            return;
        }
        for g in 0..self.gpu_count() {
            if !self.usable(g) {
                continue;
            }
            let base = self.region_capacity(g);
            let mut freed = Vec::new();
            for s in sessions.values_mut() {
                let cap = base * u64::from(s.weight) / total;
                freed.extend(s.regions[g].set_capacity(cap));
            }
            self.release_buffers(g, freed);
        }
    }

    /// Free the device buffers behind a job's cache regions (job end,
    /// §4.2.2). The regions stay alive (emptied); statistics are preserved
    /// in them, not retired.
    pub(crate) fn release_regions(&mut self, regions: &mut [GpuCache]) {
        for (g, region) in regions.iter_mut().enumerate() {
            for dev in region.clear() {
                let _ = self.dmem(g).release(dev);
            }
        }
    }

    /// Fold a departing job's per-region cache statistics into the
    /// worker-level retired totals. Call once, just before dropping the
    /// regions — never on regions that stay alive, or stats double-count.
    pub(crate) fn retire_regions(&mut self, regions: &[GpuCache]) {
        for (g, region) in regions.iter().enumerate() {
            let (h, m, e) = region.stats();
            let acc = &mut self.retired_stats[g];
            acc.0 += h;
            acc.1 += m;
            acc.2 += e;
        }
    }

    /// (hits, misses, evictions) carried over from retired job regions on
    /// GPU `gpu`.
    pub(crate) fn retired_stats(&self, gpu: usize) -> (u64, u64, u64) {
        self.retired_stats[gpu]
    }

    /// Allocate device memory, evicting entries of the job's own cache
    /// region under pressure. Exhausting both free memory and the evictable
    /// region is a typed error, not a panic: the caller sends the work
    /// through the retry path (a later attempt may find memory released by
    /// finished works). Eviction pressure never touches another job's
    /// region.
    pub(crate) fn alloc_with_pressure(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        logical: u64,
        actual: usize,
        t: SimTime,
    ) -> Result<DevBufId, ManagerError> {
        loop {
            match self.dmem(gpu).alloc(logical, actual) {
                Ok(id) => return Ok(id),
                Err(DmemError::OutOfMemory { .. }) => match region.evict_one() {
                    Some(dev) => {
                        let _ = self.dmem(gpu).release(dev);
                        self.trace_eviction(gpu, t);
                    }
                    None => {
                        return Err(ManagerError::OutOfMemory {
                            gpu,
                            requested: logical,
                            free: self.dmem(gpu).free_bytes(),
                        })
                    }
                },
                Err(e) => return Err(ManagerError::Device(DeviceError::Mem(e))),
            }
        }
    }

    /// In pinned mode, route `data` through a page-locked pool buffer:
    /// lease one (recycled when possible) and memcpy into it. Registration
    /// charges no simulated time: the fitted Table 2 α already covers it.
    fn lease_staging(&mut self, owner: u64, data: &HBuffer) -> Option<PinnedLease> {
        if self.mode != TransferMode::Pinned || data.is_empty() {
            return None;
        }
        let lease = self.pinned_pool.acquire(owner, data.len());
        self.pinned_pool
            .buffer_mut(&lease)
            .copy_from(0, data, 0, data.len());
        Some(lease)
    }

    /// Return staging leases to the pinned pool for recycling (the copies
    /// they backed have landed). The list's own allocation is recycled too.
    pub(crate) fn release_staging(&mut self, mut leases: Vec<PinnedLease>) {
        for lease in leases.drain(..) {
            self.pinned_pool.release(lease);
        }
        self.lease_vecs.push(leases);
    }

    fn take_dev_vec(&mut self) -> Vec<DevBufId> {
        self.dev_vecs.pop().unwrap_or_default()
    }

    fn take_key_vec(&mut self) -> Vec<CacheKey> {
        self.key_vecs.pop().unwrap_or_default()
    }

    fn take_lease_vec(&mut self) -> Vec<PinnedLease> {
        self.lease_vecs.pop().unwrap_or_default()
    }

    fn put_dev_vec(&mut self, mut v: Vec<DevBufId>) {
        v.clear();
        self.dev_vecs.push(v);
    }

    fn put_key_vec(&mut self, mut v: Vec<CacheKey>) {
        v.clear();
        self.key_vecs.push(v);
    }

    /// Drop a departing job's pinned-pool accounting.
    pub(crate) fn retire_pool_owner(&mut self, owner: u64) {
        self.pinned_pool.retire_owner(owner);
    }

    /// Whole-worker pinned staging-pool accounting.
    pub fn pinned_stats(&self) -> PinnedStats {
        self.pinned_pool.stats()
    }

    /// One job's pinned staging-pool accounting.
    pub fn pinned_owner_stats(&self, owner: u64) -> PinnedStats {
        self.pinned_pool.owner_stats(owner)
    }

    /// (registered, peak registered, peak concurrently leased) bytes of the
    /// pinned staging pool.
    pub fn pinned_pool_bytes(&self) -> (u64, u64, u64) {
        (
            self.pinned_pool.registered_bytes(),
            self.pinned_pool.peak_registered_bytes(),
            self.pinned_pool.peak_in_use_bytes(),
        )
    }

    /// Pinned staging bytes currently leased to in-flight copies.
    pub fn pinned_in_use_bytes(&self) -> u64 {
        self.pinned_pool.in_use_bytes()
    }

    /// A fresh member placement built from the recycled `Vec` pools.
    fn take_placement(&mut self) -> Placement {
        Placement {
            dev_inputs: self.take_dev_vec(),
            transient: self.take_dev_vec(),
            pinned: self.take_key_vec(),
        }
    }

    /// Place input `j` of member `mb` from the job's cache region when it
    /// is resident there, pinning it for the member's lifetime; `false` on
    /// a miss.
    fn place_hit(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        mb: &mut Member,
        j: usize,
        t: SimTime,
    ) -> bool {
        let Some((key, dev)) = mb.work.inputs[j]
            .cache_key
            .and_then(|key| region.lookup(key).map(|dev| (key, dev)))
        else {
            return false;
        };
        mb.timing.cache_hits += 1;
        region.pin(key);
        mb.place.pinned.push(key);
        mb.place.dev_inputs.push(dev);
        self.trace_cache_event(gpu, true, key, t);
        true
    }

    /// Place input `j` of member `mb`, which missed the cache, in device
    /// buffer `dev`: the §4.2.2 insert/pin protocol for cacheable inputs,
    /// a transient buffer otherwise.
    fn place_miss(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        mb: &mut Member,
        j: usize,
        dev: DevBufId,
        t: SimTime,
    ) {
        let inbuf = &mb.work.inputs[j];
        let mut keep = false;
        if let Some(key) = inbuf.cache_key {
            mb.timing.cache_misses += 1;
            self.trace_cache_event(gpu, false, key, t);
            let (evicted, may_insert) = region.make_room(inbuf.logical_bytes);
            for d in evicted {
                let _ = self.dmem(gpu).release(d);
                self.trace_eviction(gpu, t);
            }
            if may_insert {
                if let Some(old) = region.insert(key, dev, inbuf.logical_bytes) {
                    let _ = self.dmem(gpu).release(old);
                }
                region.pin(key);
                mb.place.pinned.push(key);
                keep = true;
            }
        }
        if !keep {
            mb.place.transient.push(dev);
        }
        mb.place.dev_inputs.push(dev);
    }

    /// Stage 1 (H2D): bring every member's inputs onto device `gpu`,
    /// skipped per-buffer on cache hits against the job's region (a later
    /// member can hit a key an earlier member just inserted). Every cached
    /// buffer a member references is pinned until its D2H completes, so
    /// concurrent works cannot evict a live kernel argument. In pinned mode
    /// each copy is fed from a pool staging buffer (leases ride in the
    /// result until the copies land).
    ///
    /// A flight of one issues one copy call per input as it stages. A
    /// larger flight folds every miss into one fused call after the loop,
    /// paying α once.
    pub(crate) fn stage(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        owner: u64,
        members: &mut [Member],
        t: SimTime,
    ) -> Staged {
        let fused = members.len() > 1;
        let mut staged = Staged {
            staging: self.take_lease_vec(),
            h2d_start: None,
            kernel_earliest: t,
            copies: 0,
            failure: None,
        };
        let mut pending = std::mem::take(&mut self.pending_copies);
        'members: for m in 0..members.len() {
            members[m].place = self.take_placement();
            for j in 0..members[m].work.inputs.len() {
                if self.place_hit(region, gpu, &mut members[m], j, t) {
                    continue;
                }
                let inbuf = &members[m].work.inputs[j];
                let alloc =
                    self.alloc_with_pressure(region, gpu, inbuf.logical_bytes, inbuf.data.len(), t);
                let dev = match alloc {
                    Ok(dev) => dev,
                    Err(e) => {
                        staged.failure = Some(e);
                        break 'members;
                    }
                };
                let lease = self.lease_staging(owner, &inbuf.data).map(|l| {
                    staged.staging.push(l);
                    staged.staging.len() - 1
                });
                pending.push((m, j, dev, lease));
                if !fused {
                    let copied = self.copy_pending(gpu, members, &pending, &mut staged, t);
                    pending.clear();
                    if let Err(e) = copied {
                        members[m].place.transient.push(dev);
                        staged.failure = Some(e);
                        break 'members;
                    }
                }
                self.place_miss(region, gpu, &mut members[m], j, dev, t);
            }
        }
        if staged.failure.is_none() && !pending.is_empty() {
            let copied = self.copy_pending(gpu, members, &pending, &mut staged, t);
            staged.failure = copied.err();
        }
        pending.clear();
        self.pending_copies = pending;
        staged
    }

    /// Issue one H2D copy call from `t` for the `pending` input copies,
    /// `(member, input, device buffer, staging lease)`, fused when the
    /// flight has more than one member. A flight of one owns the call's
    /// whole reservation; members of a larger flight take their pro-rata
    /// share by bytes.
    fn copy_pending(
        &mut self,
        gpu: usize,
        members: &mut [Member],
        pending: &[(usize, usize, DevBufId, Option<usize>)],
        staged: &mut Staged,
        t: SimTime,
    ) -> Result<(), ManagerError> {
        let fused = members.len() > 1;
        let items = pending.iter().map(|&(m, j, dev, lease)| {
            let inbuf = &members[m].work.inputs[j];
            let src = match lease {
                Some(i) => self.pinned_pool.buffer(&staged.staging[i]),
                None => &inbuf.data,
            };
            (inbuf.logical_bytes, src, dev)
        });
        let r = self.gpus[gpu]
            .copy_h2d(t, items, fused)
            .map_err(ManagerError::Device)?;
        let total = pending
            .iter()
            .map(|&(m, j, ..)| members[m].work.inputs[j].logical_bytes)
            .sum();
        for &(m, j, ..) in pending {
            let mb = &mut members[m];
            let logical = mb.work.inputs[j].logical_bytes;
            mb.timing.h2d += if fused {
                pro_rata(r.duration(), logical, total)
            } else {
                r.duration()
            };
            mb.timing.bytes_h2d += logical;
        }
        staged.h2d_start = Some(staged.h2d_start.map_or(r.start, |s| s.min(r.start)));
        staged.kernel_earliest = staged.kernel_earliest.max(r.end);
        staged.copies += pending.len();
        Ok(())
    }

    /// Allocate a work's output buffer under cache pressure.
    pub(crate) fn alloc_output(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        work: &GWork,
        t: SimTime,
    ) -> Result<DevBufId, ManagerError> {
        self.alloc_with_pressure(
            region,
            gpu,
            work.out_logical_bytes,
            work.out_actual_bytes,
            t,
        )
    }

    /// Release a recovered or finished flight's device buffers and cache
    /// pins (automatic deallocation, §4.2.1). A `None` `out_dev` means the
    /// output was never allocated. No-ops harmlessly after device loss
    /// (handles are dead, pins were cleared). The flight's bookkeeping
    /// `Vec`s — including the input-handle list, whose buffers are either
    /// transient or cache-owned — go back to the pools for the next flight.
    pub(crate) fn reclaim(
        &mut self,
        region: &mut GpuCache,
        gpu: usize,
        place: Placement,
        out_dev: Option<DevBufId>,
    ) {
        let Placement {
            dev_inputs,
            mut transient,
            mut pinned,
        } = place;
        for d in transient.drain(..) {
            let _ = self.dmem(gpu).release(d);
        }
        for key in pinned.drain(..) {
            region.unpin(key);
        }
        if let Some(dev) = out_dev {
            let _ = self.dmem(gpu).release(dev);
        }
        self.put_dev_vec(dev_inputs);
        self.put_dev_vec(transient);
        self.put_key_vec(pinned);
    }
}
