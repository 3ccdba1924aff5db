//! The GPU cache scheme (§4.2.2).
//!
//! Each job gets a cache *region* on every GPU, allocated at job start. A
//! hash table maps (dataset, partition, block) keys to device buffers; a
//! FIFO list orders entries for eviction. The paper describes two policies:
//!
//! * **FIFO** — when a new block does not fit, evict entries from the front
//!   of the FIFO list until it does;
//! * **StopWhenFull** — once the region is full, simply stop caching (the
//!   paper recommends this when one iteration's working set exceeds the
//!   region, where FIFO would thrash).
//!
//! `Disabled` exists for the Fig. 8a cache-off comparison.
//!
//! The cache tracks *logical* bytes; the device buffers it pins live in the
//! GPU's `DeviceMemory`, so cached bytes count against device capacity.

use crate::gwork::CacheKey;
use gflink_gpu::DevBufId;
use std::collections::{HashMap, VecDeque};

/// Cache management policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict in first-in-first-out order when the region is full.
    Fifo,
    /// Stop caching new blocks once the region is full.
    StopWhenFull,
    /// Never cache (baseline for Fig. 8a).
    Disabled,
}

/// One GPU's cache region for the running job.
#[derive(Debug)]
pub struct GpuCache {
    policy: CachePolicy,
    capacity: u64,
    used: u64,
    map: HashMap<CacheKey, (DevBufId, u64)>,
    fifo: VecDeque<CacheKey>,
    /// Pin counts: entries referenced by in-flight GWork may not be evicted
    /// (their device buffers are live kernel arguments).
    pins: HashMap<CacheKey, u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl GpuCache {
    /// A cache region of `capacity` logical bytes under `policy`.
    pub fn new(capacity: u64, policy: CachePolicy) -> Self {
        GpuCache {
            policy,
            capacity,
            used: 0,
            map: HashMap::new(),
            fifo: VecDeque::new(),
            pins: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Region capacity in logical bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Logical bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses, evictions) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Look up `key`, recording a hit or miss. Disabled caches always miss.
    pub fn lookup(&mut self, key: CacheKey) -> Option<DevBufId> {
        if self.policy == CachePolicy::Disabled {
            self.misses += 1;
            return None;
        }
        match self.map.get(&key) {
            Some(&(dev, _)) => {
                self.hits += 1;
                Some(dev)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching the hit/miss counters (used by the Alg. 5.1
    /// locality query).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.policy != CachePolicy::Disabled && self.map.contains_key(&key)
    }

    /// Every resident entry as `(key, logical_bytes)`, sorted by key — a
    /// deterministic cache *manifest*, snapshotted into checkpoints so a
    /// restore (or a post-mortem) can see exactly what each region held.
    pub fn manifest(&self) -> Vec<(CacheKey, u64)> {
        let mut out: Vec<(CacheKey, u64)> = self
            .map
            .iter()
            .map(|(&k, &(_, bytes))| (k, bytes))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| (k.dataset, k.partition, k.block));
        out
    }

    /// Logical bytes of `keys` resident in this cache — the quantity the
    /// GMemoryManager sums per GPU to pick the locality winner (Alg. 5.1).
    pub fn resident_bytes(&self, keys: impl IntoIterator<Item = CacheKey>) -> u64 {
        if self.policy == CachePolicy::Disabled {
            return 0;
        }
        keys.into_iter()
            .filter_map(|k| self.map.get(&k).map(|&(_, b)| b))
            .sum()
    }

    /// Pin `key`: it may not be evicted until unpinned (its device buffer
    /// is an argument of an in-flight kernel).
    pub fn pin(&mut self, key: CacheKey) {
        *self.pins.entry(key).or_insert(0) += 1;
    }

    /// Release one pin on `key`.
    pub fn unpin(&mut self, key: CacheKey) {
        match self.pins.get_mut(&key) {
            Some(1) => {
                self.pins.remove(&key);
            }
            Some(n) => *n -= 1,
            None => {}
        }
    }

    fn is_pinned(&self, key: &CacheKey) -> bool {
        self.pins.contains_key(key)
    }

    /// Pop the oldest *unpinned* FIFO victim, if any.
    fn pop_victim(&mut self) -> Option<(CacheKey, DevBufId, u64)> {
        for _ in 0..self.fifo.len() {
            let key = self.fifo.pop_front()?;
            if self.is_pinned(&key) {
                self.fifo.push_back(key);
                continue;
            }
            let (dev, sz) = self.map.remove(&key).expect("fifo/map out of sync");
            return Some((key, dev, sz));
        }
        None
    }

    /// Decide whether a block of `bytes` may be inserted, evicting under
    /// FIFO as needed. Returns the device buffers the caller must release
    /// plus whether the insert may proceed (`false` = do not cache: policy
    /// forbids it or everything evictable is pinned).
    pub fn make_room(&mut self, bytes: u64) -> (Vec<DevBufId>, bool) {
        match self.policy {
            CachePolicy::Disabled => (Vec::new(), false),
            _ if bytes > self.capacity => (Vec::new(), false),
            CachePolicy::StopWhenFull => (Vec::new(), self.used + bytes <= self.capacity),
            CachePolicy::Fifo => {
                let mut evicted = Vec::new();
                while self.used + bytes > self.capacity {
                    match self.pop_victim() {
                        Some((_, dev, sz)) => {
                            self.used -= sz;
                            self.evictions += 1;
                            evicted.push(dev);
                        }
                        // Everything left is pinned: the freed buffers must
                        // still be released, but the block cannot be cached.
                        None => return (evicted, false),
                    }
                }
                (evicted, true)
            }
        }
    }

    /// Insert an entry after a successful [`GpuCache::make_room`]. Panics if
    /// the entry does not fit (callers must respect `make_room`).
    ///
    /// Re-inserting a live key returns the replaced entry's device buffer —
    /// the caller must release it, or device memory leaks.
    #[must_use = "a replaced entry's device buffer must be released"]
    pub fn insert(&mut self, key: CacheKey, dev: DevBufId, bytes: u64) -> Option<DevBufId> {
        assert!(
            self.policy != CachePolicy::Disabled,
            "insert into disabled cache"
        );
        assert!(
            self.used + bytes <= self.capacity,
            "cache overflow: make_room not called"
        );
        let replaced = self.map.insert(key, (dev, bytes)).map(|(old_dev, old)| {
            // Re-inserting an existing key: keep accounting consistent.
            self.used -= old;
            self.fifo.retain(|k| *k != key);
            old_dev
        });
        self.used += bytes;
        self.fifo.push_back(key);
        replaced
    }

    /// Re-budget the region to `capacity` logical bytes (cross-job cache
    /// partitioning), evicting oldest unpinned entries until the contents
    /// fit. Returns the device buffers the caller must release. Pinned
    /// overflow is tolerated — `used` may exceed the new capacity until the
    /// in-flight works unpin; `make_room` handles that state safely.
    #[must_use = "evicted entries' device buffers must be released"]
    pub fn set_capacity(&mut self, capacity: u64) -> Vec<DevBufId> {
        self.capacity = capacity;
        let mut freed = Vec::new();
        while self.used > self.capacity {
            match self.pop_victim() {
                Some((_, dev, sz)) => {
                    self.used -= sz;
                    self.evictions += 1;
                    freed.push(dev);
                }
                None => break,
            }
        }
        freed
    }

    /// Evict the oldest *unpinned* entry regardless of policy
    /// (memory-pressure path: a transient allocation needs device memory
    /// more than the cache does). Returns the device buffer to release, or
    /// `None` when empty or fully pinned.
    pub fn evict_one(&mut self) -> Option<DevBufId> {
        let (_, dev, sz) = self.pop_victim()?;
        self.used -= sz;
        self.evictions += 1;
        Some(dev)
    }

    /// Drop every entry, returning the device buffers to release (job end:
    /// "the cache region of a specific job ... is released when the job
    /// finishes").
    pub fn clear(&mut self) -> Vec<DevBufId> {
        assert!(
            self.pins.is_empty(),
            "clearing a cache with pinned entries (in-flight work)"
        );
        let devs = self.map.drain().map(|(_, (d, _))| d).collect();
        self.fifo.clear();
        self.used = 0;
        devs
    }

    /// Forget every entry — pinned or not — without returning device
    /// buffers. This is the device-loss path: the backing memory is already
    /// wiped, so the handles are dead, and in-flight works pinning entries
    /// are themselves being recovered (their later `unpin` calls are
    /// harmless no-ops). Returns how many entries were invalidated.
    pub fn invalidate_all(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.fifo.clear();
        self.pins.clear();
        self.used = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gflink_gpu::DeviceMemory;

    fn key(b: u32) -> CacheKey {
        CacheKey {
            dataset: 7,
            partition: 1,
            block: b,
        }
    }

    /// Allocate a real device buffer to pair with cache entries.
    fn dev(mem: &mut DeviceMemory, bytes: u64) -> DevBufId {
        mem.alloc(bytes, 8).unwrap()
    }

    #[test]
    fn fifo_evicts_oldest_first() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        for b in 0..4 {
            let d = dev(&mut mem, 30);
            let (evicted, ok) = c.make_room(30);
            assert!(ok);
            assert_eq!(evicted.len(), if b < 3 { 0 } else { 1 });
            assert_eq!(c.insert(key(b), d, 30), None);
        }
        // Blocks 1,2,3 remain; block 0 was evicted.
        assert!(!c.contains(key(0)));
        assert!(c.contains(key(1)));
        assert_eq!(c.used(), 90);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn stop_when_full_refuses_but_keeps_existing() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::StopWhenFull);
        let d0 = dev(&mut mem, 60);
        assert!(c.make_room(60).1);
        let _ = c.insert(key(0), d0, 60);
        // Next block doesn't fit: refused, nothing evicted.
        assert_eq!(c.make_room(60), (vec![], false));
        assert!(c.contains(key(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = GpuCache::new(1000, CachePolicy::Disabled);
        assert_eq!(c.make_room(10), (vec![], false));
        assert_eq!(c.lookup(key(0)), None);
        assert_eq!(c.resident_bytes([key(0)]), 0);
        assert_eq!(c.stats(), (0, 1, 0));
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        assert_eq!(c.lookup(key(0)), None); // miss
        let d = dev(&mut mem, 10);
        assert!(c.make_room(10).1);
        let _ = c.insert(key(0), d, 10);
        assert_eq!(c.lookup(key(0)), Some(d)); // hit
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn resident_bytes_sums_only_present_keys() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        let d = dev(&mut mem, 40);
        assert!(c.make_room(40).1);
        let _ = c.insert(key(1), d, 40);
        assert_eq!(c.resident_bytes([key(0), key(1)]), 40);
    }

    #[test]
    fn oversized_block_never_cached() {
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        assert_eq!(c.make_room(101), (vec![], false));
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        let d0 = dev(&mut mem, 60);
        assert!(c.make_room(60).1);
        let _ = c.insert(key(0), d0, 60);
        c.pin(key(0));
        // Wants 60 more: key(0) is the only victim but pinned -> refused.
        let (evicted, ok) = c.make_room(60);
        assert!(evicted.is_empty());
        assert!(!ok);
        assert!(c.contains(key(0)));
        assert_eq!(c.evict_one(), None);
        // Unpin and the same request succeeds.
        c.unpin(key(0));
        let (evicted, ok) = c.make_room(60);
        assert_eq!(evicted.len(), 1);
        assert!(ok);
    }

    #[test]
    fn clear_returns_all_buffers() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        for b in 0..3 {
            let d = dev(&mut mem, 20);
            assert!(c.make_room(20).1);
            assert_eq!(c.insert(key(b), d, 20), None);
        }
        let devs = c.clear();
        assert_eq!(devs.len(), 3);
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_same_key_updates_in_place() {
        let mut mem = DeviceMemory::new(10_000);
        let mut c = GpuCache::new(100, CachePolicy::Fifo);
        let d1 = dev(&mut mem, 30);
        assert!(c.make_room(30).1);
        assert_eq!(c.insert(key(0), d1, 30), None);
        let d2 = dev(&mut mem, 50);
        assert!(c.make_room(50).1);
        // The replaced entry's buffer comes back for release.
        assert_eq!(c.insert(key(0), d2, 50), Some(d1));
        assert_eq!(c.used(), 50);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(key(0)), Some(d2));
    }
}
