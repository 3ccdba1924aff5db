//! `PinnedPool`: reusable page-locked host staging buffers.
//!
//! The paper's transfer channel (§4.1.2) reaches full PCIe bandwidth by
//! copying out of *page-locked* (pinned) host memory, which the DMA engine
//! can address directly. Registering memory with the driver
//! (`cudaHostRegister` / `cudaHostAlloc`) is expensive, so real runtimes —
//! CrystalGPU's buffer reuse is the canonical example — pay it once and
//! recycle the registered buffers for the life of the process.
//!
//! [`PinnedPool`] models that discipline over [`HBuffer`]s: `acquire`
//! returns a lease on a registered staging buffer at least as large as the
//! request, preferring an idle recycled buffer (a pool *hit*, no
//! registration) and registering a fresh one only on a *miss*. Releasing a
//! lease returns the buffer to the free list; buffers acquired beyond the
//! soft capacity are unregistered on release instead of recycled, so the
//! registered high-water mark tracks real concurrent demand. Hits, misses
//! and bytes are accounted per owner (job), which is what the per-job
//! rollups report.

use crate::hbuffer::HBuffer;
use std::collections::BTreeMap;

/// A lease on one pinned staging buffer. Returned by
/// [`PinnedPool::acquire`]; hand it back with [`PinnedPool::release`].
#[derive(Debug)]
pub struct PinnedLease {
    slot: usize,
    generation: u64,
    /// Bytes newly registered to satisfy this lease (0 on a pool hit).
    pub registered_bytes: u64,
    /// Owner tag the lease's accounting was charged to.
    pub owner: u64,
}

/// Per-owner staging-pool accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PinnedStats {
    /// Acquisitions served by a recycled registered buffer.
    pub hits: u64,
    /// Acquisitions that had to register a fresh buffer.
    pub misses: u64,
    /// Total bytes staged through the pool.
    pub bytes: u64,
}

struct Slot {
    buf: HBuffer,
    generation: u64,
    in_use: bool,
    /// Acquired past the soft capacity: unregister on release.
    overflow: bool,
}

/// A pool of reusable page-locked host staging buffers.
pub struct PinnedPool {
    slots: Vec<Slot>,
    /// Free slots keyed by buffer length (first-fit-of-sufficient-size).
    free: BTreeMap<usize, Vec<usize>>,
    /// Soft budget of registered bytes; beyond it, buffers are registered
    /// transiently and unregistered on release.
    capacity: u64,
    registered: u64,
    peak_registered: u64,
    in_use_bytes: u64,
    peak_in_use: u64,
    total: PinnedStats,
    per_owner: BTreeMap<u64, PinnedStats>,
}

impl PinnedPool {
    /// A pool with a soft budget of `capacity` registered bytes.
    pub fn new(capacity: u64) -> Self {
        PinnedPool {
            slots: Vec::new(),
            free: BTreeMap::new(),
            capacity,
            registered: 0,
            peak_registered: 0,
            in_use_bytes: 0,
            peak_in_use: 0,
            total: PinnedStats::default(),
            per_owner: BTreeMap::new(),
        }
    }

    /// Lease a registered staging buffer of at least `len` bytes for
    /// `owner`, recycling the smallest sufficient idle buffer when one
    /// exists. The buffer's contents are stale on a hit — callers overwrite
    /// the first `len` bytes before handing it to the DMA engine.
    pub fn acquire(&mut self, owner: u64, len: usize) -> PinnedLease {
        let stats = self.per_owner.entry(owner).or_default();
        stats.bytes += len as u64;
        self.total.bytes += len as u64;
        // Smallest free buffer that fits.
        let found = self
            .free
            .range_mut(len..)
            .next()
            .and_then(|(&size, v)| v.pop().map(|slot| (size, slot)));
        let (slot, registered_bytes) = match found {
            Some((size, slot)) => {
                if self.free.get(&size).is_some_and(Vec::is_empty) {
                    self.free.remove(&size);
                }
                stats.hits += 1;
                self.total.hits += 1;
                (slot, 0)
            }
            None => {
                stats.misses += 1;
                self.total.misses += 1;
                let overflow = self.registered + len as u64 > self.capacity;
                let slot = self.slots.len();
                self.slots.push(Slot {
                    buf: HBuffer::zeroed(len),
                    generation: 0,
                    in_use: false,
                    overflow,
                });
                self.registered += len as u64;
                self.peak_registered = self.peak_registered.max(self.registered);
                (slot, len as u64)
            }
        };
        let s = &mut self.slots[slot];
        debug_assert!(!s.in_use, "free-list slot already leased");
        s.in_use = true;
        s.generation += 1;
        self.in_use_bytes += s.buf.len() as u64;
        self.peak_in_use = self.peak_in_use.max(self.in_use_bytes);
        PinnedLease {
            slot,
            generation: s.generation,
            registered_bytes,
            owner,
        }
    }

    /// The leased buffer, for filling and for handing to the DMA engine.
    pub fn buffer(&self, lease: &PinnedLease) -> &HBuffer {
        let s = &self.slots[lease.slot];
        assert!(
            s.in_use && s.generation == lease.generation,
            "stale pinned lease"
        );
        &s.buf
    }

    /// Mutable view of the leased buffer (staging copy destination).
    pub fn buffer_mut(&mut self, lease: &PinnedLease) -> &mut HBuffer {
        let s = &mut self.slots[lease.slot];
        assert!(
            s.in_use && s.generation == lease.generation,
            "stale pinned lease"
        );
        &mut s.buf
    }

    /// Return a lease to the pool. In-budget buffers go back on the free
    /// list for recycling; overflow buffers are unregistered. Stale leases
    /// (already released) are ignored.
    pub fn release(&mut self, lease: PinnedLease) {
        let s = &mut self.slots[lease.slot];
        if !s.in_use || s.generation != lease.generation {
            return;
        }
        s.in_use = false;
        let len = s.buf.len();
        self.in_use_bytes -= len as u64;
        if s.overflow {
            // Keep the slot (ids stay stable) but drop the backing storage
            // and its registered accounting.
            s.buf = HBuffer::zeroed(0);
            s.overflow = false;
            self.registered -= len as u64;
        } else {
            self.free.entry(len).or_default().push(lease.slot);
        }
    }

    /// Whole-pool accounting (hits, misses, bytes staged).
    pub fn stats(&self) -> PinnedStats {
        self.total
    }

    /// `owner`'s accounting (zeros when the owner never staged).
    pub fn owner_stats(&self, owner: u64) -> PinnedStats {
        self.per_owner.get(&owner).copied().unwrap_or_default()
    }

    /// Drop `owner`'s accounting (job teardown); returns the final stats.
    pub fn retire_owner(&mut self, owner: u64) -> PinnedStats {
        self.per_owner.remove(&owner).unwrap_or_default()
    }

    /// Currently registered bytes.
    pub fn registered_bytes(&self) -> u64 {
        self.registered
    }

    /// High-water mark of registered bytes.
    pub fn peak_registered_bytes(&self) -> u64 {
        self.peak_registered
    }

    /// Bytes currently leased out (zero once every copy has landed).
    pub fn in_use_bytes(&self) -> u64 {
        self.in_use_bytes
    }

    /// High-water mark of concurrently leased bytes.
    pub fn peak_in_use_bytes(&self) -> u64 {
        self.peak_in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_buffers_and_counts_hits() {
        let mut p = PinnedPool::new(1 << 20);
        let a = p.acquire(1, 1024);
        assert_eq!(a.registered_bytes, 1024);
        p.buffer_mut(&a).write_u32(0, 7);
        p.release(a);
        // Same size comes back from the free list.
        let b = p.acquire(1, 1024);
        assert_eq!(b.registered_bytes, 0, "recycled, not re-registered");
        // Contents are stale by contract — the hit really reused storage.
        assert_eq!(p.buffer(&b).read_u32(0), 7);
        p.release(b);
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(p.registered_bytes(), 1024);
    }

    #[test]
    fn first_fit_prefers_smallest_sufficient() {
        let mut p = PinnedPool::new(1 << 20);
        let big = p.acquire(1, 4096);
        let small = p.acquire(1, 512);
        p.release(big);
        p.release(small);
        let c = p.acquire(1, 256);
        assert_eq!(c.registered_bytes, 0);
        assert_eq!(p.buffer(&c).len(), 512, "smallest sufficient wins");
        p.release(c);
    }

    #[test]
    fn concurrent_leases_get_distinct_buffers() {
        let mut p = PinnedPool::new(1 << 20);
        let a = p.acquire(1, 64);
        let b = p.acquire(1, 64);
        assert_ne!(p.buffer(&a).address(), p.buffer(&b).address());
        assert_eq!(p.peak_in_use_bytes(), 128);
        p.release(a);
        p.release(b);
    }

    #[test]
    fn overflow_beyond_capacity_is_unregistered_on_release() {
        let mut p = PinnedPool::new(1000);
        let a = p.acquire(1, 800);
        let b = p.acquire(1, 800); // past the soft budget
        assert_eq!(p.registered_bytes(), 1600);
        assert_eq!(p.peak_registered_bytes(), 1600);
        p.release(b);
        assert_eq!(p.registered_bytes(), 800, "overflow buffer unregistered");
        p.release(a);
        assert_eq!(p.registered_bytes(), 800, "in-budget buffer recycled");
        // The overflow slot is gone from the free list: a new 800 B request
        // hits the recycled in-budget buffer.
        let c = p.acquire(1, 800);
        assert_eq!(c.registered_bytes, 0);
        p.release(c);
    }

    #[test]
    fn per_owner_accounting_is_isolated() {
        let mut p = PinnedPool::new(1 << 20);
        let a = p.acquire(7, 128);
        p.release(a);
        let b = p.acquire(9, 128);
        p.release(b);
        assert_eq!(p.owner_stats(7), p.retire_owner(7));
        assert_eq!(p.owner_stats(7), PinnedStats::default());
        let nine = p.owner_stats(9);
        assert_eq!((nine.hits, nine.misses, nine.bytes), (1, 0, 128));
    }

    #[test]
    fn stale_lease_release_is_ignored() {
        let mut p = PinnedPool::new(1 << 20);
        let a = p.acquire(1, 64);
        let (slot, generation) = (a.slot, a.generation);
        p.release(a);
        let b = p.acquire(1, 64); // bumps the generation on the same slot
        p.release(PinnedLease {
            slot,
            generation,
            registered_bytes: 0,
            owner: 1,
        });
        assert!(p.slots[b.slot].in_use, "live lease unaffected");
        p.release(b);
    }
}
