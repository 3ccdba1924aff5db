//! Device memory.
//!
//! GPU device memory is "directly controlled by individual applications"
//! (§4.2) — there is no OS to reclaim it. [`DeviceMemory`] models a card's
//! DRAM: a capacity budget in *logical* bytes (the size the allocation would
//! have at paper scale) plus real backing storage in *actual* bytes holding
//! the data kernels compute on. The split is what lets a 3 GB C2050 be
//! modelled faithfully while the host process only materializes
//! scale-reduced data (see DESIGN.md §2).
//!
//! Allocations live in a generation-tagged slab: a [`DevBufId`] encodes
//! `(generation, slot)`, so every handle lookup is an array index (the
//! per-flight path used to pay five-plus SipHash probes per work), and a
//! stale handle — freed, reused, or wiped by device loss — still fails with
//! [`DmemError::BadHandle`]. Freed backing buffers are recycled per exact
//! size and re-zeroed on reuse, which keeps steady-state `alloc`/`release`
//! cycles off the host allocator without perturbing kernel results.

use gflink_memory::HBuffer;
use std::fmt;

/// Handle to a device allocation (an opaque `CUdeviceptr` analogue).
/// Packs `(generation << 32) | slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevBufId(u64);

impl DevBufId {
    fn new(slot: u32, gen: u32) -> Self {
        DevBufId((gen as u64) << 32 | slot as u64)
    }
    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Device-memory errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmemError {
    /// Not enough free device memory for the requested logical size.
    OutOfMemory {
        /// Bytes requested (logical).
        requested: u64,
        /// Bytes free (logical).
        free: u64,
    },
    /// Unknown or already-freed buffer handle.
    BadHandle,
    /// A mutable (output) buffer aliases another kernel argument.
    Aliased,
}

impl fmt::Display for DmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmemError::OutOfMemory { requested, free } => {
                write!(f, "device OOM: requested {requested} B, {free} B free")
            }
            DmemError::BadHandle => write!(f, "invalid device buffer handle"),
            DmemError::Aliased => write!(f, "output buffer aliases another kernel argument"),
        }
    }
}

impl std::error::Error for DmemError {}

/// The narrow device-memory surface higher layers (the core crate's
/// `GMemoryManager`) are allowed to drive: allocate, free, and capacity
/// queries. Everything else on [`DeviceMemory`] — data access, wipes,
/// upload/download — belongs to the device itself ([`crate::VirtualGpu`])
/// and stays off this trait, which is what makes the allocation contract
/// between the crates explicit.
pub trait DeviceMemoryOps {
    /// Allocate `logical_bytes` backed by `actual_bytes` of real storage.
    fn alloc(&mut self, logical_bytes: u64, actual_bytes: usize) -> Result<DevBufId, DmemError>;
    /// Free an allocation.
    fn release(&mut self, id: DevBufId) -> Result<(), DmemError>;
    /// Logical bytes free.
    fn free_bytes(&self) -> u64;
    /// Logical bytes currently allocated.
    fn used(&self) -> u64;
}

impl DeviceMemoryOps for DeviceMemory {
    fn alloc(&mut self, logical_bytes: u64, actual_bytes: usize) -> Result<DevBufId, DmemError> {
        DeviceMemory::alloc(self, logical_bytes, actual_bytes)
    }
    fn release(&mut self, id: DevBufId) -> Result<(), DmemError> {
        DeviceMemory::release(self, id)
    }
    fn free_bytes(&self) -> u64 {
        DeviceMemory::free_bytes(self)
    }
    fn used(&self) -> u64 {
        DeviceMemory::used(self)
    }
}

struct Allocation {
    logical_bytes: u64,
    data: HBuffer,
}

/// One slab slot: its current generation plus the live allocation, if any.
/// The generation advances every time the slot's allocation is destroyed,
/// so handles minted for earlier tenants go stale.
struct Slot {
    gen: u32,
    alloc: Option<Allocation>,
}

/// Soft cap on recycled backing bytes held for reuse. Steady-state flights
/// cycle a handful of block-sized buffers, so the spare list stays tiny;
/// the cap only bounds pathological size churn.
const SPARE_SOFT_BYTES: usize = 64 << 20;

/// A GPU's DRAM: logical capacity accounting + real backing buffers.
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    peak: u64,
    live: usize,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Freed backing buffers bucketed by exact byte size, re-zeroed on
    /// reuse (few distinct sizes in practice — linear scan beats hashing).
    spare: Vec<(usize, Vec<HBuffer>)>,
    spare_bytes: usize,
    total_allocs: u64,
    total_frees: u64,
    /// Reusable pointer scratch for [`DeviceMemory::with_buffers`] (stored
    /// as `usize` so the type stays `Send`).
    scratch_in: Vec<usize>,
    scratch_out: Vec<usize>,
}

impl DeviceMemory {
    /// A device with `capacity` logical bytes of DRAM.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            peak: 0,
            live: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            spare: Vec::new(),
            spare_bytes: 0,
            total_allocs: 0,
            total_frees: 0,
            scratch_in: Vec::new(),
            scratch_out: Vec::new(),
        }
    }

    /// Capacity in logical bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Logical bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Logical bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of logical usage.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Lifetime counts of (allocations, frees) — the redundant-allocation
    /// traffic the GPU cache scheme exists to avoid (§4.2.2).
    pub fn alloc_stats(&self) -> (u64, u64) {
        (self.total_allocs, self.total_frees)
    }

    /// A zeroed backing buffer of `actual_bytes`: recycled from the spare
    /// list when a matching size is pooled (memset instead of malloc),
    /// freshly allocated otherwise.
    fn backing(&mut self, actual_bytes: usize) -> HBuffer {
        for (sz, bufs) in &mut self.spare {
            if *sz == actual_bytes {
                if let Some(mut b) = bufs.pop() {
                    self.spare_bytes -= actual_bytes;
                    b.zero();
                    return b;
                }
                break;
            }
        }
        HBuffer::zeroed(actual_bytes)
    }

    /// Return a freed allocation's backing buffer to the spare list (or
    /// drop it once the soft cap is reached).
    fn recycle(&mut self, data: HBuffer) {
        let len = data.len();
        if len == 0 || self.spare_bytes + len > SPARE_SOFT_BYTES {
            return;
        }
        self.spare_bytes += len;
        for (sz, bufs) in &mut self.spare {
            if *sz == len {
                bufs.push(data);
                return;
            }
        }
        self.spare.push((len, vec![data]));
    }

    fn slot(&self, id: DevBufId) -> Result<&Allocation, DmemError> {
        self.slots
            .get(id.slot())
            .filter(|s| s.gen == id.gen())
            .and_then(|s| s.alloc.as_ref())
            .ok_or(DmemError::BadHandle)
    }

    fn slot_mut(&mut self, id: DevBufId) -> Result<&mut Allocation, DmemError> {
        self.slots
            .get_mut(id.slot())
            .filter(|s| s.gen == id.gen())
            .and_then(|s| s.alloc.as_mut())
            .ok_or(DmemError::BadHandle)
    }

    fn is_live(&self, id: DevBufId) -> bool {
        self.slot(id).is_ok()
    }

    /// Allocate `logical_bytes` of device memory backed by `actual_bytes`
    /// of zeroed real storage (`cudaMalloc` analogue).
    pub fn alloc(
        &mut self,
        logical_bytes: u64,
        actual_bytes: usize,
    ) -> Result<DevBufId, DmemError> {
        if logical_bytes > self.free_bytes() {
            return Err(DmemError::OutOfMemory {
                requested: logical_bytes,
                free: self.free_bytes(),
            });
        }
        let alloc = Allocation {
            logical_bytes,
            data: self.backing(actual_bytes),
        };
        let (slot, gen) = match self.free_slots.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.alloc = Some(alloc);
                (i, s.gen)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("device slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    alloc: Some(alloc),
                });
                (i, 0)
            }
        };
        self.used += logical_bytes;
        self.peak = self.peak.max(self.used);
        self.live += 1;
        self.total_allocs += 1;
        Ok(DevBufId::new(slot, gen))
    }

    /// Free a device allocation (`cudaFree` analogue).
    pub fn release(&mut self, id: DevBufId) -> Result<(), DmemError> {
        let s = self
            .slots
            .get_mut(id.slot())
            .filter(|s| s.gen == id.gen() && s.alloc.is_some())
            .ok_or(DmemError::BadHandle)?;
        let a = s.alloc.take().expect("checked above");
        s.gen = s.gen.wrapping_add(1);
        self.free_slots.push(id.slot() as u32);
        self.used -= a.logical_bytes;
        self.live -= 1;
        self.total_frees += 1;
        self.recycle(a.data);
        Ok(())
    }

    /// Logical size of an allocation.
    pub fn logical_size(&self, id: DevBufId) -> Result<u64, DmemError> {
        self.slot(id).map(|a| a.logical_bytes)
    }

    /// Read access to an allocation's backing data.
    pub fn data(&self, id: DevBufId) -> Result<&HBuffer, DmemError> {
        self.slot(id).map(|a| &a.data)
    }

    /// Write access to an allocation's backing data.
    pub fn data_mut(&mut self, id: DevBufId) -> Result<&mut HBuffer, DmemError> {
        self.slot_mut(id).map(|a| &mut a.data)
    }

    /// Borrow several allocations at once: `inputs` immutably and `outputs`
    /// mutably, as a kernel launch needs. The borrows are handed to `f` as
    /// plain slices built in reusable scratch (no per-launch allocation).
    ///
    /// Outputs must be pairwise distinct and distinct from every input
    /// (kernels may read an input twice, but an aliased output is
    /// [`DmemError::Aliased`]).
    pub fn with_buffers<R>(
        &mut self,
        inputs: &[DevBufId],
        outputs: &[DevBufId],
        f: impl for<'x> FnOnce(&'x [&'x HBuffer], &'x mut [&'x mut HBuffer]) -> R,
    ) -> Result<R, DmemError> {
        for (i, o) in outputs.iter().enumerate() {
            if outputs[..i].contains(o) || inputs.contains(o) {
                return Err(DmemError::Aliased);
            }
        }
        for id in inputs.iter().chain(outputs) {
            if !self.is_live(*id) {
                return Err(DmemError::BadHandle);
            }
        }
        let mut ins = std::mem::take(&mut self.scratch_in);
        let mut outs = std::mem::take(&mut self.scratch_out);
        for id in inputs {
            ins.push(&self.slot(*id).unwrap().data as *const HBuffer as usize);
        }
        for id in outputs {
            outs.push(&mut self.slot_mut(*id).unwrap().data as *mut HBuffer as usize);
        }
        // SAFETY: all handles were verified live; outputs are pairwise
        // distinct and disjoint from inputs, so the mutable reborrows are
        // unique and do not alias the shared ones. The slab is not mutated
        // while the pointers are live, and `&HBuffer`/`&mut HBuffer` are
        // thin pointers with `usize` layout.
        let r = unsafe {
            let ins_s = std::slice::from_raw_parts(ins.as_ptr().cast::<&HBuffer>(), ins.len());
            let outs_s = std::slice::from_raw_parts_mut(
                outs.as_mut_ptr().cast::<&mut HBuffer>(),
                outs.len(),
            );
            f(ins_s, outs_s)
        };
        ins.clear();
        outs.clear();
        self.scratch_in = ins;
        self.scratch_out = outs;
        Ok(r)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live
    }

    /// Drop every allocation at once, as device loss does: the contents are
    /// unrecoverable and all outstanding handles become invalid (further
    /// `release` calls on them return `BadHandle`). Returns how many
    /// allocations were destroyed. Not counted as frees in `alloc_stats` —
    /// nothing was returned to the allocator.
    pub fn wipe(&mut self) -> usize {
        let n = self.live;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.alloc.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
                self.free_slots.push(i as u32);
            }
        }
        self.used = 0;
        self.live = 0;
        n
    }

    /// Copy host bytes into a device allocation (the actual-data leg of
    /// `cudaMemcpyH2D`; timing is charged by the caller).
    pub fn upload(&mut self, id: DevBufId, host: &HBuffer) -> Result<(), DmemError> {
        let dst = self.data_mut(id)?;
        let n = host.len().min(dst.len());
        dst.copy_from(0, host, 0, n);
        Ok(())
    }

    /// Copy a device allocation's bytes back to the host.
    pub fn download(&self, id: DevBufId, host: &mut HBuffer) -> Result<(), DmemError> {
        let src = self.data(id)?;
        let n = host.len().min(src.len());
        host.copy_from(0, src, 0, n);
        Ok(())
    }
}

impl fmt::Debug for DeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DeviceMemory({}/{} logical bytes, {} live allocs)",
            self.used, self.capacity, self.live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(600, 64).unwrap();
        assert_eq!(m.used(), 600);
        let err = m.alloc(500, 64).unwrap_err();
        assert_eq!(
            err,
            DmemError::OutOfMemory {
                requested: 500,
                free: 400
            }
        );
        m.release(a).unwrap();
        assert_eq!(m.used(), 0);
        assert_eq!(m.peak(), 600);
        assert_eq!(m.alloc_stats(), (1, 1));
    }

    #[test]
    fn logical_and_actual_sizes_decouple() {
        let mut m = DeviceMemory::new(10_000_000_000); // 10 GB logical
        let a = m.alloc(1_000_000_000, 1024).unwrap(); // 1 GB logical, 1 KiB actual
        assert_eq!(m.logical_size(a).unwrap(), 1_000_000_000);
        assert_eq!(m.data(a).unwrap().len(), 1024);
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(512, 16).unwrap();
        let host = HBuffer::from_bytes(&[7u8; 16]);
        m.upload(a, &host).unwrap();
        let mut out = HBuffer::zeroed(16);
        m.download(a, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[7u8; 16]);
    }

    #[test]
    fn bad_handle_rejected() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(10, 8).unwrap();
        m.release(a).unwrap();
        assert_eq!(m.release(a), Err(DmemError::BadHandle));
        assert_eq!(m.logical_size(a), Err(DmemError::BadHandle));
    }

    #[test]
    fn recycled_slot_does_not_resurrect_stale_handle() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(10, 8).unwrap();
        m.data_mut(a).unwrap().write_u8(0, 9);
        m.release(a).unwrap();
        // The slot and its backing buffer are reused...
        let b = m.alloc(10, 8).unwrap();
        assert_ne!(a, b);
        // ...zeroed for the new tenant, with the old handle still dead.
        assert_eq!(m.data(b).unwrap().read_u8(0), 0);
        assert_eq!(m.data(a), Err(DmemError::BadHandle));
        assert_eq!(m.release(a), Err(DmemError::BadHandle));
    }

    #[test]
    fn wipe_invalidates_all_handles() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(10, 8).unwrap();
        let b = m.alloc(10, 8).unwrap();
        assert_eq!(m.wipe(), 2);
        assert_eq!(m.used(), 0);
        assert_eq!(m.live_allocations(), 0);
        assert_eq!(m.data(a), Err(DmemError::BadHandle));
        assert_eq!(m.release(b), Err(DmemError::BadHandle));
        // New allocations after a wipe mint fresh, live handles.
        let c = m.alloc(10, 8).unwrap();
        assert!(m.data(c).is_ok());
    }

    #[test]
    fn aliased_outputs_are_rejected() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(10, 8).unwrap();
        let b = m.alloc(10, 8).unwrap();
        let aliased = m.with_buffers(&[a], &[a], |_, _| ()).unwrap_err();
        assert_eq!(aliased, DmemError::Aliased);
        assert!(m.with_buffers(&[a], &[b], |_, _| ()).is_ok());
    }
}
