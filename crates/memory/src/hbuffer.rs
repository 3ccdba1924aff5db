//! `HBuffer`: an aligned off-heap byte buffer.
//!
//! The Rust analogue of the paper's Java *direct buffer*: a raw byte region
//! outside the managed object graph, with a stable address, suitable for
//! DMA-style transfer to the (virtual) GPU. All typed accessors use
//! little-endian order — the byte order both x86 hosts and NVIDIA devices
//! use, which is what lets GFlink ship bytes unmodified.
//!
//! Small buffers are recycled per thread, as the paper's transfer channel
//! reuses its direct buffers (§4.1). This is the one recycler of host
//! result buffers: host-placed and GPU-flight outputs alike are plain
//! `HBuffer`s. A buffer of at most [`RECYCLE_MAX_LEN`] bytes at
//! [`DEFAULT_ALIGN`] that its allocating thread drops goes back to an
//! exact-size free list of that thread, and
//! the next buffer of that size the thread asks for is taken from there
//! and zeroed, so a recycled buffer is bit-identical to a fresh one. Each
//! thread keeps at most [`RECYCLE_CAP_BYTES`], and never more buffers than
//! it has alive, and frees the rest. A buffer dropped on another thread is
//! freed, so a thread that drops more buffers than it allocates (a caller
//! folding a worker thread's outputs) holds none of them.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, Ordering};

/// Default alignment for direct buffers: one cache line.
pub const DEFAULT_ALIGN: usize = 64;

/// Largest buffer the per-thread recycler keeps. GWork outputs, host-placed
/// or from a GPU flight's D2H stage, and the GDST blocks of small-record
/// passes (≈ 0.8 KiB for PointAdd) sit well below it; q6's 16–64 KiB
/// window buffers stay on the allocator, where glibc serves them well
/// (DESIGN.md §14).
pub const RECYCLE_MAX_LEN: usize = 4096;

/// Bytes one thread's recycler holds at most; a buffer dropped past it is
/// freed. One pass of PointAdd's blocks (≈ 195 buffers of 824 B, 157 KiB)
/// fits, and a thread never strands more than this.
pub const RECYCLE_CAP_BYTES: usize = 256 << 10;

/// Distinct sizes one thread's recycler tracks. A lookup scans them, so
/// they stay few; a buffer of a new size takes over a size whose list is
/// empty, or is freed when every list still holds buffers.
const RECYCLE_SIZES: usize = 16;

/// One thread's exact-size free lists of recyclable buffers: `lens[i]`
/// bytes each in `free[i]` (`lens[i]` is 0 for a size never used).
///
/// The lists hold no more buffers than the thread has recyclable buffers
/// alive (`spares ≤ live`). A pipeline that allocates a pass's outputs
/// while the previous pass's blocks are alive keeps a pass's worth, and a
/// thread whose buffers all die, as at a job's teardown, ends with none:
/// spares kept past a teardown pin freed chunks apart in the heap, and the
/// next set-up's allocations paid for it.
struct Recycler {
    /// This thread's identity as a buffer's home (0 until first used).
    id: u32,
    /// Bytes the lists hold.
    held: usize,
    /// Buffers the lists hold.
    spares: usize,
    /// Recyclable buffers this thread allocated that are alive. One that
    /// dies on another thread stays counted, which loosens this thread's
    /// bound; the byte cap still holds.
    live: usize,
    lens: [usize; RECYCLE_SIZES],
    free: [Vec<NonNull<u8>>; RECYCLE_SIZES],
}

thread_local! {
    static RECYCLER: RefCell<Recycler> = const { RefCell::new(Recycler::EMPTY) };
}

impl Recycler {
    const EMPTY: Recycler = Recycler {
        id: 0,
        held: 0,
        spares: 0,
        live: 0,
        lens: [0; RECYCLE_SIZES],
        free: [const { Vec::new() }; RECYCLE_SIZES],
    };

    /// Whether a buffer of this shape may enter the lists.
    fn fits(len: usize, align: usize) -> bool {
        len != 0 && len <= RECYCLE_MAX_LEN && align == DEFAULT_ALIGN
    }

    /// This thread's identity as a buffer's home, drawn once per thread.
    fn home(&mut self) -> u32 {
        /// Next thread identity; 0 means "no home".
        static NEXT: AtomicU32 = AtomicU32::new(1);
        if self.id == 0 {
            // Relaxed: the number publishes no other data. It wraps after
            // 2³² threads, past which two threads may share an identity
            // and a buffer may be kept by a thread that did not allocate
            // it, which only moves it between lists of the same layout.
            self.id = NEXT.fetch_add(1, Ordering::Relaxed).max(1);
        }
        self.id
    }

    /// Count a new recyclable buffer of `len` bytes as alive, and hand
    /// out a held one of exactly that size if there is one.
    fn lend(&mut self, len: usize) -> Option<NonNull<u8>> {
        self.live += 1;
        let i = self.lens.iter().position(|&l| l == len)?;
        let ptr = self.free[i].pop()?;
        self.held -= len;
        self.spares -= 1;
        Some(ptr)
    }

    /// One of this thread's buffers (`len` bytes at `ptr`) died: keep it
    /// for reuse while the lists stay within `live` buffers, the byte cap
    /// and the size slots. `false` hands it back to the caller to free.
    fn keep(&mut self, len: usize, ptr: NonNull<u8>) -> bool {
        self.live = self.live.saturating_sub(1);
        if self.spares < self.live && self.held + len <= RECYCLE_CAP_BYTES {
            let slot = self.lens.iter().position(|&l| l == len).or_else(|| {
                let i = self.free.iter().position(Vec::is_empty)?;
                self.lens[i] = len;
                Some(i)
            });
            if let Some(i) = slot {
                self.free[i].push(ptr);
                self.held += len;
                self.spares += 1;
                return true;
            }
        }
        while self.spares > self.live {
            self.release_one();
        }
        false
    }

    /// Free one held buffer.
    fn release_one(&mut self) {
        let Some(i) = self.free.iter().position(|f| !f.is_empty()) else {
            return;
        };
        let ptr = self.free[i].pop().expect("the list is not empty");
        let len = self.lens[i];
        self.held -= len;
        self.spares -= 1;
        release(len, ptr);
    }

    /// Run `f` on this thread's recycler; `None` during thread teardown
    /// (the lists are gone or going) or on re-entry.
    fn with<R>(f: impl FnOnce(&mut Recycler) -> R) -> Option<R> {
        RECYCLER
            .try_with(|r| r.try_borrow_mut().ok().map(|mut r| f(&mut r)))
            .ok()
            .flatten()
    }
}

/// Free a held buffer of `len` bytes.
fn release(len: usize, ptr: NonNull<u8>) {
    let layout = Layout::from_size_align(len, DEFAULT_ALIGN)
        .expect("a held buffer's layout was valid when it was allocated");
    // SAFETY: every held pointer was allocated with exactly this layout
    // (`HBuffer::home` is set only for shapes that `Recycler::fits`) and
    // is owned by its list alone, which no longer holds it.
    unsafe { dealloc(ptr.as_ptr(), layout) };
}

impl Drop for Recycler {
    fn drop(&mut self) {
        for (&len, free) in self.lens.iter().zip(&mut self.free) {
            for ptr in free.drain(..) {
                release(len, ptr);
            }
        }
    }
}

/// An aligned, heap-allocated raw byte buffer with typed accessors.
pub struct HBuffer {
    ptr: NonNull<u8>,
    len: usize,
    align: u32,
    /// The allocating thread ([`Recycler::home`]); 0 when the buffer's
    /// shape does not [`Recycler::fits`]. It decides only which thread may
    /// keep the buffer: any list holds buffers of its exact layout.
    home: u32,
}

// SAFETY: HBuffer owns its allocation exclusively; &HBuffer only permits
// reads and &mut HBuffer is unique, so it is safe to move/share across
// threads like a Vec<u8>. `home` is a plain number, and a buffer dropped
// on any thread is either kept by that thread's own recycler or freed.
unsafe impl Send for HBuffer {}
unsafe impl Sync for HBuffer {}

impl HBuffer {
    /// Allocate a zeroed buffer of `len` bytes at [`DEFAULT_ALIGN`].
    pub fn zeroed(len: usize) -> Self {
        Self::zeroed_aligned(len, DEFAULT_ALIGN)
    }

    /// Allocate a zeroed buffer of `len` bytes aligned to `align`
    /// (must be a power of two). A buffer of at most [`RECYCLE_MAX_LEN`]
    /// bytes at [`DEFAULT_ALIGN`] comes from this thread's free list when
    /// it holds one, zeroed.
    pub fn zeroed_aligned(len: usize, align: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align32 = u32::try_from(align).expect("alignment fits in 32 bits");
        let (ptr, home) = match len {
            0 => (NonNull::dangling(), 0),
            _ => Self::storage(len, align),
        };
        HBuffer {
            ptr,
            len,
            align: align32,
            home,
        }
    }

    /// Zeroed storage for `len > 0` bytes at `align`, and its home: a held
    /// buffer of this thread's when the shape fits and one is free,
    /// otherwise a fresh allocation.
    fn storage(len: usize, align: usize) -> (NonNull<u8>, u32) {
        let mut home = 0;
        if Recycler::fits(len, align) {
            if let Some((held, h)) = Recycler::with(|r| (r.lend(len), r.home())) {
                home = h;
                if let Some(ptr) = held {
                    // SAFETY: a held pointer owns `len` writable bytes.
                    unsafe { ptr.as_ptr().write_bytes(0, len) };
                    return (ptr, home);
                }
            }
        }
        let layout = Layout::from_size_align(len, align).expect("invalid layout");
        // SAFETY: layout has nonzero size (the caller passes len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        (NonNull::new(raw).expect("allocation failed"), home)
    }

    /// Build a buffer holding a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut b = Self::zeroed(bytes.len());
        b.as_mut_slice().copy_from_slice(bytes);
        b
    }

    /// Build a buffer from a slice of `f32` values (packed, little-endian).
    pub fn from_f32s(vals: &[f32]) -> Self {
        let mut b = Self::zeroed(vals.len() * 4);
        for (i, &v) in vals.iter().enumerate() {
            b.write_f32(i * 4, v);
        }
        b
    }

    /// Build a buffer from a slice of `f64` values (packed, little-endian).
    pub fn from_f64s(vals: &[f64]) -> Self {
        let mut b = Self::zeroed(vals.len() * 8);
        for (i, &v) in vals.iter().enumerate() {
            b.write_f64(i * 8, v);
        }
        b
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer's alignment.
    #[inline]
    pub fn align(&self) -> usize {
        self.align as usize
    }

    /// The buffer's base address (the "user-space virtual address" the
    /// paper's transfer channel hands to the DMA engine).
    #[inline]
    pub fn address(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.ptr.as_ptr() as usize
        }
    }

    /// Read-only view of the bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr is valid for len bytes and we hold &self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Zero the contents in place — recycling paths use this to make a
    /// reused buffer bit-identical to a fresh `zeroed` allocation.
    #[inline]
    pub fn zero(&mut self) {
        self.as_mut_slice().fill(0);
    }

    /// Mutable view of the bytes.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: ptr is valid for len bytes and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn check(&self, offset: usize, size: usize) {
        assert!(
            offset + size <= self.len,
            "HBuffer access out of bounds: offset {offset} + {size} > len {}",
            self.len
        );
    }

    /// Read a little-endian `u32` at `offset`.
    #[inline]
    pub fn read_u32(&self, offset: usize) -> u32 {
        self.check(offset, 4);
        u32::from_le_bytes(self.as_slice()[offset..offset + 4].try_into().unwrap())
    }

    /// Write a little-endian `u32` at `offset`.
    #[inline]
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.check(offset, 4);
        self.as_mut_slice()[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `i32` at `offset`.
    #[inline]
    pub fn read_i32(&self, offset: usize) -> i32 {
        self.read_u32(offset) as i32
    }

    /// Write a little-endian `i32` at `offset`.
    #[inline]
    pub fn write_i32(&mut self, offset: usize, v: i32) {
        self.write_u32(offset, v as u32);
    }

    /// Read a little-endian `u64` at `offset`.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.check(offset, 8);
        u64::from_le_bytes(self.as_slice()[offset..offset + 8].try_into().unwrap())
    }

    /// Write a little-endian `u64` at `offset`.
    #[inline]
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.check(offset, 8);
        self.as_mut_slice()[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `i64` at `offset`.
    #[inline]
    pub fn read_i64(&self, offset: usize) -> i64 {
        self.read_u64(offset) as i64
    }

    /// Write a little-endian `i64` at `offset`.
    #[inline]
    pub fn write_i64(&mut self, offset: usize, v: i64) {
        self.write_u64(offset, v as u64);
    }

    /// Read a little-endian `f32` at `offset`.
    #[inline]
    pub fn read_f32(&self, offset: usize) -> f32 {
        f32::from_bits(self.read_u32(offset))
    }

    /// Write a little-endian `f32` at `offset`.
    #[inline]
    pub fn write_f32(&mut self, offset: usize, v: f32) {
        self.write_u32(offset, v.to_bits());
    }

    /// Read a little-endian `f64` at `offset`.
    #[inline]
    pub fn read_f64(&self, offset: usize) -> f64 {
        f64::from_bits(self.read_u64(offset))
    }

    /// Write a little-endian `f64` at `offset`.
    #[inline]
    pub fn write_f64(&mut self, offset: usize, v: f64) {
        self.write_u64(offset, v.to_bits());
    }

    /// Read a single byte.
    #[inline]
    pub fn read_u8(&self, offset: usize) -> u8 {
        self.check(offset, 1);
        self.as_slice()[offset]
    }

    /// Write a single byte.
    #[inline]
    pub fn write_u8(&mut self, offset: usize, v: u8) {
        self.check(offset, 1);
        self.as_mut_slice()[offset] = v;
    }

    /// Copy `len` bytes from `src[src_off..]` into `self[dst_off..]`.
    pub fn copy_from(&mut self, dst_off: usize, src: &HBuffer, src_off: usize, len: usize) {
        src.check(src_off, len);
        self.check(dst_off, len);
        let (dst, s) = (self.as_mut_slice(), src.as_slice());
        dst[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
    }

    /// Interpret the whole buffer as packed `f32`s.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.len / 4).map(|i| self.read_f32(i * 4)).collect()
    }
}

impl Drop for HBuffer {
    fn drop(&mut self) {
        let (len, ptr, home) = (self.len, self.ptr, self.home);
        if home != 0 && Recycler::with(|r| r.home() == home && r.keep(len, ptr)) == Some(true) {
            return;
        }
        if len != 0 {
            let layout = Layout::from_size_align(len, self.align()).unwrap();
            // SAFETY: allocated with the identical layout in zeroed_aligned.
            unsafe { dealloc(ptr.as_ptr(), layout) };
        }
    }
}

impl Clone for HBuffer {
    fn clone(&self) -> Self {
        let mut b = HBuffer::zeroed_aligned(self.len, self.align());
        b.as_mut_slice().copy_from_slice(self.as_slice());
        b
    }
}

impl fmt::Debug for HBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HBuffer(len={}, align={})", self.len, self.align)
    }
}

impl AsRef<[u8]> for HBuffer {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for HBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for HBuffer {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes this thread's recycler holds.
    fn held() -> usize {
        RECYCLER.with(|r| r.borrow().held)
    }

    /// Free everything this thread's recycler holds.
    fn flush() {
        RECYCLER.with(|r| drop(std::mem::replace(&mut *r.borrow_mut(), Recycler::EMPTY)));
    }

    proptest! {
        /// A buffer dropped dirty comes back to the next request of its
        /// size on the same thread, zeroed and cache-line aligned.
        #[test]
        fn a_recycled_buffer_reads_all_zeros(len in 1usize..=RECYCLE_MAX_LEN, byte in 1u8..=255) {
            flush();
            let _alive = HBuffer::zeroed(len);
            let mut dirty = HBuffer::zeroed(len);
            dirty.as_mut_slice().fill(byte);
            let addr = dirty.address();
            drop(dirty);
            prop_assert_eq!(held(), len);
            let b = HBuffer::zeroed(len);
            prop_assert_eq!(b.address(), addr, "the dropped buffer is reused");
            prop_assert_eq!(b.address() % DEFAULT_ALIGN, 0);
            prop_assert!(b.as_slice().iter().all(|&x| x == 0));
            prop_assert_eq!(held(), 0);
        }
    }

    #[test]
    fn large_and_otherwise_aligned_buffers_never_enter_the_lists() {
        flush();
        let _alive: Vec<HBuffer> = (0..4).map(|_| HBuffer::zeroed(8)).collect();
        drop(HBuffer::zeroed(RECYCLE_MAX_LEN + 1));
        drop(HBuffer::zeroed_aligned(64, 4096));
        drop(HBuffer::zeroed_aligned(64, 32));
        drop(HBuffer::zeroed(0));
        assert_eq!(held(), 0);
        drop(HBuffer::zeroed(RECYCLE_MAX_LEN));
        assert_eq!(held(), RECYCLE_MAX_LEN);
        // A request at another alignment is not served from the lists.
        let b = HBuffer::zeroed_aligned(RECYCLE_MAX_LEN, 4096);
        assert_eq!(b.address() % 4096, 0);
        assert_eq!(held(), RECYCLE_MAX_LEN);
        flush();
    }

    #[test]
    fn the_byte_cap_holds() {
        flush();
        let n = RECYCLE_CAP_BYTES / RECYCLE_MAX_LEN + 8;
        let _alive: Vec<HBuffer> = (0..n).map(|_| HBuffer::zeroed(RECYCLE_MAX_LEN)).collect();
        let dead: Vec<HBuffer> = (0..n).map(|_| HBuffer::zeroed(RECYCLE_MAX_LEN)).collect();
        drop(dead);
        assert_eq!(held(), RECYCLE_CAP_BYTES);
        flush();
    }

    #[test]
    fn spares_never_outnumber_live_buffers() {
        flush();
        let mut bufs: Vec<HBuffer> = (0..10).map(|_| HBuffer::zeroed(100)).collect();
        bufs.truncate(5);
        assert_eq!(held(), 500, "five dead, five alive");
        bufs.truncate(2);
        assert_eq!(held(), 200, "two alive");
        drop(bufs);
        assert_eq!(held(), 0, "a thread whose buffers all died holds none");
        // A lone buffer is not kept: nothing alive would reuse it soon.
        drop(HBuffer::zeroed(100));
        assert_eq!(held(), 0);
    }

    #[test]
    fn a_new_size_takes_over_an_empty_list_only() {
        flush();
        let _alive: Vec<HBuffer> = (0..2 * RECYCLE_SIZES).map(|_| HBuffer::zeroed(8)).collect();
        for len in 1..=RECYCLE_SIZES {
            drop(HBuffer::zeroed(len));
        }
        let all: usize = (1..=RECYCLE_SIZES).sum();
        assert_eq!(held(), all);
        // Every size slot holds a buffer: a new size is freed.
        drop(HBuffer::zeroed(100));
        assert_eq!(held(), all);
        // Emptying size 1's list frees its slot for the new size.
        let one = HBuffer::zeroed(1);
        drop(HBuffer::zeroed(100));
        assert_eq!(held(), all - 1 + 100);
        drop(one);
        assert_eq!(held(), all - 1 + 100, "size 1 lost its slot");
        flush();
    }

    #[test]
    fn a_buffer_dropped_on_another_thread_is_freed() {
        let mut b = HBuffer::zeroed(300);
        b.as_mut_slice().fill(0xA5);
        std::thread::spawn(move || {
            let _alive = HBuffer::zeroed(300);
            drop(b);
            assert_eq!(held(), 0, "only the allocating thread keeps it");
            let mut own = HBuffer::zeroed(300);
            own.as_mut_slice().fill(0x5A);
            let addr = own.address();
            drop(own);
            assert_eq!(held(), 300);
            let again = HBuffer::zeroed(300);
            assert_eq!(again.address(), addr);
            assert!(again.as_slice().iter().all(|&x| x == 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dropping_during_thread_teardown_frees_normally() {
        /// Holds a buffer until its thread's TLS destructors run.
        struct Holder(RefCell<Option<HBuffer>>);
        thread_local! {
            static BEFORE: Holder = const { Holder(RefCell::new(None)) };
            static AFTER: Holder = const { Holder(RefCell::new(None)) };
        }
        impl Drop for Holder {
            fn drop(&mut self) {
                drop(self.0.borrow_mut().take());
            }
        }
        // The holders' destructors are registered one before and one after
        // the recycler's, so whichever order they run in, one holder drops
        // its buffer into the live recycler (which frees it in turn) and
        // the other drops its buffer after the recycler is gone.
        std::thread::spawn(|| {
            BEFORE.with(|h| *h.0.borrow_mut() = Some(HBuffer::zeroed(64)));
            drop(HBuffer::zeroed(128));
            assert_eq!(held(), 128);
            AFTER.with(|h| *h.0.borrow_mut() = Some(HBuffer::zeroed(256)));
        })
        .join()
        .expect("thread teardown with live buffers does not panic");
    }

    #[test]
    fn a_buffer_stays_24_bytes() {
        // Every block `Arc` and output slot holds one; the recycler's home
        // shares a word with the alignment.
        assert!(std::mem::size_of::<HBuffer>() <= 24);
    }

    #[test]
    fn zeroed_and_aligned() {
        let b = HBuffer::zeroed(100);
        assert_eq!(b.len(), 100);
        assert!(b.as_slice().iter().all(|&x| x == 0));
        assert_eq!(b.address() % DEFAULT_ALIGN, 0);
    }

    #[test]
    fn custom_alignment() {
        let b = HBuffer::zeroed_aligned(64, 4096);
        assert_eq!(b.address() % 4096, 0);
    }

    #[test]
    fn zero_length_buffer() {
        let b = HBuffer::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice().len(), 0);
        assert_eq!(b.address(), 0);
        let _ = b.clone();
    }

    #[test]
    fn typed_roundtrips() {
        let mut b = HBuffer::zeroed(64);
        b.write_u32(0, 0xDEADBEEF);
        b.write_i32(4, -42);
        b.write_u64(8, u64::MAX - 1);
        b.write_i64(16, i64::MIN);
        b.write_f32(24, 3.5);
        b.write_f64(32, -2.25);
        b.write_u8(40, 0xAB);
        assert_eq!(b.read_u32(0), 0xDEADBEEF);
        assert_eq!(b.read_i32(4), -42);
        assert_eq!(b.read_u64(8), u64::MAX - 1);
        assert_eq!(b.read_i64(16), i64::MIN);
        assert_eq!(b.read_f32(24), 3.5);
        assert_eq!(b.read_f64(32), -2.25);
        assert_eq!(b.read_u8(40), 0xAB);
    }

    #[test]
    fn little_endian_layout_matches_cuda_struct_bytes() {
        // The whole point of GStruct: bytes in the HBuffer are exactly what a
        // little-endian C struct would contain.
        let mut b = HBuffer::zeroed(4);
        b.write_u32(0, 0x0403_0201);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let b = HBuffer::zeroed(4);
        let _ = b.read_u64(0);
    }

    #[test]
    fn copy_between_buffers() {
        let src = HBuffer::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut dst = HBuffer::zeroed(8);
        dst.copy_from(2, &src, 4, 4);
        assert_eq!(dst.as_slice(), &[0, 0, 5, 6, 7, 8, 0, 0]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = HBuffer::from_bytes(&[9; 16]);
        let b = a.clone();
        a.write_u8(0, 0);
        assert_eq!(b.read_u8(0), 9);
        assert_ne!(a, b);
    }

    #[test]
    fn f32_vec_roundtrip() {
        let xs = [1.0f32, -2.0, 3.25];
        assert_eq!(HBuffer::from_f32s(&xs).to_f32_vec(), xs);
    }
}
