//! `HBuffer`: an aligned off-heap byte buffer.
//!
//! The Rust analogue of the paper's Java *direct buffer*: a raw byte region
//! outside the managed object graph, with a stable address, suitable for
//! DMA-style transfer to the (virtual) GPU. All typed accessors use
//! little-endian order — the byte order both x86 hosts and NVIDIA devices
//! use, which is what lets GFlink ship bytes unmodified.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;

/// Default alignment for direct buffers: one cache line.
pub const DEFAULT_ALIGN: usize = 64;

/// An aligned, heap-allocated raw byte buffer with typed accessors.
pub struct HBuffer {
    ptr: NonNull<u8>,
    len: usize,
    align: usize,
}

// SAFETY: HBuffer owns its allocation exclusively; &HBuffer only permits
// reads and &mut HBuffer is unique, so it is safe to move/share across
// threads like a Vec<u8>.
unsafe impl Send for HBuffer {}
unsafe impl Sync for HBuffer {}

impl HBuffer {
    /// Allocate a zeroed buffer of `len` bytes at [`DEFAULT_ALIGN`].
    pub fn zeroed(len: usize) -> Self {
        Self::zeroed_aligned(len, DEFAULT_ALIGN)
    }

    /// Allocate a zeroed buffer of `len` bytes aligned to `align`
    /// (must be a power of two).
    pub fn zeroed_aligned(len: usize, align: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if len == 0 {
            return HBuffer {
                ptr: NonNull::dangling(),
                len: 0,
                align,
            };
        }
        let layout = Layout::from_size_align(len, align).expect("invalid layout");
        // SAFETY: layout has nonzero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).expect("allocation failed");
        HBuffer { ptr, len, align }
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
        self.align
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

    /// Interpret the whole buffer as packed `f64`s.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len / 8).map(|i| self.read_f64(i * 8)).collect()
    }
}

impl Drop for HBuffer {
    fn drop(&mut self) {
        if self.len != 0 {
            let layout = Layout::from_size_align(self.len, self.align).unwrap();
            // SAFETY: allocated with the identical layout in zeroed_aligned.
            unsafe { dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

impl Clone for HBuffer {
    fn clone(&self) -> Self {
        let mut b = HBuffer::zeroed_aligned(self.len, self.align);
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
    fn f32_f64_vec_roundtrip() {
        let xs = [1.0f32, -2.0, 3.25];
        assert_eq!(HBuffer::from_f32s(&xs).to_f32_vec(), xs);
        let ys = [0.5f64, -123.0, 7e300];
        assert_eq!(HBuffer::from_f64s(&ys).to_f64_vec(), ys);
    }
}
