//! Data layouts: AoS, SoA, AoP.
//!
//! §2.1 of the paper recalls the three classic GPU data layouts —
//! Array-of-Structures, Structure-of-Arrays, Array-of-Primitives — and §3.2
//! explains how GStruct declarations select between them: plain structs give
//! AoS, array members give SoA sub-regions, and separating the arrays gives
//! AoP. The choice determines whether a warp's global-memory accesses
//! coalesce, which the virtual GPU models through
//! [`DataLayout::coalescing_efficiency`].
//!
//! [`RecordView`] interprets an [`HBuffer`] as `n` records of a
//! [`GStructDef`] under a chosen layout, with field accessors and
//! layout-conversion routines.

use crate::gstruct::{GStructDef, Prim, PrimType};
use crate::hbuffer::HBuffer;
use std::ops::Range;

/// The three data layouts of §2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// Array of Structures: records stored contiguously, fields interleaved.
    Aos,
    /// Structure of Arrays: one contiguous array per field ("columnar").
    Soa,
    /// Array of Primitives: like SoA, but each field array is an independent
    /// buffer (no common struct header); transfer granularity is per-field.
    Aop,
}

impl DataLayout {
    /// All layouts, for sweeps.
    pub const ALL: [DataLayout; 3] = [DataLayout::Aos, DataLayout::Soa, DataLayout::Aop];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DataLayout::Aos => "AoS",
            DataLayout::Soa => "SoA",
            DataLayout::Aop => "AoP",
        }
    }

    /// Fraction of fetched bytes that are useful when a warp accesses field
    /// `field` of consecutive records (1.0 = perfectly coalesced).
    ///
    /// SoA/AoP place consecutive records' fields at consecutive addresses, so
    /// accesses coalesce fully. Under AoS a warp's lanes touch addresses
    /// `stride` apart; the memory system still fetches whole segments, so the
    /// useful fraction is `field_bytes / stride` (floored so the model never
    /// predicts worse than 32× waste, matching DRAM burst granularity).
    pub fn coalescing_efficiency(self, def: &GStructDef, field: usize) -> f64 {
        match self {
            DataLayout::Soa | DataLayout::Aop => 1.0,
            DataLayout::Aos => {
                let f = &def.fields()[field];
                let eff = f.byte_size() as f64 / def.size() as f64;
                eff.clamp(1.0 / 32.0, 1.0)
            }
        }
    }

    /// Coalescing efficiency for a kernel that reads *every* field of each
    /// record (e.g. the paper's `addPoint`): AoS then wastes only padding.
    pub fn coalescing_all_fields(self, def: &GStructDef) -> f64 {
        match self {
            DataLayout::Soa | DataLayout::Aop => 1.0,
            DataLayout::Aos => (def.payload_size() as f64 / def.size() as f64).max(1.0 / 32.0),
        }
    }
}

/// A typed view of `n` records of schema `def` under `layout`, stored in a
/// caller-provided byte buffer.
pub struct RecordView<'a> {
    buf: &'a mut HBuffer,
    def: &'a GStructDef,
    layout: DataLayout,
    n: usize,
    /// Per-field base offsets (SoA/AoP); empty for AoS.
    field_bases: Vec<usize>,
}

impl<'a> RecordView<'a> {
    /// Bytes required to store `n` records of `def` under `layout`.
    ///
    /// SoA/AoP field arrays are padded to 8-byte boundaries between fields so
    /// every array is well aligned for its element type.
    pub fn required_bytes(def: &GStructDef, layout: DataLayout, n: usize) -> usize {
        match layout {
            DataLayout::Aos => def.size() * n,
            DataLayout::Soa | DataLayout::Aop => {
                let mut off = 0usize;
                for f in def.fields() {
                    off = round_up(off, 8);
                    off += f.byte_size() * n;
                }
                off
            }
        }
    }

    /// Create a view over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a mut HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        let need = Self::required_bytes(def, layout, n);
        assert!(
            buf.len() >= need,
            "buffer too small: {} < {need} for {n} records of {}",
            buf.len(),
            def.name()
        );
        let field_bases = field_bases(def, layout, n);
        RecordView {
            buf,
            def,
            layout,
            n,
            field_bases,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The schema this view interprets.
    pub fn def(&self) -> &GStructDef {
        self.def
    }

    /// The layout this view uses.
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// Byte offset of `(record, field, elem)` under this view's layout.
    #[inline]
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        debug_assert!(record < self.n, "record {record} out of {}", self.n);
        element_offset_of(
            self.def,
            self.layout,
            &self.field_bases,
            record,
            field,
            elem,
        )
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    #[inline]
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::F32 => self.buf.read_f32(off) as f64,
            PrimType::F64 => self.buf.read_f64(off),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Write `(record, field, elem)` as `f64` (narrowing for F32).
    #[inline]
    pub fn set_f64(&mut self, record: usize, field: usize, elem: usize, v: f64) {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::F32 => self.buf.write_f32(off, v as f32),
            PrimType::F64 => self.buf.write_f64(off, v),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Read `(record, field, elem)` as `u64` (zero-extended).
    #[inline]
    pub fn get_u64(&self, record: usize, field: usize, elem: usize) -> u64 {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::U8 => self.buf.read_u8(off) as u64,
            PrimType::I32 => self.buf.read_i32(off) as u32 as u64,
            PrimType::U32 => self.buf.read_u32(off) as u64,
            PrimType::I64 => self.buf.read_i64(off) as u64,
            PrimType::U64 => self.buf.read_u64(off),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }

    /// Write `(record, field, elem)` as `u64` (truncating).
    #[inline]
    pub fn set_u64(&mut self, record: usize, field: usize, elem: usize, v: u64) {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::U8 => self.buf.write_u8(off, v as u8),
            PrimType::I32 => self.buf.write_i32(off, v as i32),
            PrimType::U32 => self.buf.write_u32(off, v as u32),
            PrimType::I64 => self.buf.write_i64(off, v as i64),
            PrimType::U64 => self.buf.write_u64(off, v),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }

    /// Write all `N` elements of `field` of `record` in one access: one
    /// offset computation and one bounds check for the whole field, the
    /// counterpart of [`RecordReader::get_field`]. Panics if `record` is
    /// out of range or the field is not `N` elements of `T`.
    #[inline(always)]
    pub fn set_field<T: Prim, const N: usize>(&mut self, record: usize, field: usize, v: [T; N]) {
        let range = field_range::<T, N>(
            self.def,
            self.layout,
            &self.field_bases,
            self.n,
            record,
            field,
        );
        let bytes = &mut self.buf.as_mut_slice()[range];
        for (i, x) in v.into_iter().enumerate() {
            x.write_le(&mut bytes[i * T::TYPE.size()..]);
        }
    }

    /// Copy all records into `dst`, which may use a different layout.
    ///
    /// This is the manual transformation GFlink's zero-copy scheme avoids on
    /// the hot path; it exists for layout experiments and the conversion
    /// ablation.
    pub fn convert_into(&self, dst: &mut RecordView<'_>) {
        assert!(
            std::ptr::eq(self.def, dst.def) || self.def == dst.def,
            "schema mismatch"
        );
        assert_eq!(self.n, dst.n, "record count mismatch");
        for r in 0..self.n {
            for (fi, f) in self.def.fields().iter().enumerate() {
                let sz = f.prim.size();
                for e in 0..f.array_len {
                    let so = self.element_offset(r, fi, e);
                    let doff = dst.element_offset(r, fi, e);
                    // Raw byte copy preserves exact bit patterns for every
                    // primitive type.
                    for b in 0..sz {
                        let byte = self.buf.as_slice()[so + b];
                        dst.buf.as_mut_slice()[doff + b] = byte;
                    }
                }
            }
        }
    }
}

/// Read-only counterpart of [`RecordView`]: interprets an immutable buffer.
///
/// Kernels receive their input buffers as `&HBuffer`; `RecordReader` gives
/// them typed, layout-aware access without requiring mutability.
pub struct RecordReader<'a> {
    buf: &'a HBuffer,
    def: &'a GStructDef,
    layout: DataLayout,
    n: usize,
    field_bases: Vec<usize>,
}

impl<'a> RecordReader<'a> {
    /// Create a reader over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        let need = RecordView::required_bytes(def, layout, n);
        assert!(
            buf.len() >= need,
            "buffer too small: {} < {need} for {n} records of {}",
            buf.len(),
            def.name()
        );
        RecordReader {
            buf,
            def,
            layout,
            n,
            field_bases: field_bases(def, layout, n),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the reader holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Byte offset of `(record, field, elem)` under this reader's layout.
    #[inline]
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        element_offset_of(
            self.def,
            self.layout,
            &self.field_bases,
            record,
            field,
            elem,
        )
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    #[inline]
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::F32 => self.buf.read_f32(off) as f64,
            PrimType::F64 => self.buf.read_f64(off),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Read `(record, field, elem)` as `u64` (zero-extended).
    #[inline]
    pub fn get_u64(&self, record: usize, field: usize, elem: usize) -> u64 {
        let off = self.element_offset(record, field, elem);
        match self.def.fields()[field].prim {
            PrimType::U8 => self.buf.read_u8(off) as u64,
            PrimType::I32 => self.buf.read_i32(off) as u32 as u64,
            PrimType::U32 => self.buf.read_u32(off) as u64,
            PrimType::I64 => self.buf.read_i64(off) as u64,
            PrimType::U64 => self.buf.read_u64(off),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }

    /// Read all `N` elements of `field` of `record` in one access — how a
    /// kernel loads a record into registers once instead of paying the
    /// field lookup, type match and bounds check per element (§3.5.1).
    /// Scalars are `N = 1`. Panics if `record` is out of range or the
    /// field is not `N` elements of `T`.
    #[inline(always)]
    pub fn get_field<T: Prim, const N: usize>(&self, record: usize, field: usize) -> [T; N] {
        let range = field_range::<T, N>(
            self.def,
            self.layout,
            &self.field_bases,
            self.n,
            record,
            field,
        );
        let bytes = &self.buf.as_slice()[range];
        std::array::from_fn(|i| T::read_le(&bytes[i * T::TYPE.size()..]))
    }
}

/// Per-field base offsets for SoA/AoP (empty for AoS).
fn field_bases(def: &GStructDef, layout: DataLayout, n: usize) -> Vec<usize> {
    match layout {
        DataLayout::Aos => Vec::new(),
        DataLayout::Soa | DataLayout::Aop => {
            let mut bases = Vec::with_capacity(def.num_fields());
            let mut off = 0usize;
            for f in def.fields() {
                off = round_up(off, 8);
                bases.push(off);
                off += f.byte_size() * n;
            }
            bases
        }
    }
}

#[inline]
fn element_offset_of(
    def: &GStructDef,
    layout: DataLayout,
    bases: &[usize],
    record: usize,
    field: usize,
    elem: usize,
) -> usize {
    let f = &def.fields()[field];
    debug_assert!(elem < f.array_len);
    match layout {
        DataLayout::Aos => record * def.size() + def.offset(field) + elem * f.prim.size(),
        DataLayout::Soa | DataLayout::Aop => {
            bases[field] + (record * f.array_len + elem) * f.prim.size()
        }
    }
}

/// Byte range of every element of `field` in `record`. Each layout keeps a
/// record's elements of one field contiguous, so a whole field is one range.
#[inline]
fn field_range<T: Prim, const N: usize>(
    def: &GStructDef,
    layout: DataLayout,
    bases: &[usize],
    n: usize,
    record: usize,
    field: usize,
) -> Range<usize> {
    let f = &def.fields()[field];
    if record >= n || f.prim != T::TYPE || f.array_len != N {
        bad_field_access(def, n, record, field, T::TYPE, N);
    }
    let start = element_offset_of(def, layout, bases, record, field, 0);
    start..start + N * T::TYPE.size()
}

/// The panic of [`field_range`], kept out of line so the checks inline
/// into every kernel loop as two compares and a branch.
#[cold]
#[inline(never)]
fn bad_field_access(
    def: &GStructDef,
    n: usize,
    record: usize,
    field: usize,
    want: PrimType,
    len: usize,
) -> ! {
    let f = &def.fields()[field];
    if record >= n {
        panic!("record {record} out of {n}");
    }
    panic!(
        "field {field} is {:?}[{}], not {want:?}[{len}]",
        f.prim, f.array_len
    );
}

#[inline]
fn round_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gstruct::{AlignClass, FieldDef, GStructDef};

    fn point_def() -> GStructDef {
        GStructDef::new(
            "Point",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("x", PrimType::U32),
                FieldDef::scalar("y", PrimType::F64),
                FieldDef::scalar("z", PrimType::F32),
            ],
        )
    }

    #[test]
    fn required_bytes_per_layout() {
        let def = point_def(); // stride 24, fields 4+8+4
        assert_eq!(RecordView::required_bytes(&def, DataLayout::Aos, 10), 240);
        // SoA: x array 40 -> pad to 40 (already 8-mult), y 80, z 40; bases 0,40,120
        assert_eq!(RecordView::required_bytes(&def, DataLayout::Soa, 10), 160);
        assert_eq!(
            RecordView::required_bytes(&def, DataLayout::Aop, 10),
            RecordView::required_bytes(&def, DataLayout::Soa, 10)
        );
    }

    #[test]
    fn aos_offsets_match_struct_math() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 4));
        let v = RecordView::new(&mut buf, &def, DataLayout::Aos, 4);
        assert_eq!(v.element_offset(0, 0, 0), 0);
        assert_eq!(v.element_offset(0, 1, 0), 8);
        assert_eq!(v.element_offset(2, 2, 0), 2 * 24 + 16);
    }

    #[test]
    fn soa_offsets_are_columnar() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, 4));
        let v = RecordView::new(&mut buf, &def, DataLayout::Soa, 4);
        // x column at base 0, stride 4.
        assert_eq!(v.element_offset(3, 0, 0), 12);
        // y column starts after 16 bytes of x (4*4), stride 8.
        assert_eq!(v.element_offset(0, 1, 0), 16);
        assert_eq!(v.element_offset(1, 1, 0), 24);
        // z column after y (16 + 32 = 48).
        assert_eq!(v.element_offset(0, 2, 0), 48);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let def = point_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 8));
            let mut v = RecordView::new(&mut buf, &def, layout, 8);
            for r in 0..8 {
                v.set_u64(r, 0, 0, r as u64 * 10);
                v.set_f64(r, 1, 0, r as f64 + 0.5);
                v.set_f64(r, 2, 0, -(r as f64));
            }
            for r in 0..8 {
                assert_eq!(v.get_u64(r, 0, 0), r as u64 * 10, "{layout:?}");
                assert_eq!(v.get_f64(r, 1, 0), r as f64 + 0.5);
                assert_eq!(v.get_f64(r, 2, 0), -(r as f64));
            }
        }
    }

    #[test]
    fn layout_conversion_roundtrip() {
        let def = point_def();
        let n = 16;
        let mut src_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        let mut src = RecordView::new(&mut src_buf, &def, DataLayout::Aos, n);
        for r in 0..n {
            src.set_u64(r, 0, 0, (r * 7) as u64);
            src.set_f64(r, 1, 0, r as f64 * 1.25);
            src.set_f64(r, 2, 0, r as f64 - 3.0);
        }
        let mut soa_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, n));
        let mut soa = RecordView::new(&mut soa_buf, &def, DataLayout::Soa, n);
        src.convert_into(&mut soa);
        let mut back_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        let mut back = RecordView::new(&mut back_buf, &def, DataLayout::Aos, n);
        soa.convert_into(&mut back);
        assert_eq!(src_buf, back_buf);
    }

    #[test]
    fn coalescing_model_matches_section_2_1() {
        let def = point_def(); // stride 24, payload 16
        assert_eq!(DataLayout::Soa.coalescing_efficiency(&def, 1), 1.0);
        assert_eq!(DataLayout::Aop.coalescing_efficiency(&def, 1), 1.0);
        // AoS reading just the f64 field: 8/24.
        let eff = DataLayout::Aos.coalescing_efficiency(&def, 1);
        assert!((eff - 8.0 / 24.0).abs() < 1e-12);
        // AoS touching all fields: payload/stride.
        let all = DataLayout::Aos.coalescing_all_fields(&def);
        assert!((all - 16.0 / 24.0).abs() < 1e-12);
        // SoA is never worse than AoS.
        assert!(DataLayout::Soa.coalescing_all_fields(&def) >= all);
    }

    #[test]
    fn coalescing_floor_at_burst_granularity() {
        // One tiny field in a huge struct: efficiency floors at 1/32.
        let def = GStructDef::new(
            "Wide",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("tag", PrimType::U8),
                FieldDef::array("pad", PrimType::F64, 64),
            ],
        );
        let eff = DataLayout::Aos.coalescing_efficiency(&def, 0);
        assert_eq!(eff, 1.0 / 32.0);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn undersized_buffer_rejected() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(10);
        let _ = RecordView::new(&mut buf, &def, DataLayout::Aos, 4);
    }

    /// Every field type, scalars and arrays, mixed widths so AoS pads.
    fn wide_def() -> GStructDef {
        GStructDef::new(
            "Wide",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("tag", PrimType::U8),
                FieldDef::array("xs", PrimType::F32, 5),
                FieldDef::scalar("i", PrimType::I32),
                FieldDef::scalar("d", PrimType::F64),
                FieldDef::array("ks", PrimType::U64, 3),
                FieldDef::scalar("j", PrimType::I64),
                FieldDef::scalar("u", PrimType::U32),
            ],
        )
    }

    #[test]
    fn whole_field_accessors_roundtrip_and_match_element_accessors() {
        let def = wide_def();
        let n = 7;
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, n));
            let mut v = RecordView::new(&mut buf, &def, layout, n);
            for r in 0..n {
                let x = r as f32;
                v.set_field(r, 0, [r as u8 + 200]);
                v.set_field(r, 1, [x, -x, x * 0.5, f32::MAX, f32::MIN_POSITIVE]);
                v.set_field(r, 2, [-(r as i32) - 1]);
                v.set_field(r, 3, [r as f64 / 3.0]);
                v.set_field(r, 4, [r as u64, u64::MAX - r as u64, 1 << 40]);
                v.set_field(r, 5, [i64::MIN + r as i64]);
                v.set_field(r, 6, [0xDEAD_0000 + r as u32]);
            }
            // The per-element accessors see exactly what the field writes put.
            for r in 0..n {
                let x = r as f32;
                assert_eq!(v.get_u64(r, 0, 0), r as u64 + 200, "{layout:?}");
                for (e, want) in [x, -x, x * 0.5, f32::MAX, f32::MIN_POSITIVE]
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(v.get_f64(r, 1, e), want as f64, "{layout:?}");
                }
                assert_eq!(v.get_u64(r, 2, 0), (-(r as i32) - 1) as u32 as u64);
                assert_eq!(v.get_f64(r, 3, 0), r as f64 / 3.0);
                assert_eq!(v.get_u64(r, 4, 1), u64::MAX - r as u64);
            }
            drop(v);
            let rd = RecordReader::new(&buf, &def, layout, n);
            for r in 0..n {
                let x = r as f32;
                assert_eq!(rd.get_field::<u8, 1>(r, 0), [r as u8 + 200]);
                assert_eq!(
                    rd.get_field::<f32, 5>(r, 1),
                    [x, -x, x * 0.5, f32::MAX, f32::MIN_POSITIVE],
                    "{layout:?}"
                );
                assert_eq!(rd.get_field::<i32, 1>(r, 2), [-(r as i32) - 1]);
                assert_eq!(rd.get_field::<f64, 1>(r, 3), [r as f64 / 3.0]);
                assert_eq!(
                    rd.get_field::<u64, 3>(r, 4),
                    [r as u64, u64::MAX - r as u64, 1 << 40]
                );
                assert_eq!(rd.get_field::<i64, 1>(r, 5), [i64::MIN + r as i64]);
                assert_eq!(rd.get_field::<u32, 1>(r, 6), [0xDEAD_0000 + r as u32]);
            }
        }
    }

    #[test]
    fn whole_field_writes_match_element_writes_byte_for_byte() {
        let def = wide_def();
        let n = 4;
        for layout in DataLayout::ALL {
            let bytes = RecordView::required_bytes(&def, layout, n);
            let (mut a, mut b) = (HBuffer::zeroed(bytes), HBuffer::zeroed(bytes));
            let mut va = RecordView::new(&mut a, &def, layout, n);
            let mut vb = RecordView::new(&mut b, &def, layout, n);
            for r in 0..n {
                let xs: [f32; 5] = std::array::from_fn(|e| (r * 5 + e) as f32 * 1.5);
                va.set_field(r, 1, xs);
                for (e, x) in xs.iter().enumerate() {
                    vb.set_f64(r, 1, e, *x as f64);
                }
                va.set_field(r, 6, [r as u32 * 3]);
                vb.set_u64(r, 6, 0, r as u64 * 3);
            }
            drop((va, vb));
            assert_eq!(a, b, "{layout:?}");
        }
    }

    #[test]
    fn whole_field_access_out_of_range_panics() {
        let def = wide_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 3));
            let read = std::panic::catch_unwind(|| {
                RecordReader::new(&buf, &def, layout, 3).get_field::<f32, 5>(3, 1)
            });
            assert!(read.is_err(), "{layout:?} read past the last record");
            let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                RecordView::new(&mut buf, &def, layout, 3).set_field(3, 3, [1.0f64])
            }));
            assert!(write.is_err(), "{layout:?} wrote past the last record");
        }
    }

    #[test]
    #[should_panic(expected = "not F32[5]")]
    fn whole_field_type_confusion_rejected() {
        let def = wide_def();
        let buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, 1));
        let _ = RecordReader::new(&buf, &def, DataLayout::Soa, 1).get_field::<f32, 5>(0, 4);
    }

    #[test]
    #[should_panic(expected = "not F32[4]")]
    fn whole_field_length_mismatch_rejected() {
        let def = wide_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 1));
        RecordView::new(&mut buf, &def, DataLayout::Aos, 1).set_field(0, 1, [0.0f32; 4]);
    }

    #[test]
    #[should_panic(expected = "not a float")]
    fn type_confusion_rejected() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 1));
        let v = RecordView::new(&mut buf, &def, DataLayout::Aos, 1);
        let _ = v.get_f64(0, 0, 0); // field 0 is U32
    }
}
