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
//! [`RecordReader`] (read-only) and [`RecordView`] (writable) interpret an
//! [`HBuffer`] as `n` records of a [`GStructDef`] under a chosen layout.
//! Neither allocates. Kernels address records the way a CUDA thread
//! addresses `points[i].x` (§3.5.1): a [`Field`] handle, resolved once per
//! launch, checks the field's type and length and fixes its base and
//! stride, so no access after that looks at the schema. Under AoS a loop
//! walks the records as rows (`rows`/`rows_mut`, `chunks_exact` over the
//! struct size) and each handle reads or writes its field within a row.
//! `get`/`set` access one record through a handle, with one record-range
//! check; `get_field`/`set_field` resolve and access in one call. The
//! per-element `get_f64`/`get_u64` family and the layout conversion serve
//! generic code. Every access checks its record against the record count.

use crate::gstruct::{GStructDef, Prim, PrimType};
use crate::hbuffer::HBuffer;
use std::marker::PhantomData;
use std::ops::Range;
use std::slice::{ChunksExact, ChunksExactMut};

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

/// The typed key of a field: its position in the schema and its Rust
/// element type `T` and length `N`. [`gstruct!`](crate::gstruct!) emits
/// one per declared field (`Point2::x`), so a kernel resolves its handles
/// by name — `reader.field(Point2::x)` — and the type and length come
/// from the declaration. [`FieldKey::new`] turns a bare index into a key,
/// for code generic over schemas.
#[derive(Clone, Copy)]
pub struct FieldKey<T, const N: usize> {
    index: usize,
    _prim: PhantomData<fn() -> T>,
}

impl<T, const N: usize> FieldKey<T, N> {
    /// The key of field `index`, read as `N` elements of `T`; whether the
    /// field is that is checked when the key is resolved.
    pub const fn new(index: usize) -> Self {
        FieldKey {
            index,
            _prim: PhantomData,
        }
    }

    /// The field's position in its schema.
    pub const fn index(self) -> usize {
        self.index
    }
}

/// A field of `N` elements of `T`, resolved once against a reader's or
/// view's schema, layout and record count: the type and length are checked
/// when it is resolved, and record `r`'s elements start at byte
/// `base + r * stride` — under AoS the field's offset and the struct size,
/// under SoA/AoP the field array's start and `N` elements.
///
/// A handle holds no borrow, so a kernel resolves its input and output
/// handles first and then walks the records.
#[derive(Clone, Copy)]
pub struct Field<T, const N: usize> {
    base: usize,
    stride: usize,
    _prim: PhantomData<fn() -> T>,
}

impl<T: Prim, const N: usize> Field<T, N> {
    #[inline]
    fn resolve(def: &GStructDef, layout: DataLayout, n: usize, key: FieldKey<T, N>) -> Self {
        let field = key.index;
        let f = &def.fields()[field];
        if f.prim != T::TYPE || f.array_len != N {
            bad_field_type(def, field, T::TYPE, N);
        }
        Field {
            base: field_base(def, layout, n, field),
            stride: field_stride(def, layout, field),
            _prim: PhantomData,
        }
    }

    /// Byte range of `record`'s elements; the caller checks `record`.
    #[inline(always)]
    fn range(self, record: usize) -> Range<usize> {
        let start = self.base + record * self.stride;
        start..start + N * T::TYPE.size()
    }

    /// Read this field from one AoS row of its schema (an item of
    /// [`RecordReader::rows`]).
    #[inline(always)]
    pub fn read(self, row: &[u8]) -> [T; N] {
        debug_assert_eq!(row.len(), self.stride, "not an AoS row of this schema");
        decode(&row[self.range(0)])
    }

    /// Write this field into one AoS row of its schema (an item of
    /// [`RecordView::rows_mut`]).
    #[inline(always)]
    pub fn write(self, row: &mut [u8], v: [T; N]) {
        debug_assert_eq!(row.len(), self.stride, "not an AoS row of this schema");
        encode(&mut row[self.range(0)], v);
    }
}

#[inline(always)]
fn decode<T: Prim, const N: usize>(bytes: &[u8]) -> [T; N] {
    std::array::from_fn(|i| T::read_le(&bytes[i * T::TYPE.size()..]))
}

#[inline(always)]
fn encode<T: Prim, const N: usize>(bytes: &mut [u8], v: [T; N]) {
    for (i, x) in v.into_iter().enumerate() {
        x.write_le(&mut bytes[i * T::TYPE.size()..]);
    }
}

/// A typed view of `n` records of schema `def` under `layout`, stored in a
/// caller-provided byte buffer.
pub struct RecordView<'a> {
    buf: &'a mut HBuffer,
    def: &'a GStructDef,
    layout: DataLayout,
    n: usize,
}

impl<'a> RecordView<'a> {
    /// Bytes required to store `n` records of `def` under `layout`.
    ///
    /// SoA/AoP field arrays are padded to 8-byte boundaries between fields so
    /// every array is well aligned for its element type.
    pub fn required_bytes(def: &GStructDef, layout: DataLayout, n: usize) -> usize {
        match layout {
            DataLayout::Aos => def.size() * n,
            DataLayout::Soa | DataLayout::Aop => soa_end(def, def.num_fields(), n),
        }
    }

    /// Create a view over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a mut HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        check_capacity(buf, def, layout, n);
        RecordView {
            buf,
            def,
            layout,
            n,
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
    /// Panics if `record` or `elem` is out of range.
    #[inline]
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        element_offset_of(self.def, self.layout, self.n, record, field, elem)
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    #[inline]
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        read_f64_at(self.buf, self.def, field, off)
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
        read_u64_at(self.buf, self.def, field, off)
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

    /// Resolve the field `key` names for this view. Panics if the field
    /// is not `N` elements of `T`.
    #[inline]
    pub fn field<T: Prim, const N: usize>(&self, key: FieldKey<T, N>) -> Field<T, N> {
        Field::resolve(self.def, self.layout, self.n, key)
    }

    /// Write all `N` elements of field `f` of `record`. Panics if `record`
    /// is out of range.
    #[inline(always)]
    pub fn set<T: Prim, const N: usize>(&mut self, f: Field<T, N>, record: usize, v: [T; N]) {
        check_record(record, self.n);
        encode(&mut self.buf.as_mut_slice()[f.range(record)], v);
    }

    /// Write all `N` elements of the field `key` names of `record` in one
    /// access, the counterpart of [`RecordReader::get_field`]. Panics if
    /// `record` is out of range or the field is not `N` elements of `T`.
    #[inline(always)]
    pub fn set_field<T: Prim, const N: usize>(
        &mut self,
        record: usize,
        key: FieldKey<T, N>,
        v: [T; N],
    ) {
        self.set(self.field(key), record, v);
    }

    /// The records as AoS rows of `def().size()` bytes, in record order —
    /// what [`Field::write`] writes into. Panics unless the layout is AoS.
    pub fn rows_mut(&mut self) -> ChunksExactMut<'_, u8> {
        let stride = aos_stride(self.def, self.layout);
        self.buf.as_mut_slice()[..self.n * stride].chunks_exact_mut(stride)
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
}

impl<'a> RecordReader<'a> {
    /// Create a reader over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        check_capacity(buf, def, layout, n);
        RecordReader {
            buf,
            def,
            layout,
            n,
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
    /// Panics if `record` or `elem` is out of range.
    #[inline]
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        element_offset_of(self.def, self.layout, self.n, record, field, elem)
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    #[inline]
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        read_f64_at(self.buf, self.def, field, off)
    }

    /// Read `(record, field, elem)` as `u64` (zero-extended).
    #[inline]
    pub fn get_u64(&self, record: usize, field: usize, elem: usize) -> u64 {
        let off = self.element_offset(record, field, elem);
        read_u64_at(self.buf, self.def, field, off)
    }

    /// Resolve the field `key` names for this reader — once per launch,
    /// as a CUDA kernel's field offsets are fixed at compile time
    /// (§3.5.1). Panics if the field is not `N` elements of `T`.
    #[inline]
    pub fn field<T: Prim, const N: usize>(&self, key: FieldKey<T, N>) -> Field<T, N> {
        Field::resolve(self.def, self.layout, self.n, key)
    }

    /// Read all `N` elements of field `f` of `record`. Panics if `record`
    /// is out of range.
    #[inline(always)]
    pub fn get<T: Prim, const N: usize>(&self, f: Field<T, N>, record: usize) -> [T; N] {
        check_record(record, self.n);
        decode(&self.buf.as_slice()[f.range(record)])
    }

    /// Read all `N` elements of the field `key` names of `record` in one
    /// access: how a one-record caller loads a record without handling a
    /// [`Field`]. Scalars are `N = 1`. Panics if `record` is out of range
    /// or the field is not `N` elements of `T`.
    #[inline(always)]
    pub fn get_field<T: Prim, const N: usize>(&self, record: usize, key: FieldKey<T, N>) -> [T; N] {
        self.get(self.field(key), record)
    }

    /// The records as AoS rows of `def().size()` bytes, in record order —
    /// what [`Field::read`] reads from. Panics unless the layout is AoS.
    pub fn rows(&self) -> ChunksExact<'a, u8> {
        let stride = aos_stride(self.def, self.layout);
        self.buf.as_slice()[..self.n * stride].chunks_exact(stride)
    }
}

#[inline]
fn check_capacity(buf: &HBuffer, def: &GStructDef, layout: DataLayout, n: usize) {
    let need = RecordView::required_bytes(def, layout, n);
    assert!(
        buf.len() >= need,
        "buffer too small: {} < {need} for {n} records of {}",
        buf.len(),
        def.name()
    );
}

/// End of the SoA/AoP field arrays before field `upto`: each array starts
/// on an 8-byte boundary and holds `n` records' elements.
fn soa_end(def: &GStructDef, upto: usize, n: usize) -> usize {
    def.fields()[..upto]
        .iter()
        .fold(0, |off, f| round_up(off, 8) + f.byte_size() * n)
}

/// Where `field` of record 0 starts.
#[inline]
fn field_base(def: &GStructDef, layout: DataLayout, n: usize, field: usize) -> usize {
    match layout {
        DataLayout::Aos => def.offset(field),
        DataLayout::Soa | DataLayout::Aop => round_up(soa_end(def, field, n), 8),
    }
}

/// Bytes from one record's `field` to the next's.
#[inline]
fn field_stride(def: &GStructDef, layout: DataLayout, field: usize) -> usize {
    match layout {
        DataLayout::Aos => def.size(),
        DataLayout::Soa | DataLayout::Aop => def.fields()[field].byte_size(),
    }
}

fn aos_stride(def: &GStructDef, layout: DataLayout) -> usize {
    assert!(
        layout == DataLayout::Aos,
        "row walks need AoS records, not {}",
        layout.label()
    );
    def.size()
}

#[inline]
fn element_offset_of(
    def: &GStructDef,
    layout: DataLayout,
    n: usize,
    record: usize,
    field: usize,
    elem: usize,
) -> usize {
    check_record(record, n);
    let f = &def.fields()[field];
    assert!(elem < f.array_len, "element {elem} out of {}", f.array_len);
    field_base(def, layout, n, field)
        + record * field_stride(def, layout, field)
        + elem * f.prim.size()
}

#[inline]
fn read_f64_at(buf: &HBuffer, def: &GStructDef, field: usize, off: usize) -> f64 {
    match def.fields()[field].prim {
        PrimType::F32 => buf.read_f32(off) as f64,
        PrimType::F64 => buf.read_f64(off),
        other => panic!("field {field} is {other:?}, not a float"),
    }
}

#[inline]
fn read_u64_at(buf: &HBuffer, def: &GStructDef, field: usize, off: usize) -> u64 {
    match def.fields()[field].prim {
        PrimType::U8 => buf.read_u8(off) as u64,
        PrimType::I32 => buf.read_i32(off) as u32 as u64,
        PrimType::U32 => buf.read_u32(off) as u64,
        PrimType::I64 => buf.read_i64(off) as u64,
        PrimType::U64 => buf.read_u64(off),
        other => panic!("field {field} is {other:?}, not an integer"),
    }
}

/// The record-range check of every access, inlined as one compare and a
/// branch, with the panic kept out of line.
#[inline(always)]
fn check_record(record: usize, n: usize) {
    if record >= n {
        record_out_of_range(record, n);
    }
}

#[cold]
#[inline(never)]
fn record_out_of_range(record: usize, n: usize) -> ! {
    panic!("record {record} out of {n}");
}

#[cold]
#[inline(never)]
fn bad_field_type(def: &GStructDef, field: usize, want: PrimType, len: usize) -> ! {
    let f = &def.fields()[field];
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
                v.set_field(r, FieldKey::new(0), [r as u8 + 200]);
                v.set_field(
                    r,
                    FieldKey::new(1),
                    [x, -x, x * 0.5, f32::MAX, f32::MIN_POSITIVE],
                );
                v.set_field(r, FieldKey::new(2), [-(r as i32) - 1]);
                v.set_field(r, FieldKey::new(3), [r as f64 / 3.0]);
                v.set_field(
                    r,
                    FieldKey::new(4),
                    [r as u64, u64::MAX - r as u64, 1 << 40],
                );
                v.set_field(r, FieldKey::new(5), [i64::MIN + r as i64]);
                v.set_field(r, FieldKey::new(6), [0xDEAD_0000 + r as u32]);
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
            let rd = RecordReader::new(&buf, &def, layout, n);
            for r in 0..n {
                let x = r as f32;
                assert_eq!(rd.get_field(r, FieldKey::<u8, 1>::new(0)), [r as u8 + 200]);
                assert_eq!(
                    rd.get_field(r, FieldKey::<f32, 5>::new(1)),
                    [x, -x, x * 0.5, f32::MAX, f32::MIN_POSITIVE],
                    "{layout:?}"
                );
                assert_eq!(
                    rd.get_field(r, FieldKey::<i32, 1>::new(2)),
                    [-(r as i32) - 1]
                );
                assert_eq!(
                    rd.get_field(r, FieldKey::<f64, 1>::new(3)),
                    [r as f64 / 3.0]
                );
                assert_eq!(
                    rd.get_field(r, FieldKey::<u64, 3>::new(4)),
                    [r as u64, u64::MAX - r as u64, 1 << 40]
                );
                assert_eq!(
                    rd.get_field(r, FieldKey::<i64, 1>::new(5)),
                    [i64::MIN + r as i64]
                );
                assert_eq!(
                    rd.get_field(r, FieldKey::<u32, 1>::new(6)),
                    [0xDEAD_0000 + r as u32]
                );
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
                va.set_field(r, FieldKey::new(1), xs);
                for (e, x) in xs.iter().enumerate() {
                    vb.set_f64(r, 1, e, *x as f64);
                }
                va.set_field(r, FieldKey::new(6), [r as u32 * 3]);
                vb.set_u64(r, 6, 0, r as u64 * 3);
            }
            assert_eq!(a, b, "{layout:?}");
        }
    }

    #[test]
    fn whole_field_access_out_of_range_panics() {
        let def = wide_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 3));
            let read = std::panic::catch_unwind(|| {
                RecordReader::new(&buf, &def, layout, 3).get_field(3, FieldKey::<f32, 5>::new(1))
            });
            assert!(read.is_err(), "{layout:?} read past the last record");
            let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                RecordView::new(&mut buf, &def, layout, 3).set_field(3, FieldKey::new(3), [1.0f64])
            }));
            assert!(write.is_err(), "{layout:?} wrote past the last record");
        }
    }

    /// The panic text of `f`, which must panic.
    fn panic_text(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the access must panic");
        *err.downcast::<String>().expect("a formatted panic message")
    }

    #[test]
    fn element_accessors_reject_records_past_the_count() {
        // Two records over a buffer sized for four: record 3's bytes exist
        // (under SoA/AoP they lie in the next field's array), but they are
        // not this reader's or view's.
        let def = point_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 4));
            let rd = RecordReader::new(&buf, &def, layout, 2);
            let want = "record 3 out of 2";
            assert_eq!(
                panic_text(|| {
                    let _ = rd.get_f64(3, 1, 0);
                }),
                want,
                "{layout:?}"
            );
            assert_eq!(
                panic_text(|| {
                    let _ = rd.get_u64(3, 0, 0);
                }),
                want,
                "{layout:?}"
            );
            assert_eq!(
                panic_text(|| {
                    let _ = rd.element_offset(3, 2, 0);
                }),
                want
            );
            assert_eq!(
                panic_text(|| {
                    let _ = rd.get(rd.field(FieldKey::<f64, 1>::new(1)), 3);
                }),
                want
            );
            let mut v = RecordView::new(&mut buf, &def, layout, 2);
            assert_eq!(
                panic_text(|| {
                    let _ = v.get_f64(3, 2, 0);
                }),
                want,
                "{layout:?}"
            );
            assert_eq!(
                panic_text(|| {
                    let _ = v.get_u64(3, 0, 0);
                }),
                want
            );
            assert_eq!(
                panic_text(|| {
                    let _ = v.element_offset(3, 1, 0);
                }),
                want
            );
            assert_eq!(panic_text(|| v.set_f64(3, 1, 0, 1.0)), want, "{layout:?}");
            assert_eq!(panic_text(|| v.set_u64(3, 0, 0, 1)), want, "{layout:?}");
            let f = v.field(FieldKey::<f32, 1>::new(2));
            assert_eq!(panic_text(|| v.set(f, 3, [1.0])), want, "{layout:?}");
        }
    }

    #[test]
    fn row_walks_need_aos() {
        let def = point_def();
        for layout in [DataLayout::Soa, DataLayout::Aop] {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 2));
            let text = panic_text(|| {
                let _ = RecordReader::new(&buf, &def, layout, 2).rows();
            });
            assert_eq!(
                text,
                format!("row walks need AoS records, not {}", layout.label())
            );
            let text = panic_text(|| {
                let _ = RecordView::new(&mut buf, &def, layout, 2).rows_mut();
            });
            assert_eq!(
                text,
                format!("row walks need AoS records, not {}", layout.label())
            );
        }
    }

    #[test]
    fn handles_resolve_type_and_length_once_with_the_accessor_text() {
        let def = wide_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 1));
            let rd = RecordReader::new(&buf, &def, layout, 1);
            let text = panic_text(|| {
                let _ = rd.field(FieldKey::<f32, 5>::new(4));
            });
            assert_eq!(text, "field 4 is U64[3], not F32[5]", "{layout:?}");
            let v = RecordView::new(&mut buf, &def, layout, 1);
            let text = panic_text(|| {
                let _ = v.field(FieldKey::<f32, 4>::new(1));
            });
            assert_eq!(text, "field 1 is F32[5], not F32[4]", "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not F32[5]")]
    fn whole_field_type_confusion_rejected() {
        let def = wide_def();
        let buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, 1));
        let _ = RecordReader::new(&buf, &def, DataLayout::Soa, 1)
            .get_field(0, FieldKey::<f32, 5>::new(4));
    }

    #[test]
    #[should_panic(expected = "not F32[4]")]
    fn whole_field_length_mismatch_rejected() {
        let def = wide_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 1));
        RecordView::new(&mut buf, &def, DataLayout::Aos, 1).set_field(
            0,
            FieldKey::new(1),
            [0.0f32; 4],
        );
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
