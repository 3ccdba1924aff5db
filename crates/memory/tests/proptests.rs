//! Property tests for buffers, layouts, the pool and the serializer.

use gflink_memory::{
    decode_records, encode_records, gstruct, AlignClass, DataLayout, FieldDef, FieldKey,
    FieldValue, GRow, GStructDef, HBuffer, MemoryPool, Prim, PrimType, Record, RecordReader,
    RecordView,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arb_prim() -> impl Strategy<Value = PrimType> {
    prop_oneof![
        Just(PrimType::U8),
        Just(PrimType::I32),
        Just(PrimType::U32),
        Just(PrimType::I64),
        Just(PrimType::U64),
        Just(PrimType::F32),
        Just(PrimType::F64),
    ]
}

fn arb_def() -> impl Strategy<Value = GStructDef> {
    (
        prop::collection::vec((arb_prim(), 1usize..4), 1..6),
        prop_oneof![Just(AlignClass::Align4), Just(AlignClass::Align8)],
    )
        .prop_map(|(fields, align)| {
            let defs = fields
                .into_iter()
                .enumerate()
                .map(|(i, (p, n))| FieldDef::array(&format!("f{i}"), p, n))
                .collect();
            GStructDef::new("T", align, defs)
        })
}

fn arb_value(p: PrimType) -> BoxedStrategy<FieldValue> {
    match p {
        PrimType::U8 => any::<u8>().prop_map(FieldValue::U8).boxed(),
        PrimType::I32 => any::<i32>().prop_map(FieldValue::I32).boxed(),
        PrimType::U32 => any::<u32>().prop_map(FieldValue::U32).boxed(),
        PrimType::I64 => any::<i64>().prop_map(FieldValue::I64).boxed(),
        PrimType::U64 => any::<u64>().prop_map(FieldValue::U64).boxed(),
        // Use bit-pattern floats but avoid NaN so PartialEq comparisons hold.
        PrimType::F32 => any::<i32>().prop_map(|b| FieldValue::F32(b as f32)).boxed(),
        PrimType::F64 => any::<i64>().prop_map(|b| FieldValue::F64(b as f64)).boxed(),
    }
}

/// The little-endian bytes of a whole field value.
fn field_bytes<T: Prim, const N: usize>(v: [T; N]) -> Vec<u8> {
    let mut out = vec![0u8; N * T::TYPE.size()];
    for (i, x) in v.into_iter().enumerate() {
        x.write_le(&mut out[i * T::TYPE.size()..]);
    }
    out
}

/// Check the `Field<T, N>` handle of `field` against `element_offset`,
/// byte for byte: one-record reads and writes under every layout. Writes
/// store record `n - 1 - r`'s value into record `r`, so every written cell
/// moves.
fn check_handle<T: Prim, const N: usize>(
    def: &GStructDef,
    layout: DataLayout,
    n: usize,
    field: usize,
    bytes: &[u8],
) -> Result<(), TestCaseError> {
    let src = HBuffer::from_bytes(bytes);
    let reader = RecordReader::new(&src, def, layout, n);
    let key = FieldKey::<T, N>::new(field);
    let f = reader.field(key);
    let size = T::TYPE.size();
    let cell = |r: usize| -> Vec<u8> {
        (0..N)
            .flat_map(|e| {
                let off = reader.element_offset(r, field, e);
                bytes[off..off + size].iter().copied()
            })
            .collect()
    };
    for r in 0..n {
        prop_assert_eq!(field_bytes(reader.get(f, r)), cell(r));
        prop_assert_eq!(field_bytes(reader.get_field(r, key)), cell(r));
    }
    let reversed: Vec<[T; N]> = (0..n).map(|r| reader.get(f, n - 1 - r)).collect();
    let mut want = HBuffer::from_bytes(bytes);
    for r in 0..n {
        for e in 0..N {
            let (to, from) = (
                reader.element_offset(r, field, e),
                reader.element_offset(n - 1 - r, field, e),
            );
            want.as_mut_slice()[to..to + size].copy_from_slice(&bytes[from..from + size]);
        }
    }
    let mut got = HBuffer::from_bytes(bytes);
    let mut view = RecordView::new(&mut got, def, layout, n);
    let g = view.field(key);
    for (r, v) in reversed.iter().enumerate() {
        view.set(g, r, *v);
    }
    prop_assert_eq!(&got, &want, "{:?} set", layout);
    Ok(())
}

fn check_handle_of<T: Prim>(
    def: &GStructDef,
    layout: DataLayout,
    n: usize,
    field: usize,
    bytes: &[u8],
) -> Result<(), TestCaseError> {
    match def.fields()[field].array_len {
        1 => check_handle::<T, 1>(def, layout, n, field, bytes),
        2 => check_handle::<T, 2>(def, layout, n, field, bytes),
        3 => check_handle::<T, 3>(def, layout, n, field, bytes),
        len => panic!("arb_def makes arrays of at most 3, not {len}"),
    }
}

/// Resolving `field` as `N` elements of `T`, which it is not, panics with
/// the accessors' type-confusion text.
fn check_wrong_handle<T: Prim, const N: usize>(
    reader: &RecordReader<'_>,
    def: &GStructDef,
    field: usize,
) -> Result<(), TestCaseError> {
    let f = &def.fields()[field];
    let err = catch_unwind(AssertUnwindSafe(|| {
        reader.field(FieldKey::<T, N>::new(field));
    }))
    .expect_err("a mismatched handle must not resolve");
    let text = err.downcast::<String>().expect("a formatted panic message");
    prop_assert_eq!(
        *text,
        format!(
            "field {field} is {:?}[{}], not {:?}[{N}]",
            f.prim,
            f.array_len,
            T::TYPE
        )
    );
    Ok(())
}

gstruct! {
    #[derive(Clone)]
    struct Wide: Align8 {
        tag: u8,
        xs: [f32; 3],
        i: i32,
        seen: u64 as f64,
        ks: [u64; 2],
        u: u32,
    }
}

gstruct! {
    #[derive(Clone)]
    struct Packed: Align4 {
        a: u32,
        b: f64,
        c: [i64; 2],
    }
}

/// `n` rows of `R` from `seed`'s byte stream: each row decoded by the row
/// codec and by `load` must re-encode, through `store_row` and `store`, to
/// the same bytes.
fn check_row_codec<R: GRow>(seed: u64, n: usize) -> Result<(), TestCaseError> {
    let def = R::def();
    let mut state = seed;
    let len = RecordView::required_bytes(def, DataLayout::Aos, n);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();
    let src = HBuffer::from_bytes(&bytes);
    let reader = RecordReader::new(&src, def, DataLayout::Aos, n);
    let (mut by_row, mut by_store) = (HBuffer::zeroed(len), HBuffer::zeroed(len));
    let mut view = RecordView::new(&mut by_row, def, DataLayout::Aos, n);
    for (src, dst) in reader.rows_of::<R>().zip(view.rows_of_mut::<R>()) {
        R::load_row(src).store_row(dst);
    }
    let mut view = RecordView::new(&mut by_store, def, DataLayout::Aos, n);
    for i in 0..n {
        R::load(&reader, i).store(&mut view, i);
    }
    prop_assert_eq!(&by_row, &by_store, "{}", def.name());
    Ok(())
}

proptest! {
    /// Struct layout invariants: offsets are aligned, nondecreasing,
    /// non-overlapping, and the struct size covers all fields.
    #[test]
    fn gstruct_layout_invariants(def in arb_def()) {
        let cap = def.align_class().bytes();
        let mut prev_end = 0usize;
        for (i, f) in def.fields().iter().enumerate() {
            let off = def.offset(i);
            let align = f.prim.align().min(cap);
            prop_assert_eq!(off % align, 0, "field {} misaligned", i);
            prop_assert!(off >= prev_end, "field {} overlaps predecessor", i);
            prev_end = off + f.byte_size();
        }
        prop_assert!(def.size() >= prev_end);
        prop_assert_eq!(def.size() % def.align(), 0);
        prop_assert!(def.align() <= cap);
    }

    /// Every (record, field, element) cell occupies a unique byte range for
    /// every layout, and ranges stay in bounds.
    #[test]
    fn layout_cells_disjoint(def in arb_def(), n in 1usize..16) {
        for layout in DataLayout::ALL {
            let bytes = RecordView::required_bytes(&def, layout, n);
            let mut buf = HBuffer::zeroed(bytes);
            let view = RecordView::new(&mut buf, &def, layout, n);
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            for r in 0..n {
                for (fi, f) in def.fields().iter().enumerate() {
                    for e in 0..f.array_len {
                        let off = view.element_offset(r, fi, e);
                        let sz = f.prim.size();
                        prop_assert!(off + sz <= bytes);
                        ranges.push((off, off + sz));
                    }
                }
            }
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlapping cells in {layout:?}");
            }
        }
    }

    /// Converting AoS -> SoA -> AoP -> AoS preserves every cell exactly.
    #[test]
    fn layout_conversion_chain_roundtrip(def in arb_def(), n in 1usize..12, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut aos_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        {
            let mut aos = RecordView::new(&mut aos_buf, &def, DataLayout::Aos, n);
            for r in 0..n {
                for (fi, f) in def.fields().iter().enumerate() {
                    for e in 0..f.array_len {
                        match f.prim {
                            PrimType::F32 | PrimType::F64 => {
                                aos.set_f64(r, fi, e, (next() % 1000) as f64)
                            }
                            _ => aos.set_u64(r, fi, e, next()),
                        }
                    }
                }
            }
        }
        let original = aos_buf.clone();
        let mut soa_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, n));
        let mut aop_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aop, n));
        let mut back_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        {
            let aos = RecordView::new(&mut aos_buf, &def, DataLayout::Aos, n);
            let mut soa = RecordView::new(&mut soa_buf, &def, DataLayout::Soa, n);
            aos.convert_into(&mut soa);
            let mut aop = RecordView::new(&mut aop_buf, &def, DataLayout::Aop, n);
            soa.convert_into(&mut aop);
            let mut back = RecordView::new(&mut back_buf, &def, DataLayout::Aos, n);
            aop.convert_into(&mut back);
        }
        prop_assert_eq!(original, back_buf);
    }

    /// Coalescing efficiency is a valid fraction and SoA/AoP dominate AoS.
    #[test]
    fn coalescing_bounds(def in arb_def()) {
        for layout in DataLayout::ALL {
            for fi in 0..def.num_fields() {
                let e = layout.coalescing_efficiency(&def, fi);
                prop_assert!((0.0..=1.0).contains(&e));
                prop_assert!(e >= 1.0 / 32.0);
                prop_assert!(DataLayout::Soa.coalescing_efficiency(&def, fi) >= e);
            }
            let all = layout.coalescing_all_fields(&def);
            prop_assert!((0.0..=1.0).contains(&all));
        }
    }

    /// RecordReader (immutable) and RecordView (mutable) agree on every
    /// cell offset and value, for every layout.
    #[test]
    fn reader_and_view_agree(def in arb_def(), n in 1usize..12, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, n));
            {
                let mut view = RecordView::new(&mut buf, &def, layout, n);
                for r in 0..n {
                    for (fi, f) in def.fields().iter().enumerate() {
                        for e in 0..f.array_len {
                            match f.prim {
                                PrimType::F32 | PrimType::F64 => {
                                    view.set_f64(r, fi, e, (next() % 4096) as f64)
                                }
                                _ => view.set_u64(r, fi, e, next()),
                            }
                        }
                    }
                }
            }
            let reader = RecordReader::new(&buf, &def, layout, n);
            let mut buf2 = buf.clone();
            let view = RecordView::new(&mut buf2, &def, layout, n);
            for r in 0..n {
                for (fi, f) in def.fields().iter().enumerate() {
                    for e in 0..f.array_len {
                        prop_assert_eq!(
                            reader.element_offset(r, fi, e),
                            view.element_offset(r, fi, e)
                        );
                        match f.prim {
                            PrimType::F32 | PrimType::F64 => prop_assert_eq!(
                                reader.get_f64(r, fi, e),
                                view.get_f64(r, fi, e)
                            ),
                            _ => prop_assert_eq!(
                                reader.get_u64(r, fi, e),
                                view.get_u64(r, fi, e)
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Field handles' one-record reads and writes agree byte for byte with
    /// `element_offset` under every layout, for mixed-width schemas with
    /// array fields.
    #[test]
    fn field_handles_match_element_offsets(
        def in arb_def(),
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        for layout in DataLayout::ALL {
            let bytes: Vec<u8> = (0..RecordView::required_bytes(&def, layout, n))
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            for (fi, f) in def.fields().iter().enumerate() {
                match f.prim {
                    PrimType::U8 => check_handle_of::<u8>(&def, layout, n, fi, &bytes)?,
                    PrimType::I32 => check_handle_of::<i32>(&def, layout, n, fi, &bytes)?,
                    PrimType::U32 => check_handle_of::<u32>(&def, layout, n, fi, &bytes)?,
                    PrimType::I64 => check_handle_of::<i64>(&def, layout, n, fi, &bytes)?,
                    PrimType::U64 => check_handle_of::<u64>(&def, layout, n, fi, &bytes)?,
                    PrimType::F32 => check_handle_of::<f32>(&def, layout, n, fi, &bytes)?,
                    PrimType::F64 => check_handle_of::<f64>(&def, layout, n, fi, &bytes)?,
                }
            }
        }
    }

    /// On arbitrary AoS bytes the row codec reads what `load` reads and
    /// writes back the bytes `store` writes, for a padded Align8 record
    /// with arrays and a cast field and for a packed Align4 one.
    #[test]
    fn row_codec_matches_load_and_store(seed in any::<u64>(), n in 0usize..9) {
        check_row_codec::<Wide>(seed, n)?;
        check_row_codec::<Packed>(seed, n)?;
    }

    /// Serializer roundtrip over random records.
    #[test]
    fn serializer_roundtrip(recs in prop::collection::vec(
        prop::collection::vec(arb_prim().prop_flat_map(arb_value), 1..6), 0..20)
    ) {
        let recs: Vec<Record> = recs;
        let bytes = encode_records(&recs);
        prop_assert_eq!(decode_records(&bytes), Some(recs));
    }

    /// Decoding arbitrary bytes — any header, or a small record count
    /// followed by garbage — returns `Some` or `None`, never panics, and
    /// never reserves for records the input cannot hold.
    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64),
        (0u32..6, prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(n, body)| n.to_be_bytes().into_iter().chain(body).collect()),
    ]) {
        if let Some(recs) = decode_records(&bytes) {
            prop_assert!(recs.len() < bytes.len());
        }
    }

    /// Pool: allocations never exceed capacity, never alias, and free always
    /// restores availability.
    #[test]
    fn pool_invariants(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut pool = MemoryPool::with_page_size(16, 256);
        let mut live = Vec::new();
        for alloc in ops {
            if alloc {
                match pool.alloc() {
                    Ok(p) => {
                        prop_assert!(live.iter().all(|q: &gflink_memory::PageRef| q.index() != p.index()),
                            "aliased live page");
                        live.push(p);
                    }
                    Err(_) => prop_assert_eq!(live.len(), 16),
                }
            } else if let Some(p) = live.pop() {
                pool.free(p).unwrap();
            }
            prop_assert_eq!(pool.allocated(), live.len());
            prop_assert!(pool.allocated() <= pool.capacity());
        }
    }
}

proptest! {
    // Every case prints its expected panics; a few schemas cover the text.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A handle of the wrong length, or of the wrong type at the right
    /// length, does not resolve.
    #[test]
    fn mismatched_handles_panic_with_the_accessor_text(def in arb_def(), n in 0usize..4) {
        for layout in DataLayout::ALL {
            let buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, n));
            let reader = RecordReader::new(&buf, &def, layout, n);
            for (fi, f) in def.fields().iter().enumerate() {
                check_wrong_handle::<u8, 4>(&reader, &def, fi)?;
                match (f.prim == PrimType::F64, f.array_len) {
                    (false, 1) => check_wrong_handle::<f64, 1>(&reader, &def, fi)?,
                    (false, 2) => check_wrong_handle::<f64, 2>(&reader, &def, fi)?,
                    (false, _) => check_wrong_handle::<f64, 3>(&reader, &def, fi)?,
                    (true, 1) => check_wrong_handle::<u32, 1>(&reader, &def, fi)?,
                    (true, 2) => check_wrong_handle::<u32, 2>(&reader, &def, fi)?,
                    (true, _) => check_wrong_handle::<u32, 3>(&reader, &def, fi)?,
                }
            }
        }
    }
}
