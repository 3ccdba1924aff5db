//! Every app record's GStruct layout, pinned field by field: what the
//! kernels and the CUDA side of each app address. A reordered or retyped
//! field changes the bytes on the device, so it must fail here first.
//! Then every record's store/load round trip under each layout, and its
//! typed field keys against its schema.

use gflink_apps::{concomp, kmeans, linreg, nexmark, pagerank, pointadd, spmv, wordcount};
use gflink_core::GRecord;
use gflink_memory::AlignClass::{self, Align4, Align8};
use gflink_memory::PrimType::{self, F32, F64, U32};
use gflink_memory::{DataLayout, FieldKey, GStructDef, HBuffer, Prim, RecordReader, RecordView};
use std::fmt::Debug;

/// Assert `T`'s schema: `(prim, length, offset)` per field in order, then
/// its alignment class, size and alignment.
fn pin<T: GRecord>(
    fields: &[(PrimType, usize, usize)],
    class: AlignClass,
    size: usize,
    align: usize,
) {
    let def = T::def();
    let name = std::any::type_name::<T>();
    let got: Vec<_> = (def.fields().iter().enumerate())
        .map(|(i, f)| (f.prim, f.array_len, def.offset(i)))
        .collect();
    assert_eq!(got, fields, "{name}");
    assert_eq!(
        (def.align_class(), def.size(), def.align()),
        (class, size, align),
        "{name}"
    );
}

#[test]
fn app_record_layouts_are_pinned() {
    pin::<pointadd::Point2>(&[(F32, 1, 0), (F32, 1, 4)], Align8, 8, 4);
    pin::<kmeans::Point>(&[(F32, 16, 0)], Align8, 64, 4);
    pin::<kmeans::Partial>(&[(U32, 1, 0), (U32, 1, 4), (F32, 16, 8)], Align8, 72, 4);
    pin::<linreg::Sample>(&[(F32, 12, 0), (F32, 1, 48)], Align8, 52, 4);
    pin::<linreg::GradPartial>(&[(F32, 12, 0), (F32, 1, 48), (U32, 1, 52)], Align8, 56, 4);
    pin::<spmv::EllRow>(&[(U32, 8, 0), (F32, 8, 32)], Align8, 64, 4);
    pin::<spmv::YVal>(&[(F32, 1, 0)], Align4, 4, 4);
    pin::<pagerank::RankedPage>(&[(F32, 1, 0), (U32, 8, 4)], Align8, 36, 4);
    pin::<pagerank::AggContrib>(&[(U32, 1, 0), (F32, 1, 4)], Align8, 8, 4);
    pin::<concomp::LabelledPage>(&[(U32, 1, 0), (U32, 1, 4), (U32, 8, 8)], Align8, 40, 4);
    pin::<concomp::AggMsg>(&[(U32, 1, 0), (U32, 1, 4)], Align8, 8, 4);
    pin::<wordcount::WordId>(&[(U32, 1, 0)], Align4, 4, 4);
    pin::<wordcount::CountRec>(&[(U32, 1, 0), (U32, 1, 4)], Align4, 8, 4);
    let f64s = [(F64, 1, 0), (F64, 1, 8), (F64, 1, 16), (F64, 1, 24)];
    pin::<nexmark::Auction>(&f64s, Align8, 32, 8);
    pin::<nexmark::Bid>(&f64s, Align8, 32, 8);
}

/// `recs` stored then loaded under every layout come back equal.
fn roundtrips<T: GRecord + PartialEq + Debug>(recs: &[T]) {
    let (def, n) = (T::def(), recs.len());
    for layout in DataLayout::ALL {
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, layout, n));
        let mut view = RecordView::new(&mut buf, def, layout, n);
        for (i, r) in recs.iter().enumerate() {
            r.store(&mut view, i);
        }
        let reader = RecordReader::new(&buf, def, layout, n);
        let back: Vec<T> = (0..n).map(|i| T::load(&reader, i)).collect();
        assert_eq!(back, recs, "{} under {layout:?}", def.name());
    }
}

/// `key` names the field `name` of `def`, with its prim and length.
fn key_is_field<T: Prim, const N: usize>(def: &GStructDef, name: &str, key: FieldKey<T, N>) {
    let f = &def.fields()[key.index()];
    let want = (name, T::TYPE, N);
    assert_eq!((&*f.name, f.prim, f.array_len), want, "{}", def.name());
}

/// Round-trip `recs` of `$t` and check the keys of all its fields, named
/// in declaration order.
macro_rules! check {
    ($t:ty, [$($f:ident),+], $recs:expr) => {{
        roundtrips::<$t>(&$recs);
        let def = <$t>::def();
        $(key_is_field(def, stringify!($f), <$t>::$f);)+
        assert_eq!([$(stringify!($f)),+].len(), def.num_fields(), "{}", def.name());
    }};
}

#[test]
fn app_records_roundtrip_and_keys_name_their_fields() {
    use std::array::from_fn;
    let pt = |x, y| pointadd::Point2 { x, y };
    check!(
        pointadd::Point2,
        [x, y],
        [pt(1.5, -2.25), pt(f32::MAX, 0.0)]
    );
    let coords = from_fn(|i| i as f32 * 0.5 - 3.0);
    check!(kmeans::Point, [coords], [kmeans::Point { coords }]);
    let sums = from_fn(|i| -(i as f32) / 3.0);
    let partial = kmeans::Partial {
        center: 3,
        count: 7,
        sums,
    };
    check!(kmeans::Partial, [center, count, sums], [partial]);
    let x = from_fn(|i| i as f32 * 1.25);
    check!(linreg::Sample, [x, y], [linreg::Sample { x, y: 0.25 }]);
    let grad = linreg::GradPartial {
        grad: x,
        bias: -1.0,
        count: 9,
    };
    check!(linreg::GradPartial, [grad, bias, count], [grad]);
    let (cols, vals) = (from_fn(|i| i as u32 * 3), from_fn(|i| i as f32 + 0.5));
    check!(spmv::EllRow, [cols, vals], [spmv::EllRow { cols, vals }]);
    check!(spmv::YVal, [y], [spmv::YVal { y: 4.5 }]);
    let links = from_fn(|i| 100 + i as u32);
    let page = pagerank::RankedPage { rank: 0.15, links };
    check!(pagerank::RankedPage, [rank, links], [page]);
    let contrib = pagerank::AggContrib { dst: 11, val: 0.3 };
    check!(pagerank::AggContrib, [dst, val], [contrib]);
    let page = concomp::LabelledPage {
        page: 1,
        label: 2,
        links,
    };
    check!(concomp::LabelledPage, [page, label, links], [page]);
    check!(
        concomp::AggMsg,
        [dst, label],
        [concomp::AggMsg { dst: 5, label: 6 }]
    );
    check!(wordcount::WordId, [id], [wordcount::WordId { id: 999 }]);
    let count = wordcount::CountRec { id: 1, count: 2 };
    check!(wordcount::CountRec, [id, count], [count]);
    let auction = nexmark::Auction {
        id: 1 << 40,
        seller: 7,
        category: 3,
        initial_bid: 12.5,
    };
    check!(
        nexmark::Auction,
        [id, seller, category, initial_bid],
        [auction]
    );
    let bid = nexmark::Bid {
        auction: 5,
        bidder: 6,
        price: 99.99,
        ts: (1 << 53) - 1,
    };
    check!(nexmark::Bid, [auction, bidder, price, ts], [bid]);
}
