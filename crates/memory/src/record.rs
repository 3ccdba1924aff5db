//! Records bound to a GStruct layout, declared once.
//!
//! The paper declares a record as a Java class extending `GStruct_8` whose
//! fields carry `@StructField(order = n)`; reflection then recovers the
//! layout that both the host and the CUDA kernel read (§3.5.1).
//! [`gstruct!`](crate::gstruct!) is that declaration: one struct definition
//! yields the Rust struct, its [`GStructDef`] (built at compile time, field
//! order = declaration order), the [`GRecord`] store/load and a typed
//! [`FieldKey`] per field, so a field list cannot drift from the code that
//! addresses it.
//!
//! [`FieldKey`]: crate::FieldKey

use crate::gstruct::{GStructDef, Prim};
use crate::layout::{RecordReader, RecordView};

/// A record type bindable to a GStruct layout.
///
/// This is the paper's `extends GStruct_8` + `@StructField` declaration:
/// [`GRecord::def`] is the reflected schema, and store/load move a record
/// between Rust and the raw off-heap bytes. [`gstruct!`](crate::gstruct!)
/// implements it.
pub trait GRecord: Clone + Send + 'static {
    /// The GStruct schema of this record type.
    fn def() -> &'static GStructDef;
    /// Write this record into slot `idx` of a layout view.
    fn store(&self, view: &mut RecordView<'_>, idx: usize);
    /// Read the record at slot `idx` of a layout view.
    fn load(reader: &RecordReader<'_>, idx: usize) -> Self;
}

/// The Rust type of a GStruct field: a primitive (a scalar field) or a
/// fixed-length array of one (an array field).
pub trait GValue: Copy {
    /// The element type.
    type Prim: Prim;
    /// Number of elements (1 for a scalar).
    const LEN: usize;
    /// `[Self::Prim; Self::LEN]`, what the whole-field accessors move.
    type Elems;
    /// The value's elements.
    fn into_elems(self) -> Self::Elems;
    /// The value of `elems`.
    fn from_elems(elems: Self::Elems) -> Self;
}

impl<T: Prim> GValue for T {
    type Prim = T;
    const LEN: usize = 1;
    type Elems = [T; 1];
    fn into_elems(self) -> [T; 1] {
        [self]
    }
    fn from_elems([v]: [T; 1]) -> T {
        v
    }
}

impl<T: Prim, const N: usize> GValue for [T; N] {
    type Prim = T;
    const LEN: usize = N;
    type Elems = [T; N];
    fn into_elems(self) -> [T; N] {
        self
    }
    fn from_elems(elems: [T; N]) -> [T; N] {
        elems
    }
}

/// Declare a GStruct-backed record once.
///
/// ```
/// gflink_memory::gstruct! {
///     /// A 2-D point.
///     #[derive(Clone, Debug, PartialEq)]
///     pub struct Point: Align8 {
///         /// X coordinate.
///         pub x: f32,
///         /// Samples seen, stored on the device as a `double`.
///         pub seen: u64 as f64,
///         /// Neighbour ids.
///         pub links: [u32; 4],
///     }
/// }
/// use gflink_memory::{GRecord, PrimType};
/// let def = Point::def();
/// assert_eq!((def.size(), def.offset(1), def.offset(2)), (32, 8, 16));
/// assert_eq!(def.fields()[1].prim, PrimType::F64);
/// assert_eq!(Point::links.index(), 2);
/// ```
///
/// The header names the [`AlignClass`](crate::AlignClass) (`Align4` or
/// `Align8`, the paper's `GStruct_4`/`GStruct_8`); the schema's name is the
/// type's. Fields are laid out in declaration order, each a primitive or a
/// `[T; N]` array of one ([`GValue`]). `field: R as S` stores a scalar of
/// Rust type `R` as the primitive `S`, converting with `as` both ways.
/// Docs and attributes on the struct and its fields pass through; the
/// struct's derives must include `Clone`.
///
/// Besides the struct, the declaration emits its [`GRecord`] impl and, for
/// each field, an associated const of the field's visibility and name
/// holding its typed [`FieldKey`](crate::FieldKey) (`Point::x:
/// FieldKey<f32, 1>`), what kernels resolve their handles by.
#[macro_export]
macro_rules! gstruct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $align:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $store:ty)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        const _: () = {
            /// The fields' positions, in declaration order.
            #[allow(non_camel_case_types)]
            enum Index {
                $($field,)+
            }

            #[allow(non_upper_case_globals)]
            impl $name {
                $(
                    #[doc = concat!("Key of field `", stringify!($field), "`.")]
                    $fvis const $field: $crate::FieldKey<
                        <$crate::gstruct!(@stored $ty $(as $store)?) as $crate::GValue>::Prim,
                        { <$crate::gstruct!(@stored $ty $(as $store)?) as $crate::GValue>::LEN },
                    > = $crate::FieldKey::new(Index::$field as usize);
                )+
            }

            impl $crate::GRecord for $name {
                fn def() -> &'static $crate::GStructDef {
                    use $crate::{gstruct::c_layout_of, AlignClass::$align as CLASS, FieldDef};
                    const FIELDS: &[FieldDef] = &[$(FieldDef::of::<
                        $crate::gstruct!(@stored $ty $(as $store)?)>(stringify!($field)),)+];
                    const LAYOUT: ([usize; FIELDS.len()], usize, usize) = c_layout_of(FIELDS, CLASS);
                    static DEF: $crate::GStructDef =
                        $crate::GStructDef::declared(stringify!($name), CLASS, FIELDS, &LAYOUT);
                    &DEF
                }

                fn store(&self, view: &mut $crate::RecordView<'_>, idx: usize) {
                    $(view.set_field(idx, Self::$field,
                        $crate::GValue::into_elems(self.$field $(as $store)?));)+
                }

                fn load(reader: &$crate::RecordReader<'_>, idx: usize) -> Self {
                    $name {$(
                        $field: $crate::gstruct!(
                            @load $ty $(as $store)?, reader.get_field(idx, Self::$field)
                        ),
                    )+}
                }
            }
        };
    };
    (@stored $ty:ty) => { $ty };
    (@stored $ty:ty as $store:ty) => { $store };
    (@load $ty:ty, $elems:expr) => { <$ty as $crate::GValue>::from_elems($elems) };
    (@load $ty:ty as $store:ty, $elems:expr) => {
        <$store as $crate::GValue>::from_elems($elems) as $ty
    };
}

#[cfg(test)]
mod tests {
    use crate::{AlignClass, DataLayout, FieldDef, GRecord, GStructDef, HBuffer, PrimType};
    use crate::{RecordReader, RecordView};

    crate::gstruct! {
        /// Every primitive, an array, a cast field, and padding under Align8.
        #[derive(Clone, Debug, PartialEq)]
        struct Mixed: Align8 {
            tag: u8,
            xs: [f32; 3],
            i: i32,
            seen: u64 as f64,
            ks: [u64; 2],
            j: i64,
            u: u32,
        }
    }

    crate::gstruct! {
        #[derive(Clone, Debug, PartialEq)]
        struct Packed: Align4 {
            a: u32,
            b: f64,
        }
    }

    #[test]
    fn declared_schemas_equal_the_runtime_built_ones() {
        use PrimType::*;
        let mixed = GStructDef::new(
            "Mixed",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("tag", U8),
                FieldDef::array("xs", F32, 3),
                FieldDef::scalar("i", I32),
                FieldDef::scalar("seen", F64),
                FieldDef::array("ks", U64, 2),
                FieldDef::scalar("j", I64),
                FieldDef::scalar("u", U32),
            ],
        );
        assert_eq!(Mixed::def(), &mixed);
        let packed = vec![FieldDef::scalar("a", U32), FieldDef::scalar("b", F64)];
        let packed = GStructDef::new("Packed", AlignClass::Align4, packed);
        assert_eq!(Packed::def(), &packed);
        assert_eq!((Packed::def().offset(1), Packed::def().size()), (4, 12));
        // One static schema: every call returns the same one.
        assert!(std::ptr::eq(Mixed::def(), Mixed::def()));
    }

    #[test]
    fn keys_follow_declaration_order() {
        let keys = [
            Mixed::tag.index(),
            Mixed::xs.index(),
            Mixed::i.index(),
            Mixed::seen.index(),
            Mixed::ks.index(),
            Mixed::j.index(),
            Mixed::u.index(),
        ];
        assert_eq!(keys, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!((Packed::a.index(), Packed::b.index()), (0, 1));
    }

    #[test]
    fn store_then_load_roundtrips_under_every_layout() {
        let recs: Vec<Mixed> = (0..5u8)
            .map(|r| Mixed {
                tag: 250 - r,
                xs: [r as f32, -1.5, f32::MAX],
                i: -(r as i32),
                seen: (1 << 53) - r as u64,
                ks: [u64::MAX - r as u64, 7],
                j: i64::MIN + r as i64,
                u: 0xDEAD_0000 | r as u32,
            })
            .collect();
        let def = Mixed::def();
        for layout in DataLayout::ALL {
            let n = recs.len();
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, layout, n));
            let mut view = RecordView::new(&mut buf, def, layout, n);
            for (i, r) in recs.iter().enumerate() {
                r.store(&mut view, i);
            }
            // The cast field is stored as the double it declares.
            assert_eq!(view.get_f64(1, 3, 0), ((1u64 << 53) - 1) as f64);
            let reader = RecordReader::new(&buf, def, layout, n);
            let back: Vec<Mixed> = (0..n).map(|i| Mixed::load(&reader, i)).collect();
            assert_eq!(back, recs, "{layout:?}");
        }
    }
}
