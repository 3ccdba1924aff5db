//! `GStruct`: runtime-reflected C-style struct layouts.
//!
//! The paper's programming framework asks the user to declare a Java class
//! extending `GStruct_8` with `@StructField(order = n)` annotations on
//! primitive fields (`Unsigned32`, `Float32`, `Double64`, …). At runtime,
//! reflection recovers the layout and maps it onto a direct buffer so the
//! raw bytes match the CUDA struct definition (§3.5.1).
//!
//! [`GStructDef`] is the Rust equivalent: an ordered list of [`FieldDef`]s
//! plus an alignment class, from which C offset/padding rules produce the
//! exact byte layout a `struct` with those members would have on the device.
//! A record type declares its schema with [`gstruct!`](crate::gstruct!),
//! which builds the `GStructDef` at compile time; [`GStructDef::new`]
//! builds one at run time, for code generic over schemas.

use crate::record::GValue;
use std::borrow::Cow;
use std::fmt;

/// Primitive field types, mirroring the paper's `Unsigned32`, `Float32`,
/// `Double64`, … wrappers (which in turn mirror CUDA primitive types).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// `unsigned char` / `u8`
    U8,
    /// `int` / `i32`
    I32,
    /// `unsigned int` / `u32` (the paper's `Unsigned32`)
    U32,
    /// `long long` / `i64`
    I64,
    /// `unsigned long long` / `u64`
    U64,
    /// `float` (the paper's `Float32`)
    F32,
    /// `double` (the paper's `Double64`)
    F64,
}

impl PrimType {
    /// Size in bytes.
    pub const fn size(self) -> usize {
        match self {
            PrimType::U8 => 1,
            PrimType::I32 | PrimType::U32 | PrimType::F32 => 4,
            PrimType::I64 | PrimType::U64 | PrimType::F64 => 8,
        }
    }

    /// Natural C alignment (== size for these primitives).
    pub const fn align(self) -> usize {
        self.size()
    }

    /// CUDA C spelling, used when generating kernel-side struct listings.
    pub const fn c_name(self) -> &'static str {
        match self {
            PrimType::U8 => "unsigned char",
            PrimType::I32 => "int",
            PrimType::U32 => "unsigned int",
            PrimType::I64 => "long long",
            PrimType::U64 => "unsigned long long",
            PrimType::F32 => "float",
            PrimType::F64 => "double",
        }
    }
}

/// A Rust primitive that a GStruct field of type [`Prim::TYPE`] holds,
/// moved to and from its little-endian bytes without widening — what the
/// whole-field accessors ([`RecordReader::get_field`]) decode into.
///
/// [`RecordReader::get_field`]: crate::RecordReader::get_field
pub trait Prim: Copy {
    /// The field type this Rust type reads and writes.
    const TYPE: PrimType;
    /// Decode from the first `TYPE.size()` bytes of `bytes`.
    fn read_le(bytes: &[u8]) -> Self;
    /// Encode into the first `TYPE.size()` bytes of `bytes`.
    fn write_le(self, bytes: &mut [u8]);
}

macro_rules! impl_prim {
    ($($t:ty => $p:ident),* $(,)?) => {$(
        impl Prim for $t {
            const TYPE: PrimType = PrimType::$p;
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                let mut le = [0u8; std::mem::size_of::<$t>()];
                le.copy_from_slice(&bytes[..std::mem::size_of::<$t>()]);
                <$t>::from_le_bytes(le)
            }
            #[inline]
            fn write_le(self, bytes: &mut [u8]) {
                bytes[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_prim!(u8 => U8, i32 => I32, u32 => U32, i64 => I64, u64 => U64, f32 => F32, f64 => F64);

/// Alignment class of the struct: the paper's `GStruct_4` / `GStruct_8`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlignClass {
    /// 4-byte struct alignment cap.
    Align4,
    /// 8-byte struct alignment cap (the paper's example uses `GStruct_8`).
    Align8,
}

impl AlignClass {
    /// Maximum alignment the class imposes.
    pub const fn bytes(self) -> usize {
        match self {
            AlignClass::Align4 => 4,
            AlignClass::Align8 => 8,
        }
    }
}

/// One field of a GStruct: a primitive or a fixed-length primitive array.
///
/// Scalar fields have `array_len == 1`. Declaring arrays inside the struct
/// is how the paper expresses SoA sub-regions (§3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (for diagnostics and kernel-struct generation).
    pub name: Cow<'static, str>,
    /// Element type.
    pub prim: PrimType,
    /// Number of elements (1 = scalar).
    pub array_len: usize,
}

impl FieldDef {
    /// A scalar field.
    pub fn scalar(name: &str, prim: PrimType) -> Self {
        FieldDef::array(name, prim, 1)
    }

    /// A fixed-length array field.
    pub fn array(name: &str, prim: PrimType, len: usize) -> Self {
        assert!(len >= 1, "array field needs at least one element");
        FieldDef {
            name: Cow::Owned(name.to_string()),
            prim,
            array_len: len,
        }
    }

    /// The field a [`gstruct!`](crate::gstruct!) member of Rust type `V`
    /// declares: a scalar for a primitive, an array for `[T; N]`.
    pub const fn of<V: GValue>(name: &'static str) -> Self {
        FieldDef {
            name: Cow::Borrowed(name),
            prim: V::Prim::TYPE,
            array_len: V::LEN,
        }
    }

    /// Total unpadded byte size of the field.
    pub const fn byte_size(&self) -> usize {
        self.prim.size() * self.array_len
    }
}

/// A fully resolved struct layout: offsets, padding, total (padded) size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GStructDef {
    name: Cow<'static, str>,
    align_class: AlignClass,
    fields: Cow<'static, [FieldDef]>,
    offsets: Cow<'static, [usize]>,
    size: usize,
    align: usize,
}

impl GStructDef {
    /// Resolve the layout of `fields` under C rules capped at `align_class`.
    ///
    /// Field order is the declaration order — the paper's
    /// `@StructField(order = n)` made that order explicit precisely because
    /// the JVM does not guarantee it; in Rust the `Vec` order is the order.
    pub fn new(name: &str, align_class: AlignClass, fields: Vec<FieldDef>) -> Self {
        assert!(!fields.is_empty(), "GStruct needs at least one field");
        let mut offsets = vec![0; fields.len()];
        let (size, align) = c_layout(&fields, align_class, &mut offsets);
        GStructDef {
            name: Cow::Owned(name.to_string()),
            align_class,
            fields: Cow::Owned(fields),
            offsets: Cow::Owned(offsets),
            size,
            align,
        }
    }

    /// The schema of a [`gstruct!`](crate::gstruct!) declaration, built at
    /// compile time from `fields` and their [`c_layout_of`].
    #[doc(hidden)]
    pub const fn declared<const N: usize>(
        name: &'static str,
        align_class: AlignClass,
        fields: &'static [FieldDef],
        (offsets, size, align): &'static ([usize; N], usize, usize),
    ) -> Self {
        GStructDef {
            name: Cow::Borrowed(name),
            align_class,
            fields: Cow::Borrowed(fields),
            offsets: Cow::Borrowed(offsets),
            size: *size,
            align: *align,
        }
    }

    /// Struct name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared alignment class.
    pub fn align_class(&self) -> AlignClass {
        self.align_class
    }

    /// Padded struct size in bytes (the AoS stride).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Struct alignment in bytes.
    pub fn align(&self) -> usize {
        self.align
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Field definitions in declaration order.
    #[inline]
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Byte offset of field `i` within the struct.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total payload bytes (sum of field sizes, excluding padding).
    pub fn payload_size(&self) -> usize {
        self.fields.iter().map(FieldDef::byte_size).sum()
    }

    /// Bytes of padding per record.
    pub fn padding(&self) -> usize {
        self.size - self.payload_size()
    }

    /// Render the equivalent CUDA C struct declaration — what the user
    /// writes on the kernel side so layouts match (§3.5.1).
    pub fn cuda_decl(&self) -> String {
        let mut s = format!("struct {} {{\n", self.name);
        for f in self.fields.iter() {
            if f.array_len == 1 {
                s.push_str(&format!("    {} {};\n", f.prim.c_name(), f.name));
            } else {
                s.push_str(&format!(
                    "    {} {}[{}];\n",
                    f.prim.c_name(),
                    f.name,
                    f.array_len
                ));
            }
        }
        s.push_str("};");
        s
    }
}

/// The C layout of `fields` with alignment capped at `align_class`: writes
/// each field's offset into `offsets` and returns the padded struct size
/// and the struct alignment.
const fn c_layout(
    fields: &[FieldDef],
    align_class: AlignClass,
    offsets: &mut [usize],
) -> (usize, usize) {
    let cap = align_class.bytes();
    let (mut off, mut max_align, mut i) = (0, 1, 0);
    while i < fields.len() {
        let f = &fields[i];
        let a = if f.prim.align() < cap {
            f.prim.align()
        } else {
            cap
        };
        if a > max_align {
            max_align = a;
        }
        off = round_up(off, a);
        offsets[i] = off;
        off += f.byte_size();
        i += 1;
    }
    (round_up(off, max_align), max_align)
}

/// [`c_layout`] of `N` fields at compile time: the offsets, padded size
/// and alignment a [`gstruct!`](crate::gstruct!) schema stores.
#[doc(hidden)]
pub const fn c_layout_of<const N: usize>(
    fields: &[FieldDef],
    align_class: AlignClass,
) -> ([usize; N], usize, usize) {
    let mut offsets = [0; N];
    let (size, align) = c_layout(fields, align_class, &mut offsets);
    (offsets, size, align)
}

impl fmt::Display for GStructDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GStruct {} (size={}, align={}, {} fields)",
            self.name,
            self.size,
            self.align,
            self.fields.len()
        )
    }
}

#[inline]
const fn round_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (§3.5.1):
    /// ```java
    /// public class Point extends GStruct_8 {
    ///     @StructField(order = 0) public Unsigned32 x;
    ///     @StructField(order = 1) public Double64  y;
    ///     @StructField(order = 2) public Float32   z;
    /// }
    /// ```
    fn paper_point() -> GStructDef {
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
    fn paper_example_layout() {
        let p = paper_point();
        // C layout: x at 0 (4B), pad to 8, y at 8 (8B), z at 16 (4B),
        // pad struct to 24 for 8-byte alignment.
        assert_eq!(p.offset(0), 0);
        assert_eq!(p.offset(1), 8);
        assert_eq!(p.offset(2), 16);
        assert_eq!(p.size(), 24);
        assert_eq!(p.align(), 8);
        assert_eq!(p.payload_size(), 16);
        assert_eq!(p.padding(), 8);
    }

    #[test]
    fn align4_class_packs_doubles_tighter() {
        // GStruct_4 caps alignment at 4: the double no longer forces 8-byte
        // padding — matching `#pragma pack(4)` on the device side.
        let p = GStructDef::new(
            "P4",
            AlignClass::Align4,
            vec![
                FieldDef::scalar("x", PrimType::U32),
                FieldDef::scalar("y", PrimType::F64),
            ],
        );
        assert_eq!(p.offset(1), 4);
        assert_eq!(p.size(), 12);
        assert_eq!(p.align(), 4);
    }

    #[test]
    fn array_fields_for_soa_subregions() {
        let s = GStructDef::new(
            "PtSoA",
            AlignClass::Align8,
            vec![
                FieldDef::array("x", PrimType::F32, 256),
                FieldDef::array("y", PrimType::F32, 256),
            ],
        );
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 1024);
        assert_eq!(s.size(), 2048);
    }

    #[test]
    fn u8_fields_and_trailing_padding() {
        let s = GStructDef::new(
            "Mixed",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("tag", PrimType::U8),
                FieldDef::scalar("v", PrimType::I64),
                FieldDef::scalar("b", PrimType::U8),
            ],
        );
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 8);
        assert_eq!(s.offset(2), 16);
        assert_eq!(s.size(), 24); // trailing pad to align 8
    }

    #[test]
    fn cuda_decl_renders_c_struct() {
        let p = paper_point();
        let decl = p.cuda_decl();
        assert!(decl.contains("struct Point {"));
        assert!(decl.contains("unsigned int x;"));
        assert!(decl.contains("double y;"));
        assert!(decl.contains("float z;"));
    }

    #[test]
    fn prim_type_properties() {
        assert_eq!(PrimType::F64.size(), 8);
        assert_eq!(PrimType::U8.align(), 1);
        assert_eq!(PrimType::I32.c_name(), "int");
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_struct_rejected() {
        let _ = GStructDef::new("E", AlignClass::Align8, vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_len_array_rejected() {
        let _ = FieldDef::array("a", PrimType::F32, 0);
    }
}
