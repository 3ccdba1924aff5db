#![warn(missing_docs)]

//! # gflink-memory
//!
//! Off-heap memory and data-layout substrate for GFlink.
//!
//! In the paper, GFlink stores the contents of user-defined `GStruct`s as raw
//! bytes in *off-heap* memory (Java direct buffers) laid out exactly like the
//! corresponding CUDA struct, so data can be DMA-transferred to the GPU with
//! no serialization and no heap→native copy (§3.2, §4.1.2). This crate
//! provides the Rust equivalents:
//!
//! * [`HBuffer`] — an aligned raw byte buffer ("direct buffer"), the unit
//!   handed to the virtual PCIe engine. Small buffers recycle through
//!   per-thread exact-size free lists, zeroed on reuse (CrystalGPU's
//!   buffer-reuse idiom), which serve host-placed and GPU-flight outputs
//!   alike;
//! * [`PinnedPool`] — reusable page-locked host staging buffers for the
//!   transfer channel (§4.1.2): registration paid once, high-water
//!   recycling, per-job accounting;
//! * [`GStructDef`] — a runtime-reflected C-struct layout (field order,
//!   alignment class, offsets, padding);
//! * [`gstruct!`] — a record declared once, the analogue of the paper's
//!   `GStruct_8` + `@StructField(order = n)` annotations: the struct, its
//!   `static` schema, its [`GRecord`] store/load, its [`GRow`]
//!   const-offset AoS row codec and a typed [`FieldKey`] per field;
//! * [`layout`] — Array-of-Structures / Structure-of-Arrays /
//!   Array-of-Primitives views over the same logical schema, with AoS row
//!   walks checked once per kernel launch, [`Field`] handles resolved by
//!   key, conversions and a GPU memory-coalescing model (§2.1);
//! * [`serialize`] — the *baseline* object-serialization path that GFlink
//!   avoids, implemented so the contrast can be measured.

pub mod gstruct;
pub mod hbuffer;
pub mod layout;
pub mod pinned;
pub mod record;
pub mod serialize;

pub use gstruct::{AlignClass, FieldDef, GStructDef, Prim, PrimType};
pub use hbuffer::HBuffer;
pub use layout::{DataLayout, Field, FieldKey, RecordReader, RecordView};
pub use pinned::{PinnedLease, PinnedPool, PinnedStats};
pub use record::{GRecord, GRow, GValue};
pub use serialize::{decode_records, encode_records, FieldValue, Record};
