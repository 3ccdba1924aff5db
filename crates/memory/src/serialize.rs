//! The baseline object-serialization path that GFlink eliminates.
//!
//! Prior systems (HeterSpark's RMI path, Spark-GPU's JNI path, SWAT's
//! Aparapi path — §2.3) must convert managed objects into GPU-friendly
//! buffers: encode each object field-by-field with type tags, accumulate
//! into a heap buffer, copy that buffer to native memory, and only then DMA
//! to the device — and invert the whole chain on the way back. GFlink's
//! GStruct scheme skips all of it.
//!
//! This module implements that baseline encode/decode for real so the
//! serialization ablation and Table 2's "what GFlink avoids" contrast can be
//! measured rather than asserted. The format is deliberately typical of
//! managed-runtime serializers: a one-byte type tag per field plus
//! fixed-width big-endian payloads (network order, as RMI uses).

use crate::gstruct::{GStructDef, PrimType};
use crate::hbuffer::HBuffer;
use crate::layout::{DataLayout, RecordView};

/// A dynamically-typed field value — the stand-in for a JVM boxed field.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Boxed unsigned byte.
    U8(u8),
    /// Boxed int.
    I32(i32),
    /// Boxed unsigned int.
    U32(u32),
    /// Boxed long.
    I64(i64),
    /// Boxed unsigned long.
    U64(u64),
    /// Boxed float.
    F32(f32),
    /// Boxed double.
    F64(f64),
}

impl FieldValue {
    fn tag(&self) -> u8 {
        match self {
            FieldValue::U8(_) => 1,
            FieldValue::I32(_) => 2,
            FieldValue::U32(_) => 3,
            FieldValue::I64(_) => 4,
            FieldValue::U64(_) => 5,
            FieldValue::F32(_) => 6,
            FieldValue::F64(_) => 7,
        }
    }
}

/// An object: one boxed value per schema field element.
pub type Record = Vec<FieldValue>;

/// Encode `records` into a freshly allocated byte buffer (the "JVM heap
/// buffer" of the naive path).
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 16);
    out.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for rec in records {
        out.push(rec.len() as u8);
        for v in rec {
            out.push(v.tag());
            match *v {
                FieldValue::U8(x) => out.push(x),
                FieldValue::I32(x) => out.extend_from_slice(&x.to_be_bytes()),
                FieldValue::U32(x) => out.extend_from_slice(&x.to_be_bytes()),
                FieldValue::I64(x) => out.extend_from_slice(&x.to_be_bytes()),
                FieldValue::U64(x) => out.extend_from_slice(&x.to_be_bytes()),
                FieldValue::F32(x) => out.extend_from_slice(&x.to_be_bytes()),
                FieldValue::F64(x) => out.extend_from_slice(&x.to_be_bytes()),
            }
        }
    }
    out
}

/// Decode the output of [`encode_records`]. Returns `None` on malformed
/// input.
pub fn decode_records(bytes: &[u8]) -> Option<Vec<Record>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if *pos + n > bytes.len() {
            return None;
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Some(s)
    };
    let count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    // Every record takes at least its field-count byte, so a header that
    // claims more records than bytes remain is malformed: never reserve
    // for more than could follow.
    let mut records = Vec::with_capacity(count.min(bytes.len() - pos));
    for _ in 0..count {
        let nfields = *take(&mut pos, 1)?.first()? as usize;
        let mut rec = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let tag = *take(&mut pos, 1)?.first()?;
            let v = match tag {
                1 => FieldValue::U8(*take(&mut pos, 1)?.first()?),
                2 => FieldValue::I32(i32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?)),
                3 => FieldValue::U32(u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?)),
                4 => FieldValue::I64(i64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?)),
                5 => FieldValue::U64(u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?)),
                6 => FieldValue::F32(f32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?)),
                7 => FieldValue::F64(f64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?)),
                _ => return None,
            };
            rec.push(v);
        }
        records.push(rec);
    }
    Some(records)
}

/// Convert boxed records to a GStruct AoS buffer — the "convert and
/// accumulate JVM objects into GPU-friendly buffers" step of §3.1.
///
/// Panics if a record does not match the schema (field count or types).
pub fn records_to_gstruct(records: &[Record], def: &GStructDef) -> HBuffer {
    let n = records.len();
    let mut buf = HBuffer::zeroed(RecordView::required_bytes(def, DataLayout::Aos, n));
    {
        let mut view = RecordView::new(&mut buf, def, DataLayout::Aos, n);
        for (r, rec) in records.iter().enumerate() {
            assert_eq!(rec.len(), def.num_fields(), "field count mismatch");
            for (fi, v) in rec.iter().enumerate() {
                match (v.clone(), def.fields()[fi].prim) {
                    (FieldValue::U8(x), PrimType::U8) => view.set_u64(r, fi, 0, x as u64),
                    (FieldValue::I32(x), PrimType::I32) => view.set_u64(r, fi, 0, x as u32 as u64),
                    (FieldValue::U32(x), PrimType::U32) => view.set_u64(r, fi, 0, x as u64),
                    (FieldValue::I64(x), PrimType::I64) => view.set_u64(r, fi, 0, x as u64),
                    (FieldValue::U64(x), PrimType::U64) => view.set_u64(r, fi, 0, x),
                    (FieldValue::F32(x), PrimType::F32) => view.set_f64(r, fi, 0, x as f64),
                    (FieldValue::F64(x), PrimType::F64) => view.set_f64(r, fi, 0, x),
                    (ref v, p) => panic!("record field {fi} {v:?} does not match schema {p:?}"),
                }
            }
        }
    }
    buf
}

/// Read a GStruct AoS buffer back into boxed records (the return leg of the
/// naive path).
pub fn gstruct_to_records(buf: &mut HBuffer, def: &GStructDef, n: usize) -> Vec<Record> {
    let view = RecordView::new(buf, def, DataLayout::Aos, n);
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        let mut rec = Vec::with_capacity(def.num_fields());
        for (fi, f) in def.fields().iter().enumerate() {
            let v = match f.prim {
                PrimType::U8 => FieldValue::U8(view.get_u64(r, fi, 0) as u8),
                PrimType::I32 => FieldValue::I32(view.get_u64(r, fi, 0) as i32),
                PrimType::U32 => FieldValue::U32(view.get_u64(r, fi, 0) as u32),
                PrimType::I64 => FieldValue::I64(view.get_u64(r, fi, 0) as i64),
                PrimType::U64 => FieldValue::U64(view.get_u64(r, fi, 0)),
                PrimType::F32 => FieldValue::F32(view.get_f64(r, fi, 0) as f32),
                PrimType::F64 => FieldValue::F64(view.get_f64(r, fi, 0)),
            };
            rec.push(v);
        }
        out.push(rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gstruct::{AlignClass, FieldDef};

    fn sample_records() -> Vec<Record> {
        (0..10)
            .map(|i| {
                vec![
                    FieldValue::U32(i as u32),
                    FieldValue::F64(i as f64 * 1.5),
                    FieldValue::F32(-(i as f32)),
                ]
            })
            .collect()
    }

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
    fn encode_decode_roundtrip() {
        let recs = sample_records();
        let bytes = encode_records(&recs);
        let back = decode_records(&bytes).unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn encoding_has_per_field_overhead() {
        // The naive path's wire size exceeds the GStruct payload: tags and
        // headers are pure overhead GFlink avoids.
        let recs = sample_records();
        let bytes = encode_records(&recs);
        let payload: usize = 10 * (4 + 8 + 4);
        assert!(bytes.len() > payload, "{} <= {payload}", bytes.len());
    }

    #[test]
    fn malformed_input_rejected() {
        assert_eq!(decode_records(&[1, 2]), None); // truncated header
        let mut bytes = encode_records(&sample_records());
        bytes.truncate(bytes.len() - 3);
        assert_eq!(decode_records(&bytes), None);
        // Corrupt a type tag.
        let mut bytes = encode_records(&sample_records());
        bytes[5] = 99;
        assert_eq!(decode_records(&bytes), None);
    }

    #[test]
    fn record_count_past_the_input_is_malformed_not_an_allocation() {
        // The header claims 2^32 - 1 records; no byte of any follows.
        assert_eq!(decode_records(&[0xff; 4]), None);
        let mut bytes = encode_records(&sample_records());
        bytes[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_records(&bytes), None);
    }

    #[test]
    fn records_to_gstruct_and_back() {
        let recs = sample_records();
        let def = point_def();
        let mut buf = records_to_gstruct(&recs, &def);
        let back = gstruct_to_records(&mut buf, &def, recs.len());
        assert_eq!(recs, back);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn schema_mismatch_rejected() {
        let def = point_def();
        let recs = vec![vec![
            FieldValue::F64(1.0), // schema says U32 first
            FieldValue::F64(2.0),
            FieldValue::F32(3.0),
        ]];
        let _ = records_to_gstruct(&recs, &def);
    }

    #[test]
    fn empty_record_set() {
        let bytes = encode_records(&[]);
        assert_eq!(decode_records(&bytes), Some(vec![]));
    }
}
