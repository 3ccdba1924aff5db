//! Criterion microbenchmarks of the engine primitives (real wall-clock
//! time, not simulated time): layout conversion, the baseline serializer,
//! GPU cache operations, timeline reservations and the event queue. These
//! are the hot paths of the simulation itself.

use criterion::{criterion_group, Criterion};
use gflink_core::{CacheKey, CachePolicy, GpuCache};
use gflink_gpu::DeviceMemory;
use gflink_memory::{
    decode_records, encode_records, AlignClass, DataLayout, FieldDef, FieldValue, GStructDef,
    HBuffer, PrimType, Record, RecordView,
};
use gflink_sim::{EventQueue, SimTime, Timeline};
use std::hint::black_box;

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

fn bench_layout_convert(c: &mut Criterion) {
    let def = point_def();
    let n = 1024;
    let mut src_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
    {
        let mut v = RecordView::new(&mut src_buf, &def, DataLayout::Aos, n);
        for i in 0..n {
            v.set_u64(i, 0, 0, i as u64);
            v.set_f64(i, 1, 0, i as f64);
            v.set_f64(i, 2, 0, -(i as f64));
        }
    }
    c.bench_function("layout_aos_to_soa_1k", |b| {
        let mut dst_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, n));
        b.iter(|| {
            let src = RecordView::new(&mut src_buf, &def, DataLayout::Aos, n);
            let mut dst = RecordView::new(&mut dst_buf, &def, DataLayout::Soa, n);
            src.convert_into(&mut dst);
            black_box(dst_buf.read_f64(16));
        });
    });
}

fn bench_serializer(c: &mut Criterion) {
    let recs: Vec<Record> = (0..256)
        .map(|i| {
            vec![
                FieldValue::U32(i as u32),
                FieldValue::F64(i as f64),
                FieldValue::F32(-(i as f32)),
            ]
        })
        .collect();
    c.bench_function("serializer_roundtrip_256", |b| {
        b.iter(|| {
            let bytes = encode_records(black_box(&recs));
            black_box(decode_records(&bytes).unwrap());
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("gpu_cache_lookup_insert", |b| {
        let mut dmem = DeviceMemory::new(1 << 30);
        let mut cache = GpuCache::new(1 << 20, CachePolicy::Fifo);
        let mut i = 0u32;
        b.iter(|| {
            let key = CacheKey {
                dataset: 1,
                partition: 0,
                block: i % 128,
            };
            if cache.lookup(key).is_none() {
                let (evicted, may_insert) = cache.make_room(8192);
                for d in evicted {
                    let _ = dmem.release(d);
                }
                if may_insert {
                    let dev = dmem.alloc(8192, 8).unwrap();
                    let _ = cache.insert(key, dev, 8192);
                }
            }
            i = i.wrapping_add(1);
        });
    });
}

fn bench_timeline(c: &mut Criterion) {
    c.bench_function("timeline_reserve", |b| {
        let mut tl = Timeline::new();
        b.iter(|| {
            black_box(tl.reserve(SimTime::ZERO, SimTime::from_nanos(10)));
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_64", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..64u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 1000), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
    // A drain's shape: one queue kept across drains, reset each time, its
    // 64 pending submissions entered as one pre-sorted run.
    c.bench_function("event_queue_sorted_run_64", |b| {
        let mut q = EventQueue::new();
        b.iter(|| {
            q.reset();
            q.extend_sorted((0..64u64).map(|i| (SimTime::from_nanos(i * 16), i)));
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
}

criterion_group!(
    benches,
    bench_layout_convert,
    bench_serializer,
    bench_cache,
    bench_timeline,
    bench_event_queue
);

// These are real wall-clock numbers (machine-dependent), so only the
// benchmark inventory is exported to `results/` — the measurements stay on
// stdout. The summary keeps the artifact set uniform across harnesses.
fn main() {
    // `cargo test` runs bench binaries with --test; nothing to do.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
    gflink_bench::write_results(
        "micro_criterion",
        &gflink_bench::Json::Obj(vec![(
            "benchmarks".to_string(),
            gflink_bench::Json::Arr(
                [
                    "layout_aos_to_soa_1k",
                    "serializer_roundtrip_256",
                    "gpu_cache_lookup_insert",
                    "timeline_reserve",
                    "event_queue_push_pop_64",
                    "event_queue_sorted_run_64",
                ]
                .iter()
                .map(|&n| gflink_bench::Json::from(n))
                .collect(),
            ),
        )]),
    );
}
