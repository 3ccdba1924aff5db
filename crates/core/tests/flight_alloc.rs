//! A GPU flight allocates next to nothing in steady state (DESIGN.md §14):
//! flight slots, bookkeeping lists and staging buffers are pooled, and a
//! work's output buffer comes from the thread's recycled small `HBuffer`s.
//! The shape is the `harness_throughput` bench's: one manager with two
//! C2050s of four streams each, rounds of 512 works of 16 floats after a
//! warm-up round, solo and fused. The bound is that bench's gate.

use gflink_core::{
    BatchConfig, CompletedWork, GWork, GpuManager, GpuWorkerConfig, JobId, TransferConfig, WorkBuf,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::SimTime;
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by this thread. Const-initialised with no
    /// destructor, so counting never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// `Cell` that needs no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const JOB: JobId = JobId(1);
/// Works submitted per submit/drain round.
const WORKS_PER_ROUND: usize = 512;
/// Measured rounds after the warm-up round.
const ROUNDS: u32 = 4;
/// Floats per work: tiny, so bookkeeping dominates.
const N_FLOATS: usize = 16;
/// Steady-state allocations per scheduled GWork, on either path.
const MAX_ALLOCS_PER_WORK: f64 = 2.0;

fn manager(batch: BatchConfig) -> (GpuManager, KernelId) {
    let mut reg = KernelRegistry::new();
    reg.register("bumpScale", |args: &mut KernelArgs<'_, '_>| {
        for i in 0..args.n_actual {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    let kernel = reg.resolve("bumpScale").expect("registered above");
    let cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050, GpuModel::TeslaC2050],
        transfer: TransferConfig {
            batch,
            ..TransferConfig::default()
        },
        ..GpuWorkerConfig::default()
    };
    (GpuManager::new(0, cfg, Arc::new(Mutex::new(reg))), kernel)
}

/// One tiny work, its shared fields cloned off `proto` (pointer bumps, as
/// a built `GpuMapSpec` does) and its input buffer shared.
fn work(proto: &GWork, tag: (u32, u32)) -> GWork {
    GWork {
        name: Arc::clone(&proto.name),
        execute_name: Arc::clone(&proto.execute_name),
        ptx_path: Arc::clone(&proto.ptx_path),
        params: Arc::clone(&proto.params),
        inputs: vec![proto.inputs[0].clone()],
        tag,
        ..*proto
    }
}

fn digest(done: &[CompletedWork]) -> f64 {
    let floats = |w: &CompletedWork| {
        (0..N_FLOATS)
            .map(|i| f64::from(w.output.read_f32(i * 4)))
            .sum::<f64>()
    };
    done.iter().map(floats).sum()
}

/// Allocations per work over [`ROUNDS`] submit/drain rounds after one
/// warm-up round. Each round's outputs are dropped before the next, while
/// the warm-up round's stay alive, as in the bench. A thread keeps no more
/// spare buffers than it has alive, so a round's outputs recycle whole
/// while an earlier round is held; a caller that drops every round whole
/// keeps none, and pays one more allocation per work.
fn allocs_per_work(batch: BatchConfig) -> f64 {
    let (mut m, kernel) = manager(batch);
    let proto = GWork {
        name: "thr".into(),
        execute_name: "bumpScale".into(),
        kernel,
        ptx_path: "/bump.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![WorkBuf::transient(
            Arc::new(HBuffer::from_f32s(&[1.5; N_FLOATS])),
            (N_FLOATS * 4) as u64,
        )],
        out_actual_bytes: N_FLOATS * 4,
        out_logical_bytes: (N_FLOATS * 4) as u64,
        out_records: N_FLOATS,
        params: Arc::from([]),
        n_actual: N_FLOATS,
        n_logical: N_FLOATS as u64,
        coalescing: 1.0,
        tag: (0, 0),
    };
    m.begin_job(JOB);
    let mut round = |r: u32| {
        for i in 0..WORKS_PER_ROUND {
            m.submit_for(JOB, work(&proto, (r, i as u32)), SimTime::ZERO);
        }
        let done = m.drain_job(JOB);
        assert_eq!(done.len(), WORKS_PER_ROUND);
        assert_eq!(digest(&done), (WORKS_PER_ROUND * N_FLOATS) as f64 * 3.0);
        done
    };
    let warm = round(0);
    let before = ALLOCS.with(Cell::get);
    for r in 1..=ROUNDS {
        round(r);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(warm);
    allocs as f64 / (ROUNDS as usize * WORKS_PER_ROUND) as f64
}

#[test]
fn the_counter_sees_allocations() {
    let before = ALLOCS.with(Cell::get);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(8)));
    assert_eq!(ALLOCS.with(Cell::get) - before, 1);
}

#[test]
fn solo_flights_allocate_at_most_twice_per_work() {
    let per_work = allocs_per_work(BatchConfig::default());
    eprintln!("solo: {per_work:.3} allocations per steady-state GWork");
    assert!(
        per_work <= MAX_ALLOCS_PER_WORK,
        "solo flights pay {per_work:.2} allocations per GWork"
    );
}

#[test]
fn fused_flights_allocate_at_most_twice_per_work() {
    let per_work = allocs_per_work(BatchConfig::enabled());
    eprintln!("fused: {per_work:.3} allocations per steady-state GWork");
    assert!(
        per_work <= MAX_ALLOCS_PER_WORK,
        "fused flights pay {per_work:.2} allocations per GWork"
    );
}
