//! A host-placed GWork allocates next to nothing in steady state
//! (DESIGN.md §14): its output buffer comes from the thread's recycled
//! small `HBuffer`s and its input list from its manager's pool, so what
//! is left per work is the output block's `Arc`. PointAdd under the
//! hybrid cost model, in gbench's `pointadd-hybrid` shape (two workers,
//! 20,000 points), sends almost every block to the host engine.

use gflink_apps::{pointadd, AppRun, Setup};
use gflink_core::{FabricConfig, SchedulingPolicy};
use gflink_flink::ClusterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const WORKERS: usize = 2;

/// Steady-state passes measured after the first.
const PASSES: usize = 40;

fn setup(policy: SchedulingPolicy) -> Setup {
    let mut fabric = FabricConfig::default();
    fabric.worker.scheduling = policy;
    let s = Setup::with_configs(ClusterConfig::standard(WORKERS), fabric);
    pointadd::register_kernels(&s.fabric);
    s
}

fn params(iterations: usize) -> pointadd::Params {
    pointadd::Params {
        iterations,
        ..pointadd::Params::standard(&Setup::standard(WORKERS))
    }
}

/// One pointadd job of `passes` passes, and the allocations this thread
/// made running it. At 20,000 points each worker holds about 100 blocks
/// per pass, too few for a pass to spread over threads, so every pass runs
/// on this thread.
fn run(policy: SchedulingPolicy, passes: usize) -> (AppRun, u64) {
    let s = setup(policy);
    let p = params(passes);
    let before = ALLOCS.with(Cell::get);
    let run = pointadd::run_gpu(&s, &p);
    (run, ALLOCS.with(Cell::get) - before)
}

/// Works the job ran, on the GPUs and on the host.
fn works(run: &AppRun) -> u64 {
    let gpu = run.report.gpu.as_ref().expect("a GPU job");
    gpu.works + gpu.cpu_works
}

#[test]
fn the_counter_sees_allocations() {
    let before = ALLOCS.with(Cell::get);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(8)));
    assert_eq!(ALLOCS.with(Cell::get) - before, 1);
}

#[test]
fn host_placed_works_allocate_at_most_one_and_a_half_times_each() {
    let hybrid = SchedulingPolicy::HybridCostModel;
    let (first, first_allocs) = run(hybrid, 1);
    let (all, all_allocs) = run(hybrid, 1 + PASSES);
    let steady_works = works(&all) - works(&first);
    let host_share = all.report.gpu.as_ref().unwrap().cpu_works as f64 / works(&all) as f64;
    assert!(
        host_share > 0.9,
        "the cost model sends most blocks to the host: {host_share}"
    );
    let per_work = (all_allocs - first_allocs) as f64 / steady_works as f64;
    eprintln!("{per_work:.3} allocations per steady-state GWork over {steady_works} works");
    assert!(
        per_work <= 1.5,
        "{per_work:.2} allocations per steady-state GWork \
         ({} over {steady_works} works)",
        all_allocs - first_allocs
    );

    let (reference, _) = run(SchedulingPolicy::LocalityAware, 1 + PASSES);
    assert_eq!(
        all.digest.to_bits(),
        reference.digest.to_bits(),
        "hybrid digest {} vs locality-aware {}",
        all.digest,
        reference.digest
    );
}
