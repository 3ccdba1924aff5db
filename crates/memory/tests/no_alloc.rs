//! Readers, views, field handles and row walks never touch the heap, under
//! any layout: a kernel that takes a `gstruct!` schema, resolves its
//! handles by key and walks its records allocates nothing of its own per
//! launch.

use gflink_memory::{gstruct, DataLayout, FieldKey, GRecord, HBuffer, RecordReader, RecordView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(
        allocs_in(|| drop(black_box(Vec::<u8>::with_capacity(8)))),
        1
    );
}

gstruct! {
    /// Every width, scalars and arrays, so AoS pads.
    #[derive(Clone)]
    struct Wide: Align8 {
        tag: u8,
        xs: [f32; 5],
        i: i32,
        d: f64,
        ks: [u64; 3],
    }
}

#[test]
fn readers_views_handles_and_row_walks_allocate_nothing() {
    let n = 9;
    for layout in DataLayout::ALL {
        let bytes = RecordView::required_bytes(Wide::def(), layout, n);
        let src = HBuffer::from_bytes(&(0..bytes).map(|b| b as u8).collect::<Vec<_>>());
        let mut dst = HBuffer::zeroed(bytes);
        let allocs = allocs_in(|| {
            let def = Wide::def();
            let reader = RecordReader::new(&src, def, layout, n);
            let mut view = RecordView::new(&mut dst, def, layout, n);
            let (xs, ks) = (reader.field(Wide::xs), reader.field(Wide::ks));
            let (ys, ls) = (view.field(Wide::xs), view.field(FieldKey::new(4)));
            for r in 0..n {
                view.set(ys, r, reader.get(xs, r));
                view.set(ls, r, reader.get(ks, r));
                view.set_field(r, Wide::d, reader.get_field(r, Wide::d));
                view.set_u64(r, 0, 0, reader.get_u64(r, 0, 0));
                view.set_f64(r, 3, 0, reader.get_f64(r, 3, 0));
            }
            if layout == DataLayout::Aos {
                for (s, t) in reader.rows().zip(view.rows_mut()) {
                    ys.write(t, xs.read(s));
                    ls.write(t, ks.read(s));
                }
            }
            black_box(&view);
        });
        assert_eq!(allocs, 0, "{layout:?}");
        assert_ne!(dst, HBuffer::zeroed(bytes), "{layout:?}: the copies ran");
    }
}
