//! `read_matrix_market` allocates per file, not per line: under a
//! counting global allocator a 20 000-entry file costs the same number
//! of allocator calls as a 2 000-entry one, and the same bytes once the
//! `entries` vector itself is taken out.

use cmg_graph::generators::grid2d;
use cmg_graph::io::{read_matrix_market, write_matrix_market};
use cmg_graph::weights::{assign_weights, WeightScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calls and bytes each thread requests, so that the test
/// harness's own threads do not disturb a measurement.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = REQUESTED.try_with(|r| r.set((r.get().0 + 1, r.get().1 + bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator (calls, bytes) spent reading a `side × side` weighted grid
/// back from its Matrix Market text, and the entries the file declares.
fn read_cost(side: usize) -> ((usize, usize), usize) {
    let g = assign_weights(
        &grid2d(side, side),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        9,
    );
    let mut text = Vec::new();
    write_matrix_market(&g, &mut text).unwrap();
    let before = REQUESTED.with(Cell::get);
    let m = read_matrix_market(&text[..]).unwrap();
    let after = REQUESTED.with(Cell::get);
    assert_eq!(m.entries.len(), 2 * g.num_edges());
    ((after.0 - before.0, after.1 - before.1), g.num_edges())
}

#[test]
fn reading_allocates_per_file_not_per_line() {
    let ((calls_small, bytes_small), nnz_small) = read_cost(32); // 1 984 entry lines
    let ((calls_large, bytes_large), nnz_large) = read_cost(101); // 20 200, 8 blocks of text
    assert!(calls_small <= 8, "{calls_small} allocator calls");
    assert_eq!(calls_small, calls_large);
    // `entries` is reserved for the declared lines (16 B each) and grows
    // once, to twice that, for the mirrors a symmetric file implies.
    let entries = |nnz: usize| 16 * nnz + 32 * nnz;
    assert_eq!(
        bytes_small - entries(nnz_small),
        bytes_large - entries(nnz_large)
    );
}
