//! `DistMatching::new` keeps pending-proposal lists for boundary vertices
//! only and builds no weight column it would drop: under a counting global
//! allocator, program init over the 1024² grid on 64 × 64 ranks makes a
//! fixed number of allocator calls per rank and leaves a bounded number of
//! bytes live per owned vertex.

use cmg_matching::DistMatching;
use cmg_partition::grid2d_dist;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calls each thread makes and tracks its live bytes, so that
/// the test harness's own threads do not disturb a measurement.
struct CountingAlloc;

#[derive(Clone, Copy)]
struct Heap {
    calls: usize,
    live: usize,
}

thread_local! {
    static HEAP: Cell<Heap> = const { Cell::new(Heap { calls: 0, live: 0 }) };
}

fn record(freed: usize, requested: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = HEAP.try_with(|h| {
        let mut heap = h.get();
        heap.calls += usize::from(requested > 0);
        // A block freed here may have been allocated on another thread.
        heap.live = (heap.live + requested).saturating_sub(freed);
        h.set(heap);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(layout.size(), 0);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn program_init_allocates_per_rank_not_per_vertex() {
    const SIDE: usize = 1024;
    let parts = grid2d_dist(SIDE, SIDE, 64, 64, Some(1));
    let ranks = parts.len();
    let before = HEAP.with(Cell::get);
    let programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
    let after = HEAP.with(Cell::get);
    let calls = after.calls - before.calls;
    let per_vertex = (after.live - before.live) as f64 / (SIDE * SIDE) as f64;
    println!(
        "DistMatching::new over {ranks} ranks: {calls} calls, {per_vertex:.1} B live per owned vertex"
    );
    assert_eq!(programs.len(), ranks);
    // Per rank: sorted CSR (2), cursors, states, mates, candidates, the
    // boundary proposal lists, the halo view (4) and its scratch (2), one
    // row buffer — 14, plus the `programs` vector itself. A weight column
    // besides made it 15.
    assert!(calls <= 14 * ranks + 1, "{calls} calls for {ranks} ranks");
    // Measured 55.1: sorted CSR 24 B, cursors 8, mates + candidates 8,
    // states 1.25, halo ≈ 7, program headers ≈ 1.6, and ≈ 5.6 of
    // proposal-list headers for the 60 of 256 vertices on a block
    // boundary. One 24 B header for every owned vertex made it 73.6.
    assert!(per_vertex < 58.0, "{per_vertex:.1} B per owned vertex");
}
