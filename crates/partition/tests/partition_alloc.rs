//! `multilevel_partition` works in a small multiple of its input and
//! allocates per level, not per vertex: under a counting global allocator
//! its peak live heap is bounded against the input CSR's own bytes, and a
//! graph four times the size costs only the allocator calls of the extra
//! contraction levels.

use cmg_graph::generators::circuit_like;
use cmg_partition::multilevel_partition;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calls each thread makes and tracks its live and peak
/// bytes, so that the test harness's own threads do not disturb a
/// measurement.
struct CountingAlloc;

#[derive(Clone, Copy)]
struct Heap {
    calls: usize,
    live: usize,
    peak: usize,
}

thread_local! {
    static HEAP: Cell<Heap> = const { Cell::new(Heap { calls: 0, live: 0, peak: 0 }) };
}

fn record(freed: usize, requested: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = HEAP.try_with(|h| {
        let mut heap = h.get();
        heap.calls += usize::from(requested > 0);
        // A block freed here may have been allocated on another thread.
        heap.live = (heap.live + requested).saturating_sub(freed);
        heap.peak = heap.peak.max(heap.live);
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

/// Allocator calls and peak live bytes (above what was live on entry)
/// inside `multilevel_partition(circuit_like(n), 4)`, and the bytes of the
/// input CSR.
fn partition_cost(n: usize) -> (usize, usize, usize) {
    let g = circuit_like(n, 1);
    let before = HEAP.with(Cell::get);
    HEAP.with(|h| {
        h.set(Heap {
            peak: before.live,
            ..before
        })
    });
    let p = multilevel_partition(&g, 4, 1);
    let after = HEAP.with(Cell::get);
    assert_eq!(p.num_vertices(), g.num_vertices());
    (
        after.calls - before.calls,
        after.peak - before.live,
        g.memory_bytes(),
    )
}

#[test]
fn peak_heap_is_a_small_multiple_of_the_input_and_calls_follow_levels() {
    let (calls_small, _, _) = partition_cost(12_500);
    let (calls_large, peak, input) = partition_cost(50_000);
    println!("n = 50 000: peak {peak} B over an input of {input} B, {calls_large} calls");
    println!("n = 12 500: {calls_small} calls");
    // Measured 7.5 ×, nearly all of it the hierarchy of coarse graphs that
    // uncoarsening walks back down (this graph's coarse levels keep 3/4 of
    // their entries each). The partitioner this one replaced: 14.6 ×, with
    // a 16-byte triple per adjacency entry and a clone of level 0 on top.
    assert!(peak <= 8 * input, "peak {peak} B, input {input} B");
    // Four times the vertices is two more contraction levels in each of
    // the three bisections, at six allocations a level, and a few
    // doublings of the scratch buffers: measured 46 more calls for
    // 37 500 more vertices.
    assert!(
        calls_large <= calls_small + 100,
        "{calls_small} calls at 12 500 vertices, {calls_large} at 50 000"
    );
}
