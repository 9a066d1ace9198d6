//! `MutableGraph::from_csr` lays the resident rows out as one slab:
//! under a counting global allocator, unpacking the 256 × 256 grid
//! makes three allocator calls (neighbour ids, weights, row headers) and
//! requests 12 B per entry slot (`degree + 2` slots a row) plus 12 B per
//! vertex. A heap block per row would make one call per vertex.

use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::MutableGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

/// Allocator calls and bytes requested.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// statics of atomic integers and never allocates.
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

#[test]
fn from_csr_allocates_one_slab() {
    let g = assign_weights(
        &grid2d(256, 256),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        1,
    );
    let (n, m) = (g.num_vertices(), g.num_edges());
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let mg = MutableGraph::from_csr(&g);
    let (calls, bytes) = (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes);
    let slots = 2 * m + 2 * n;
    println!(
        "from_csr on the 256² grid: {calls} allocator calls, {bytes} B \
         ({:.1} B a vertex, {slots} entry slots)",
        bytes as f64 / n as f64
    );
    assert!(calls <= 3, "{calls} allocator calls");
    assert!(
        bytes <= 12 * slots + 12 * n,
        "{bytes} B > 12 B × {slots} slots + 12 B × {n} vertices"
    );
    assert_eq!(mg.rebuild(), g);
}
