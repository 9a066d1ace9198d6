//! The heap a resident service holds: under a counting global
//! allocator, the bytes `ServeState::new` leaves live on the 256 × 256
//! uniform-weight grid (the ledger's `serve_mixed_stream` graph) — the
//! resident rows, mates, colours and both frontiers' scratch after the
//! first cold pass. The rows are one slab (12 B per entry slot and a
//! 12 B header per vertex): 108.8 B a vertex in 8 allocator calls, held
//! under 128 and 64. With a heap block per row the state requested
//! 144.8 B a vertex in 65 542 calls, before malloc's per-block overhead.
//!
//! `cargo test --release -p cmg-serve --test state_heap -- --nocapture`
//! prints the count.

use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_serve::{ServeConfig, ServeState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

/// Allocator calls and bytes live.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// statics of atomic integers and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn resident_state_heap_on_the_serve_grid() {
    let g0 = assign_weights(
        &grid2d(256, 256),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        1,
    );
    let n = g0.num_vertices();
    let (calls, live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    let state = ServeState::new(&g0, ServeConfig::default()).unwrap();
    let (calls, live) = (CALLS.load(Relaxed) - calls, LIVE.load(Relaxed) - live);
    println!(
        "ServeState::new on the 256² grid: {live} B live ({:.1} B a vertex) \
         after {calls} allocator calls",
        live as f64 / n as f64
    );
    assert!(live <= 128 * n, "{live} B live: more than 128 B a vertex");
    assert!(calls <= 64, "{calls} allocator calls");
    assert_eq!(state.num_vertices(), n);
}
