//! `grid2d_dist` builds a rank from its geometry: a fixed set of buffers
//! per rank, each allocated once at its final size, and no global → local
//! map. Under a counting global allocator every rank of the 1024² grid on
//! 64 × 64 ranks costs the same number of allocator calls, and what stays
//! live is the slices themselves plus a ghost-only lookup table.

use cmg_partition::grid_dist::build_rank;
use cmg_partition::{grid2d_dist, DistGraph};
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

/// Runs `f` and returns its value with the allocator calls it made and
/// the bytes it left live.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = HEAP.with(Cell::get);
    let out = f();
    let after = HEAP.with(Cell::get);
    (out, after.calls - before.calls, after.live - before.live)
}

const SIDE: usize = 1024;
const RANKS: u32 = 64;

#[test]
fn every_rank_costs_the_same_calls_and_no_map_stays_live() {
    // Rank by rank: interior, edge and corner blocks alike (the corner
    // and edge ranks have fewer ghosts, not fewer buffers).
    let mut per_rank = Vec::new();
    for rank in 0..RANKS * RANKS {
        let (dg, calls, _) = measure(|| build_rank(SIDE, SIDE, RANKS, RANKS, rank, Some(1)));
        per_rank.push(calls);
        drop(dg);
    }
    let (lo, hi) = (per_rank.iter().min(), per_rank.iter().max());
    println!("allocator calls per rank: min {lo:?}, max {hi:?}");
    // xadj, adj, global_ids, ghost_owner, is_boundary, neighbor_ranks
    // and the ghost table: seven buffers, each sized once. The weights
    // are drawn, not stored.
    assert_eq!(lo, hi, "per-rank allocator calls vary with the block");
    assert!(hi <= Some(&7), "{hi:?} calls per rank");

    let (parts, calls, live) = measure(|| grid2d_dist(SIDE, SIDE, RANKS, RANKS, Some(1)));
    let n = SIDE * SIDE;
    let per_vertex = live as f64 / n as f64;
    println!(
        "grid2d_dist({SIDE}², {RANKS}²): {calls} calls, {live} B live = {per_vertex:.1} B per owned vertex"
    );
    assert_eq!(parts.iter().map(|dg| dg.n_local).sum::<usize>(), n);
    // Measured 32.3: the slices proper take ≈ 27 B a vertex (4 B `u32`
    // xadj, 16 B adj, ≈ 6 B ids / owners / flags, ≈ 1 B of `DistGraph`
    // headers) and the ghost tables ≈ 4.5. Stored weights made it 64.3
    // (32 B a vertex), `usize` offsets 68.3, a neighbour list with a
    // slot per ghost 69.3; with the owned + ghost map this replaced it
    // was 85.9.
    assert!(per_vertex < 34.0, "{per_vertex:.1} B per owned vertex");
    assert!(
        calls <= 7 * parts.len() + 16,
        "{calls} calls for {} ranks",
        parts.len()
    );
    // Every rank answers lookups for exactly what it stores.
    let probe: &DistGraph = &parts[(RANKS * RANKS / 2 + RANKS / 2) as usize];
    for (l, &g) in probe.global_ids.iter().enumerate() {
        assert_eq!(probe.local(g), Some(l as u32));
    }
}
