//! The colouring programs' constructors only take ownership of the
//! rank's slice; the rank builds its index (priorities, halo view, peer
//! set, fan-out tables, colour and forbidden arrays, the conflict scope's
//! state) in its own `on_start`. Under a counting global allocator: the
//! constructors make a fixed number of allocator calls per rank whatever
//! the slice's size, and `DistColoring` construction plus the first step
//! over the 1024² grid on 64 × 64 ranks makes a bounded number of calls
//! per rank and leaves a bounded number of bytes live per owned vertex.

use cmg_coloring::{ColorMsg, ColoringConfig, DistColoring, Distance2, JonesPlassmann};
use cmg_partition::{grid2d_dist, DistGraph};
use cmg_runtime::{RankCtx, RankProgram};
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

/// Allocator calls and live-byte growth of `f`, on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = HEAP.with(Cell::get);
    let out = f();
    let after = HEAP.with(Cell::get);
    (
        out,
        after.calls - before.calls,
        after.live.saturating_sub(before.live),
    )
}

const SIDE: usize = 1024;

/// Builds one program per rank of the grid on `pr × pc` ranks with
/// `make` and reports the rank count, the allocator calls and the bytes
/// live per owned vertex beyond the program headers.
fn construct<P>(pr: u32, pc: u32, make: impl Fn(DistGraph) -> P) -> (usize, usize, f64) {
    let parts = grid2d_dist(SIDE, SIDE, pr, pc, None);
    let ranks = parts.len();
    let (programs, calls, live) = measure(|| parts.into_iter().map(make).collect::<Vec<P>>());
    assert_eq!(programs.len(), ranks);
    // The `programs` vector replaces the `parts` one: each rank's header
    // grows by the program's fields beside its slice.
    let headers = ranks * (size_of::<P>() - size_of::<DistGraph>());
    let per_vertex = live.saturating_sub(headers) as f64 / (SIDE * SIDE) as f64;
    (ranks, calls, per_vertex)
}

#[test]
fn constructors_do_no_per_vertex_work() {
    // 256 and 4,096 owned vertices per rank: the call count must not
    // follow the slice's size.
    for (pr, pc) in [(64u32, 64u32), (16, 16)] {
        let cfg = ColoringConfig::default();
        let d1 = construct(pr, pc, |dg| DistColoring::new(dg, cfg));
        let d2 = construct(pr, pc, |dg| -> DistColoring<Distance2> {
            DistColoring::distance2(dg, 1000, 7)
        });
        let jp = construct(pr, pc, |dg| JonesPlassmann::new(dg, 7));
        // Measured, beside the `programs` vector: for `DistColoring` the
        // allreduce child lists, up to two calls (capacity 4, then 8) on
        // each of the ≈ p / 8 ranks with children, p / 4 in all here
        // (1,025 calls on 64 × 64 ranks, 65 on 16 × 16); for JP nothing.
        // A priority hash, halo build or per-vertex array back in a
        // constructor adds ≥ 1 per rank.
        let allreduce = d1.0 / 4;
        for (name, (ranks, calls, per_vertex), max_calls) in [
            ("new", d1, allreduce + 1),
            ("distance2", d2, allreduce + 1),
            ("JP", jp, 1),
        ] {
            println!(
                "{name} over {ranks} ranks: {calls} calls, \
                 {per_vertex:.2} B per owned vertex beyond the headers"
            );
            assert!(
                calls <= max_calls,
                "{name}: {calls} calls for {ranks} ranks"
            );
            // Measured ≤ 0.02 (the child lists) on both shapes. The
            // smallest per-vertex array (the distance-2 re-colour flags,
            // 1 B per owned vertex) would add 1; the fan-out tables (5 B
            // per rank per rank) would add 80 on 64 × 64 ranks.
            assert!(
                per_vertex < 0.5,
                "{name}: {per_vertex:.2} B per owned vertex"
            );
        }
    }
}

#[test]
fn first_step_builds_the_index_once() {
    let parts = grid2d_dist(SIDE, SIDE, 64, 64, None);
    let ranks = parts.len();
    let recorder = cmg_obs::RecorderHandle::noop();
    let mut ctxs: Vec<RankCtx<ColorMsg>> = (0..ranks as u32)
        .map(|r| RankCtx::new(r, ranks as u32, true, recorder.clone()))
        .collect();
    let cfg = ColoringConfig::default();
    let (programs, calls, live) = measure(|| {
        let mut programs: Vec<DistColoring> = parts
            .into_iter()
            .map(|dg| DistColoring::new(dg, cfg))
            .collect();
        for (p, ctx) in programs.iter_mut().zip(&mut ctxs) {
            p.on_start(ctx);
            // The engine takes the round's packets off the rank at once.
            drop(ctx.end_round());
        }
        programs
    });
    let per_vertex = live as f64 / (SIDE * SIDE) as f64;
    println!(
        "DistColoring::new + on_start over {ranks} ranks: {calls} calls, {per_vertex:.1} B live per owned vertex"
    );
    assert_eq!(programs.len(), ranks);
    // Per rank, the index: priorities, the halo view (4) and its scratch
    // (2), the fan-out tables (2), the peer set, colours, forbidden stamps
    // — 12. The first step's work list and outgoing bundles bring it to
    // 31.0 on average (measured), plus the `programs` vector. Building
    // the index twice makes it ≥ 43.
    assert!(calls <= 34 * ranks + 1, "{calls} calls for {ranks} ranks");
    // Measured 115.4: the fan-out tables, a `u32` stamp and a FIAC flag
    // per rank of the run, are 80.0 here (4,096 ranks of 256 vertices);
    // the rest is priorities 10 B, forbidden stamps 10, colours 5, halo
    // ≈ 7, the boundary work list ≈ 0.9, program headers and the
    // contexts' bundle tables ≈ 2.5.
    assert!(per_vertex < 118.0, "{per_vertex:.1} B per owned vertex");
}
