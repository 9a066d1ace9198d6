//! The colouring programs' constructors only take ownership of the
//! rank's slice; the rank builds its index (the exchange's neighbour
//! list and dedup stamps, the colour array, the conflict scope's state)
//! in its own `on_start`, and the one first-fit picker grows its stamps
//! to the colours it meets. Under a counting global allocator: the
//! constructors make a fixed number of allocator calls per rank whatever
//! the slice's size; `DistColoring` construction plus the first step
//! over the 1024² grid on 64 × 64 ranks makes a bounded number of calls
//! per rank and leaves a bounded number of bytes live per owned vertex,
//! and so do distance-2's and Jones–Plassmann's, which keep no table per
//! local index either; the bytes a rank keeps after its first step do
//! not grow with the rank count; and the rounds after the first make a
//! pinned number of calls in all, so an allocation per packet or per
//! message in the engine's steady rounds shows.

use cmg_coloring::{ColorMsg, ColoringConfig, DistColoring, Distance2, JonesPlassmann};
use cmg_obs::{Event, Recorder, RecorderHandle};
use cmg_partition::{grid2d_dist, DistGraph};
use cmg_runtime::{EngineConfig, RankCtx, RankProgram, SimEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Builds one program per rank with `make` on `side × side` ranks of
/// 16 × 16 grid vertices each and runs every rank's first step; reports
/// the rank count, the allocator calls and the bytes left live.
fn first_step<P: RankProgram<Msg = ColorMsg>>(
    side: u32,
    make: impl Fn(DistGraph) -> P,
) -> (usize, usize, usize) {
    let n = 16 * side as usize;
    let parts = grid2d_dist(n, n, side, side, None);
    let ranks = parts.len();
    let recorder = cmg_obs::RecorderHandle::noop();
    let mut ctxs: Vec<RankCtx<ColorMsg>> = (0..ranks as u32)
        .map(|r| RankCtx::new(r, ranks as u32, true, recorder.clone()))
        .collect();
    let (programs, calls, live) = measure(|| {
        let mut programs: Vec<P> = parts.into_iter().map(&make).collect();
        for (p, ctx) in programs.iter_mut().zip(&mut ctxs) {
            p.on_start(ctx);
            // The engine takes the round's packets off the rank at once.
            drop(ctx.end_round());
        }
        programs
    });
    assert_eq!(programs.len(), ranks);
    (ranks, calls, live)
}

#[test]
fn first_step_builds_the_index_once() {
    let cfg = ColoringConfig::default();
    let (ranks, calls, live) = first_step(64, |dg| DistColoring::new(dg, cfg));
    let per_vertex = live as f64 / (SIDE * SIDE) as f64;
    println!(
        "DistColoring::new + on_start over {ranks} ranks: {calls} calls, {per_vertex:.1} B live per owned vertex"
    );
    // Per rank, the index: the exchange's neighbour list and dedup
    // stamps (2), colours, the picker's stamps — 4; a priority is hashed
    // when a conflict edge reads it, and the slice's boundary flags
    // split the owned vertices, so neither a priority table nor a halo
    // view is built. The first step's work list and outgoing parcels
    // bring it to 19.1 (measured; 20.1 with a priority table, 24.0 when
    // a bundle was an encode buffer behind a shared header), plus the
    // `programs` vector. A priority table adds 1 per rank, a halo view 3
    // (its lists); building the index twice makes it ≥ 23.
    assert!(calls <= 20 * ranks + 1, "{calls} calls for {ranks} ranks");
    // Measured 8.1 on 4,096 ranks of 256 vertices:
    // - the picker's stamps, a `u64` per colour up to the largest a
    //   neighbour holds (capacity 4 on the grid): ≈ 0.1;
    // - colours, a `u32` per local index: 5;
    // - the boundary work list: ≈ 0.9;
    // - program headers, the exchange's neighbour list and stamps and
    //   the contexts' bundle tables: ≈ 2.0.
    // A `u64` priority per local index adds 10 (it measured 18.2 with
    // one), stamps per local index ≈ 10 more (28.0 with both). A halo
    // view adds ≈ 4 (35.3 with one that also listed the interior).
    // Fan-out tables sized by the run (a `u32` stamp and a FIAC flag per
    // rank) would add 80.
    assert!(per_vertex < 8.5, "{per_vertex:.1} B per owned vertex");
}

#[test]
fn distance2_and_jp_first_steps_keep_no_table_per_local_index() {
    // Measured 12.7 B per owned vertex for distance-2 (its first work
    // list is the whole slice, and it keeps a re-colour flag per owned
    // vertex) and 10.4 for JP (its pending list). A stamp array of
    // `n_total + 2` colours made distance-2 22.6, and a `u64` priority
    // per local index made JP 20.7.
    let d2 = first_step(64, |dg| -> DistColoring<Distance2> {
        DistColoring::distance2(dg, 1000, 7)
    });
    let jp = first_step(64, |dg| JonesPlassmann::new(dg, 7));
    for (name, (ranks, calls, live), bound) in [("distance2", d2, 15.0), ("JP", jp, 12.0)] {
        let per_vertex = live as f64 / (SIDE * SIDE) as f64;
        println!(
            "{name} + on_start over {ranks} ranks: {calls} calls, {per_vertex:.1} B live per owned vertex"
        );
        assert!(
            per_vertex < bound,
            "{name}: {per_vertex:.1} B per owned vertex"
        );
    }
}

#[test]
fn index_bytes_per_rank_do_not_grow_with_the_rank_count() {
    // The same 16 × 16 slice per rank on 4,096 and on 16,384 ranks: a
    // table sized by the rank count quadruples between the two.
    let cfg = ColoringConfig::default();
    let d1 = |side| first_step(side, |dg| DistColoring::new(dg, cfg));
    let jp = |side| first_step(side, |dg| JonesPlassmann::new(dg, 7));
    for (name, small, large) in [("DistColoring", d1(64), d1(128)), ("JP", jp(64), jp(128))] {
        let per_rank = |(ranks, _, live): (usize, usize, usize)| live as f64 / ranks as f64;
        let (small, large) = (per_rank(small), per_rank(large));
        println!("{name}: {small:.0} B live per rank on 64 × 64 ranks, {large:.0} on 128 × 128");
        assert!(
            large <= 1.1 * small,
            "{name}: {large:.0} B per rank on 128 × 128 ranks vs {small:.0} on 64 × 64"
        );
    }
}

/// This thread's allocator-call count at the end of each round, stored
/// without allocating.
struct RoundMarks([AtomicUsize; 64]);

impl Recorder for RoundMarks {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, _rank: u32, _time: f64, event: Event) {
        if let Event::RoundEnd { round, .. } = event {
            if let Some(mark) = self.0.get(round as usize) {
                mark.store(HEAP.with(Cell::get).calls, Ordering::Relaxed);
            }
        }
    }
}

#[test]
fn steady_rounds_make_a_pinned_number_of_calls() {
    let cfg = ColoringConfig::default();
    let programs: Vec<DistColoring> = grid2d_dist(SIDE, SIDE, 64, 64, None)
        .into_iter()
        .map(|dg| DistColoring::new(dg, cfg))
        .collect();
    let marks = Arc::new(RoundMarks(std::array::from_fn(|_| AtomicUsize::new(0))));
    let config = EngineConfig {
        recorder: RecorderHandle::new(marks.clone()),
        ..EngineConfig::default()
    };
    let result = SimEngine::new(programs, config).run();
    let rounds = result.stats.rounds as usize;
    let at: Vec<usize> = marks.0.iter().map(|m| m.load(Ordering::Relaxed)).collect();
    let steady = at[rounds - 1] - at[0];
    let packets: u64 = result.stats.per_rank.iter().map(|s| s.packets_sent).sum();
    println!("{rounds} rounds, {packets} packets; {steady} calls after the first round");
    // Measured 69,399 in debug and in release over rounds 1-27, mostly
    // each parcel's message vector, which the receiving program
    // consumes. With encoded bundles it was 216,105: an encode buffer,
    // its shared header and a decode target per packet. The run sends
    // 72,948 packets, so one allocation more per packet or per delivery
    // lifts it by far more than the 5 % slack.
    assert!(steady <= 72_870, "{steady} calls");
}
