//! `DistMatching::new` only takes ownership of the rank's slice; the rank
//! builds its index (rows sorted in place, halo view, proposal slots,
//! per-vertex state) in
//! its own `on_start`. Under a counting global allocator: the constructor
//! makes no allocator call per rank whatever the slice's size, and
//! construction plus the first step over the 1024² grid on 64 × 64 ranks
//! makes a fixed number of calls per rank and leaves a bounded number of
//! bytes live per owned vertex. The rounds after the first make a pinned
//! number of calls in all, so an allocation per packet or per message in
//! the engine's steady rounds shows.

use cmg_matching::{DistMatching, MatchMsg};
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

#[test]
fn constructor_does_no_per_vertex_work() {
    // 256 and 4,096 owned vertices per rank: the call count must not
    // follow the slice's size.
    for (pr, pc) in [(64u32, 64u32), (16, 16)] {
        let parts = grid2d_dist(SIDE, SIDE, pr, pc, Some(1));
        let ranks = parts.len();
        let (programs, calls, live) = measure(|| {
            parts
                .into_iter()
                .map(DistMatching::new)
                .collect::<Vec<DistMatching>>()
        });
        // The `programs` vector replaces the `parts` one: each rank's
        // header grows by the program's fields beside its slice.
        let headers = ranks * (size_of::<DistMatching>() - size_of::<DistGraph>());
        let per_vertex = live.saturating_sub(headers) as f64 / (SIDE * SIDE) as f64;
        println!(
            "DistMatching::new over {ranks} ranks: {calls} calls, {live} B live, \
             {per_vertex:.2} B per owned vertex beyond the headers"
        );
        assert_eq!(programs.len(), ranks);
        // Measured 1 on both shapes: the `programs` vector. Each rank's
        // empty vectors, queue and halo view allocate nothing; a sort or
        // halo build back in the constructor makes it ≥ 3 per rank.
        assert!(calls <= 1, "{calls} calls for {ranks} ranks");
        // Measured 0.00 on both shapes. The smallest per-vertex array
        // (the states, 1 B per local index) would add 1.25.
        assert!(per_vertex < 0.5, "{per_vertex:.2} B per owned vertex");
    }
}

#[test]
fn first_step_builds_the_index_once() {
    let parts = grid2d_dist(SIDE, SIDE, 64, 64, Some(1));
    let ranks = parts.len();
    let recorder = cmg_obs::RecorderHandle::noop();
    let mut ctxs: Vec<RankCtx<MatchMsg>> = (0..ranks as u32)
        .map(|r| RankCtx::new(r, ranks as u32, true, recorder.clone()))
        .collect();
    let (programs, calls, live) = measure(|| {
        let mut programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
        for (p, ctx) in programs.iter_mut().zip(&mut ctxs) {
            p.on_start(ctx);
            // The engine takes the round's packets off the rank at once.
            drop(ctx.end_round());
        }
        programs
    });
    let per_vertex = live as f64 / (SIDE * SIDE) as f64;
    println!(
        "DistMatching::new + on_start over {ranks} ranks: {calls} calls, {per_vertex:.1} B live per owned vertex"
    );
    assert_eq!(programs.len(), ranks);
    // Per rank, the index: cursors, states, candidates (3), the proposal
    // offsets and slots (2) and the halo view (3) — 8. The rows are
    // sorted in the slice by networks on the stack (a grid row is never
    // longer than 4), and the halo counts and fills through its own
    // offsets, so neither allocates scratch. The first step's inner-loop
    // queue (grown, then shrunk once the start's drain is done) and
    // outgoing parcels bring it to 24.7 on average (measured; 23.7
    // before the queue was shrunk, 25.7 with a mate vector and two
    // queue entries per matched pair, 30.6 when a bundle was an encode
    // buffer behind a shared header, 3 more with a row buffer and two
    // halo scratch arrays), plus the `programs` vector. A sorted copy of
    // the adjacency adds 2 per rank; building the index twice makes it
    // ≥ 31.
    assert!(calls <= 25 * ranks + 1, "{calls} calls for {ranks} ranks");
    // Measured 16.0 B per owned vertex, on 4,096 ranks of 256 vertices
    // with ≈ 59 on a block boundary and ≈ 63 ghosts each:
    // - row-relative `u32` cursors: 4;
    // - candidates: 4 (a matched vertex's candidate is its mate);
    // - states, 1 B per local index: 1.25;
    // - halo view (boundary list 0.9, `u32` ghost offsets 1.0, reverse
    //   cross-adjacency 1.0): ≈ 2.9;
    // - proposal offsets per boundary vertex 0.9, one slot per ghost
    //   entry 1.0: ≈ 1.9;
    // - program headers ≈ 1.2, the queue shrunk to 16 entries after the
    //   first step's drain ≈ 0.3 and the contexts' bundle tables ≈ 0.5.
    // It read 17.6 with the queue at its drain's capacity (≈ 1.9, one
    // entry per matched pair), 24.5 with a mate vector (4), `usize`
    // ghost offsets (1) and two queue entries per matched pair (1.8). A
    // weight-sorted copy of the adjacency adds 24 (it measured 55.3 with
    // one, and per-vertex proposal lists).
    assert!(per_vertex < 16.8, "{per_vertex:.1} B per owned vertex");
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
    let programs: Vec<DistMatching> = grid2d_dist(SIDE, SIDE, 64, 64, Some(1))
        .into_iter()
        .map(DistMatching::new)
        .collect();
    let marks = Arc::new(RoundMarks(std::array::from_fn(|_| AtomicUsize::new(0))));
    let config = EngineConfig {
        recorder: RecorderHandle::new(marks.clone()),
        ..EngineConfig::default()
    };
    let result = SimEngine::new(programs, config).run();
    let rounds = result.stats.rounds as usize;
    let at: Vec<usize> = marks.0.iter().map(|m| m.load(Ordering::Relaxed)).collect();
    let per_round: Vec<usize> = (1..rounds).map(|r| at[r] - at[r - 1]).collect();
    let steady: usize = per_round.iter().sum();
    let packets: u64 = result.stats.per_rank.iter().map(|s| s.packets_sent).sum();
    println!("{rounds} rounds, {packets} packets; calls by round after the first: {per_round:?}, {steady} in all");
    // Measured 19,296 in debug and in release (17,579 / 1,633 / 82 / 2 /
    // 0), mostly each parcel's message vector, which the receiving
    // program consumes. With encoded bundles it was 65,831: an encode
    // buffer, its shared header and a decode target per packet. The run
    // sends 31,328 packets, so one allocation more per
    // packet or per delivery lifts it by far more than the 5 % slack.
    assert!(steady <= 20_260, "{steady} calls");
}
