//! The O(frontier) wall: a small batch must cost the same at any graph
//! size — in bytes allocated and in vertices and edges touched.
//!
//! Both tests run one batch at the centre of a 64×64 and of a 512×512
//! grid whose edge weights depend only on the position *relative to the
//! centre*, so the two graphs are the same graph around the batch and
//! the repair frontier (a few vertices) is the same set, translated.
//!
//! 1. Through [`ServeState::apply`], under a counting global allocator:
//!    after warm-up batches have grown the resident scratch, the batch
//!    allocates at most 4 KiB and the same number of bytes at both
//!    sizes. (Before the kernels worked in place every batch copied
//!    ≈ 17 B per vertex: ≈ 70 KB at 64², ≈ 4.4 MB at 512².)
//! 2. Through the kernels directly, behind a [`NeighborView`] that
//!    records every adjacency scan: the scanned vertices and the
//!    frontier are identical as relative positions, and the number of
//!    neighbor entries read is equal.

use cmg_coloring::ColorFrontier;
use cmg_graph::util::vertex_priority;
use cmg_graph::{
    CsrGraph, GraphBuilder, MutableGraph, MutationBatch, NeighborView, VertexId, Weight, NO_VERTEX,
};
use cmg_matching::MatchFrontier;
use cmg_serve::{RepairMode, ServeConfig, ServeState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

/// Counts the bytes each thread requests, so that tests running on
/// other threads of this binary do not disturb a measurement.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
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

/// Bytes requested from the allocator by this thread while `f` ran.
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (REQUESTED.with(Cell::get) - before, out)
}

/// A `side × side` grid seen from its centre vertex.
#[derive(Clone, Copy)]
struct Grid {
    side: usize,
}

impl Grid {
    /// The vertex `(dr, dc)` away from the centre.
    fn at(self, dr: i64, dc: i64) -> VertexId {
        let half = (self.side / 2) as i64;
        ((half + dr) * self.side as i64 + half + dc) as VertexId
    }

    /// Where `v` sits relative to the centre.
    fn rel(self, v: VertexId) -> (i64, i64) {
        let half = (self.side / 2) as i64;
        let (r, c) = (v as usize / self.side, v as usize % self.side);
        (r as i64 - half, c as i64 - half)
    }

    /// A weight in (0, 1) that is a function of the edge's position
    /// relative to the centre only (distinct with probability 1).
    fn weight(dr: i64, dc: i64, down: bool) -> Weight {
        let key = (((dr + (1 << 20)) as u64) << 22 | (dc + (1 << 20)) as u64) << 1 | down as u64;
        ((vertex_priority(key, 0x5EED) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn graph(self) -> CsrGraph {
        let s = self.side;
        let mut b = GraphBuilder::with_capacity(s * s, 2 * s * (s - 1));
        for r in 0..s {
            for c in 0..s {
                let v = (r * s + c) as VertexId;
                let (dr, dc) = self.rel(v);
                if c + 1 < s {
                    b.add_edge(v, v + 1, Grid::weight(dr, dc, false));
                }
                if r + 1 < s {
                    b.add_edge(v, v + s as VertexId, Grid::weight(dr, dc, true));
                }
            }
        }
        b.build()
    }
}

/// Reweights the matched edge at `(dr, dc)` (its pair is freed and
/// re-derived; the edge to the right if that vertex is unmatched) and
/// inserts the diagonal from `(dr + 2, dc)`.
fn batch_at(grid: Grid, mate_of: impl Fn(VertexId) -> VertexId, dr: i64, dc: i64) -> MutationBatch {
    let v = grid.at(dr, dc);
    let other = match mate_of(v) {
        NO_VERTEX => v + 1,
        m => m,
    };
    let mut batch = MutationBatch::new();
    batch
        .reweight(v, other, 0.999)
        .insert(grid.at(dr + 2, dc), grid.at(dr + 3, dc + 1), 0.998);
    batch
}

/// Bytes one steady-state small batch allocates inside `ServeState::apply`.
fn steady_state_batch_bytes(side: usize) -> usize {
    let grid = Grid { side };
    let mut state = ServeState::new(&grid.graph(), ServeConfig::default()).expect("initial load");
    // Warm-up: the same shape of batch at eight other places grows the
    // resident scratch to what such a batch needs.
    for i in 0..8 {
        let batch = batch_at(grid, |v| state.mate_of(v), -12 + 3 * i, 7);
        let report = state.apply(&batch).expect("warm-up batch absorbs");
        assert_eq!(report.mode, RepairMode::Repair);
    }
    // The measured batch inserts a diagonal whose endpoints share a
    // color (the cold coloring depends on vertex ids, so where that is
    // differs with the grid's size), so both kernels have work to do.
    let dc = (-8..8)
        .find(|&dc| state.color_of(grid.at(2, dc)) == state.color_of(grid.at(3, dc + 1)))
        .expect("some nearby diagonal is monochrome");
    let batch = batch_at(grid, |v| state.mate_of(v), 0, dc);
    let (bytes, report) = bytes_requested(|| state.apply(&batch));
    let report = report.expect("measured batch absorbs");
    assert_eq!(report.mode, RepairMode::Repair);
    assert!(report.dirty_matching >= 2, "{report:?}");
    assert_eq!(report.dirty_coloring, 1, "{report:?}");
    bytes
}

#[test]
fn steady_state_apply_allocates_a_size_independent_constant() {
    let (small, large) = (steady_state_batch_bytes(64), steady_state_batch_bytes(512));
    assert!(
        small <= 4096,
        "a 2-op batch allocated {small} B on the 64x64 grid"
    );
    assert_eq!(
        small, large,
        "a 2-op batch allocated {small} B at 64x64 but {large} B at 512x512"
    );
}

/// Records what a kernel reads through [`NeighborView`].
struct Probe<'a> {
    g: &'a MutableGraph,
    /// Every `for_each_neighbor(v)` call, in order.
    scanned: RefCell<Vec<VertexId>>,
    /// Neighbor entries those calls yielded.
    entries: Cell<usize>,
}

impl NeighborView for Probe<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.g.edge_weight(u, v)
    }
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight)) {
        self.scanned.borrow_mut().push(v);
        self.entries.set(self.entries.get() + self.g.degree(v));
        self.g.for_each_neighbor(v, f);
    }
}

/// What one batch at the centre made the two kernels touch.
#[derive(Debug, PartialEq)]
struct Touched {
    match_scanned: Vec<(i64, i64)>,
    match_frontier: Vec<(i64, i64)>,
    match_entries: usize,
    color_scans: usize,
    color_frontier: usize,
    color_entries: usize,
}

fn touched_by_centre_batch(side: usize) -> Touched {
    let grid = Grid { side };
    let g0 = grid.graph();
    let mut mate = cmg_matching::seq::greedy(&g0).mates().to_vec();
    // A checkerboard is proper on the grid and makes every diagonal
    // monochrome, independent of vertex ids.
    let mut colors: Vec<u32> = (0..g0.num_vertices() as VertexId)
        .map(|v| {
            let (dr, dc) = grid.rel(v);
            (dr + dc).rem_euclid(2) as u32
        })
        .collect();
    let mut mg = MutableGraph::from_csr(&g0);
    let batch = batch_at(grid, |v| mate[v as usize], 0, 0);
    mg.apply(&batch).expect("valid batch");
    let rel = |mut vs: Vec<VertexId>| {
        vs.sort_unstable();
        vs.into_iter().map(|v| grid.rel(v)).collect::<Vec<_>>()
    };

    let probe = Probe {
        g: &mg,
        scanned: RefCell::default(),
        entries: Cell::new(0),
    };
    let mut frontier = MatchFrontier::new(mate.len());
    frontier.invalidate(&probe, &mut mate, &batch);
    frontier.repair(&probe, &mut mate);
    let (match_scanned, match_entries) = (probe.scanned.take(), probe.entries.take());

    let mut dirty = ColorFrontier::default();
    dirty.invalidate(&probe, &mut colors, &batch, 7);
    let color_frontier = dirty.vertices().len();
    dirty.repair(&probe, &mut colors, 7);
    let color_scans = probe.scanned.borrow().len();
    Touched {
        match_scanned: rel(match_scanned),
        match_frontier: rel(frontier.vertices().to_vec()),
        match_entries,
        color_scans,
        color_frontier,
        color_entries: probe.entries.get(),
    }
}

#[test]
fn kernels_touch_the_same_vertices_and_edges_at_any_size() {
    let small = touched_by_centre_batch(64);
    assert!(small.match_frontier.len() >= 2 && small.color_frontier == 1);
    assert!(
        small.match_scanned.len() <= 64,
        "a 2-op batch scanned {} vertices",
        small.match_scanned.len()
    );
    assert_eq!(small, touched_by_centre_batch(512));
}
