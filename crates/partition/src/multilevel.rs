//! Multilevel recursive-bisection partitioner — the METIS-like tool of the
//! workspace (Karypis–Kumar scheme: heavy-edge-matching coarsening, greedy
//! graph-growing initial bisection, FM-style boundary refinement).
//!
//! Interestingly, the coarsening phase is itself an application of the
//! paper's subject matter: METIS's heavy-edge matching is one of the
//! motivating uses of matching the introduction lists ("the coarsening
//! phase of multilevel algorithms for graph partitioning").
//!
//! The assignment is a pure function of `(graph, k, seed)` and is pinned
//! bit for bit by `tests/multilevel_golden.rs`; what it depends on — the
//! row order the initial bisection's BFS reads, the matching's shuffle and
//! tie-break, the index order and strict comparisons of the refinement
//! sweeps — is listed in DESIGN.md §17. Within that, the work is kept
//! linear and local: contraction aggregates each coarse row where it lies
//! and leaves it in the order its members yield it (only the coarsest
//! level, which the BFS reads, is sorted), refinement keeps one gain per
//! vertex up to date instead of re-deriving it from the edges on every
//! sweep, and the recursion borrows or moves its graphs instead of copying
//! them. The two halves of a split share nothing, so large ones are
//! bisected at the same time.

use crate::Partition;
use cmg_graph::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::resume_unwind;
use std::thread::{self, available_parallelism};

/// Allowed deviation of a side's weight from its target, as a fraction of
/// total weight. Must stay tight: recursive bisection compounds the
/// per-level tolerance (k = 16 means four levels, so worst-case part
/// imbalance is roughly `(1 + 2·tol)^4`).
const BALANCE_TOL: f64 = 0.015;
/// Stop coarsening below this many vertices.
const COARSE_TARGET: usize = 64;
/// Refinement passes per level.
const REFINE_PASSES: usize = 4;
/// Initial-bisection attempts (best cut wins).
const INIT_ATTEMPTS: u64 = 8;
/// A half of a split gets a thread of its own only if both halves are split
/// further and have at least this many vertices: a spawn costs tens of
/// microseconds, a bisection of this size milliseconds.
const SPAWN_MIN: usize = 1 << 13;

/// Internal working graph: structural (unit) edge weights that accumulate
/// during contraction, plus vertex weights.
///
/// Level 0 of every bisection is an induced subgraph of the input, so all
/// its weights are 1 and are not stored: empty `ew` / `vw` mean "all ones".
/// Offsets and weights are `u32`: `from_csr` checks that the adjacency
/// length fits, and contraction only ever sums or drops what is below it
/// (`Σ ew ≤` adjacency length, `Σ vw` = vertex count).
struct WorkGraph {
    xadj: Vec<u32>,
    adj: Vec<u32>,
    ew: Vec<u32>,
    vw: Vec<u32>,
}

impl WorkGraph {
    fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// An edgeless unit-weight graph with room for `n` rows of `entries`
    /// neighbours in total, to be filled row by row.
    fn unit_with_capacity(n: usize, entries: usize) -> Self {
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        WorkGraph {
            xadj,
            adj: Vec::with_capacity(entries),
            ew: Vec::new(),
            vw: Vec::new(),
        }
    }

    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut wg = WorkGraph::unit_with_capacity(n, 2 * g.num_edges());
        for v in 0..n as VertexId {
            wg.adj.extend_from_slice(g.neighbors(v));
            wg.xadj.push(wg.adj.len() as u32);
        }
        assert!(
            u32::try_from(wg.adj.len()).is_ok(),
            "multilevel_partition: more than u32::MAX adjacency entries"
        );
        wg
    }

    /// Calls `f(u, w)` for each neighbour `u` of `v`, joined by weight `w`.
    /// Whether weights are stored is decided once a row, not once an entry.
    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32, u32)) {
        let row = self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize;
        // `None` on a unit graph (an empty `ew` has no such range), except
        // for an empty row at offset 0, which yields nothing either way.
        match self.ew.get(row.clone()) {
            Some(ew) => self.adj[row].iter().zip(ew).for_each(|(&u, &w)| f(u, w)),
            None => self.adj[row].iter().for_each(|&u| f(u, 1)),
        }
    }

    /// Puts the rows of a contracted (weighted) graph in ascending order.
    fn sort_rows(&mut self) {
        let mut row = Vec::new();
        for r in self.xadj.windows(2) {
            let r = r[0] as usize..r[1] as usize;
            row.clear();
            let entries = self.adj[r.clone()].iter().zip(&self.ew[r.clone()]);
            row.extend(entries.map(|(&u, &w)| (u, w)));
            row.sort_unstable();
            for (i, &(u, w)) in r.zip(&row) {
                (self.adj[i], self.ew[i]) = (u, w);
            }
        }
    }

    /// Whether every row is in ascending order, the one the BFS reads.
    fn rows_ascending(&self) -> bool {
        let row = |r: &[u32]| &self.adj[r[0] as usize..r[1] as usize];
        self.xadj.windows(2).all(|r| row(r).is_sorted())
    }

    fn vw(&self, v: usize) -> u32 {
        if self.vw.is_empty() {
            1
        } else {
            self.vw[v]
        }
    }

    fn total_vw(&self) -> u64 {
        if self.vw.is_empty() {
            self.n() as u64
        } else {
            self.vw.iter().map(|&w| u64::from(w)).sum()
        }
    }
}

/// Buffers that every level of every bisection on one thread reuses, so
/// that allocator calls grow with the number of levels and not with the
/// number of vertices. A half bisected on a thread of its own starts a new
/// `Scratch`.
#[derive(Default)]
struct Scratch {
    /// The matching's shuffled visiting order.
    order: Vec<u32>,
    /// The one or two fine vertices of each coarse vertex (`[v, v]` if
    /// `v` stayed unmatched).
    members: Vec<[u32; 2]>,
    /// Per coarse id, while its neighbours' rows are aggregated: 1 + the
    /// index in the coarse `adj` of its entry in the row being built
    /// (anything at or below the row's start is left over from an earlier
    /// row).
    pos: Vec<u32>,
    /// Per-vertex gain of the level being refined.
    gain: Vec<i64>,
}

/// Partitions `g` into `k` parts by multilevel recursive bisection.
///
/// Edge weights of `g` are ignored: the partitioner minimizes the *edge
/// cut* of the structure (the quantity that determines communication
/// volume), not the matching objective.
///
/// # Panics
/// Panics if `k` is 0, or if `g` has more than `u32::MAX` adjacency
/// entries (offsets and accumulated weights are kept in 32 bits).
pub fn multilevel_partition(g: &CsrGraph, k: u32, seed: u64) -> Partition {
    assert!(k > 0);
    let n = g.num_vertices();
    let assignment = if k > 1 && n > 0 {
        let threads = available_parallelism().map_or(1, usize::from);
        let wg = WorkGraph::from_csr(g);
        split(wg, k, seed, threads, &mut Scratch::default())
    } else {
        vec![0; n]
    };
    Partition::new(assignment, k)
}

/// Recursively bisects `wg` into `k` parts, on at most `threads` threads
/// (this one included), and returns each vertex's part.
fn split(wg: WorkGraph, k: u32, seed: u64, threads: usize, scratch: &mut Scratch) -> Vec<u32> {
    if k == 1 {
        return vec![0; wg.n()];
    }
    let (k0, k1) = (k / 2, k - k / 2);
    let frac = k0 as f64 / k as f64; // side 0's share of the weight
    let side = bisect(&wg, frac, seed, scratch);
    if k == 2 {
        // Both sides are single parts: no subgraph is needed to name them.
        return side.iter().map(|&s| u32::from(s)).collect();
    }

    let [sub0, sub1] = extract(&wg, &side);
    drop(wg);
    let (seed0, seed1) = (seed.wrapping_add(1), seed.wrapping_add(2));
    let pays_off = |g: &WorkGraph, k: u32| k > 1 && g.n() >= SPAWN_MIN;
    let (parts0, parts1) = if threads > 1 && pays_off(&sub0, k0) && pays_off(&sub1, k1) {
        // The halves share no vertex, seed or buffer: side 0 runs on a new
        // thread with a new `Scratch`, and each keeps its share of threads.
        let t0 = threads / 2;
        thread::scope(|s| {
            let side0 = s.spawn(move || split(sub0, k0, seed0, t0, &mut Scratch::default()));
            let parts1 = split(sub1, k1, seed1, threads - t0, scratch);
            (side0.join().unwrap_or_else(|e| resume_unwind(e)), parts1)
        })
    } else {
        let parts0 = split(sub0, k0, seed0, threads, scratch);
        (parts0, split(sub1, k1, seed1, threads, scratch))
    };
    // A half numbers its vertices in index order: read each list in turn.
    let mut parts0 = parts0.into_iter();
    let mut parts1 = parts1.into_iter().map(|p| k0 + p);
    side.iter()
        .filter_map(|&s| if s { parts1.next() } else { parts0.next() })
        .collect()
}

/// The two induced subgraphs of a bisection of a level-0 (unit-weight)
/// graph: `[side 0, side 1]`.
fn extract(wg: &WorkGraph, side: &[bool]) -> [WorkGraph; 2] {
    debug_assert!(wg.ew.is_empty() && wg.vw.is_empty());
    // A vertex's new id is its rank within its side; a side's degree sum
    // bounds its adjacency (the cut entries are what it will not use).
    let mut remap = vec![0u32; wg.n()];
    let (mut count, mut entries) = ([0usize; 2], [0usize; 2]);
    for v in 0..wg.n() {
        let s = usize::from(side[v]);
        remap[v] = count[s] as u32;
        count[s] += 1;
        entries[s] += (wg.xadj[v + 1] - wg.xadj[v]) as usize;
    }
    let mut sub = [0, 1].map(|s| WorkGraph::unit_with_capacity(count[s], entries[s]));
    for v in 0..wg.n() {
        let g = &mut sub[usize::from(side[v])];
        let row = &wg.adj[wg.xadj[v] as usize..wg.xadj[v + 1] as usize];
        g.adj.extend(
            row.iter()
                .filter(|&&u| side[u as usize] == side[v])
                .map(|&u| remap[u as usize]),
        );
        g.xadj.push(g.adj.len() as u32);
    }
    sub
}

/// Multilevel bisection of `wg`: side 0 targets `frac` of the weight.
fn bisect(wg: &WorkGraph, frac: f64, seed: u64, scratch: &mut Scratch) -> Vec<bool> {
    fn coarsest<'a>(wg: &'a WorkGraph, levels: &'a [(WorkGraph, Vec<u32>)]) -> &'a WorkGraph {
        levels.last().map_or(wg, |(g, _)| g)
    }
    // Coarsen. `levels[i]` holds the graph of level i + 1 and the map onto
    // it from level i; level 0 is `wg` itself, borrowed.
    let mut levels: Vec<(WorkGraph, Vec<u32>)> = Vec::new();
    while coarsest(wg, &levels).n() > COARSE_TARGET {
        match coarsen(coarsest(wg, &levels), seed ^ levels.len() as u64, scratch) {
            Some(level) => levels.push(level),
            None => break, // contraction stalled (e.g. star graphs)
        }
    }

    // Initial bisection on the coarsest graph: best of a few seeds. Its BFS
    // is the one reader of row order; level 0's rows are already ascending.
    if let Some((g, _)) = levels.last_mut() {
        g.sort_rows();
    }
    let cur = coarsest(wg, &levels);
    let mut side = grow_bisection(cur, frac, seed);
    refine(cur, &mut side, frac, &mut scratch.gain);
    let mut best_cut = cut_weight(cur, &side);
    for attempt in 1..INIT_ATTEMPTS {
        let mut cand = grow_bisection(cur, frac, seed.wrapping_add(attempt));
        refine(cur, &mut cand, frac, &mut scratch.gain);
        let cut = cut_weight(cur, &cand);
        if cut < best_cut {
            best_cut = cut;
            side = cand;
        }
    }

    // Uncoarsen: project and refine at each level.
    while let Some((_, map)) = levels.pop() {
        let mut fine_side: Vec<bool> = map.iter().map(|&c| side[c as usize]).collect();
        let fine = coarsest(wg, &levels);
        refine(fine, &mut fine_side, frac, &mut scratch.gain);
        side = fine_side;
    }
    side
}

/// One heavy-edge-matching contraction step. Returns the coarse graph and
/// the fine→coarse vertex map, or `None` if the matching contracts fewer
/// than 5 % of the vertices.
fn coarsen(wg: &WorkGraph, seed: u64, scratch: &mut Scratch) -> Option<(WorkGraph, Vec<u32>)> {
    let n = wg.n();
    let Scratch {
        order,
        members,
        pos,
        ..
    } = scratch;
    let mut rng = SmallRng::seed_from_u64(seed);
    order.clear();
    order.extend(0..n as u32);
    order.shuffle(&mut rng);

    let mut mate = vec![u32::MAX; n];
    let mut coarse_n = n;
    for &v in order.iter() {
        if mate[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest edge to an unmatched neighbour, lowest id among equals:
        // the maximum of `(w, Reverse(u))`, packed so that it is one `max`.
        let mut best = 0u64;
        wg.for_each_neighbor(v, |u, w| {
            if u != v && mate[u as usize] == u32::MAX {
                best = best.max(u64::from(w) << 32 | u64::from(!u));
            }
        });
        // Weights are at least 1, so 0 still means "no candidate".
        let u = if best == 0 { v } else { !(best as u32) };
        mate[v as usize] = u;
        mate[u as usize] = v;
        coarse_n -= usize::from(u != v);
    }
    if coarse_n as f64 > 0.95 * n as f64 {
        return None;
    }

    // Coarse ids in order of the smaller endpoint. `mate` becomes the map
    // in place: at `v`, entries below `v` are already coarse ids and
    // entries from `v` up are still mates.
    let mut map = mate;
    let mut vw = Vec::with_capacity(coarse_n);
    members.clear();
    members.reserve(coarse_n);
    for v in 0..n {
        let m = map[v] as usize;
        if m < v {
            map[v] = map[m];
        } else {
            map[v] = members.len() as u32;
            members.push([v as u32, m as u32]);
            vw.push(wg.vw(v) + if m != v { wg.vw(m) } else { 0 });
        }
    }

    // Aggregate each coarse row from the rows of its members, in the order
    // they yield it; `pos` folds parallel edges into one entry. No coarse
    // row is longer than its members' rows together, so the fine adjacency
    // bounds the coarse one (and the unused tail is returned at the end).
    pos.clear();
    pos.resize(coarse_n, 0);
    let mut xadj = Vec::with_capacity(coarse_n + 1);
    xadj.push(0);
    let mut adj = Vec::with_capacity(wg.adj.len());
    let mut ew = Vec::with_capacity(wg.adj.len());
    for (c, &[v, m]) in members.iter().enumerate() {
        let base = adj.len();
        for &f in &[v, m][..1 + usize::from(m != v)] {
            wg.for_each_neighbor(f, |u, w| {
                let cu = map[u as usize];
                if cu as usize == c {
                    return;
                }
                let p = pos[cu as usize] as usize;
                if p > base {
                    ew[p - 1] += w;
                } else {
                    adj.push(cu);
                    ew.push(w);
                    pos[cu as usize] = adj.len() as u32;
                }
            });
        }
        xadj.push(adj.len() as u32);
    }
    adj.shrink_to_fit();
    ew.shrink_to_fit();
    Some((WorkGraph { xadj, adj, ew, vw }, map))
}

/// Greedy graph-growing bisection: BFS from a random start until side 0
/// holds `frac` of the total weight.
fn grow_bisection(wg: &WorkGraph, frac: f64, seed: u64) -> Vec<bool> {
    let n = wg.n();
    debug_assert!(wg.rows_ascending(), "the BFS reads rows in ascending order");
    let total = wg.total_vw();
    let target0 = (frac * total as f64).round() as u64;
    let mut side = vec![true; n]; // true = side 1; we grow side 0
    if n == 0 {
        return side;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut in0: u64 = 0;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut starts: Vec<u32> = (0..n as u32).collect();
    starts.shuffle(&mut rng);
    let mut start_iter = starts.into_iter();

    while in0 < target0 {
        if queue.is_empty() {
            // New component (or first start).
            let Some(s) = start_iter.find(|&s| !visited[s as usize]) else {
                break;
            };
            visited[s as usize] = true;
            queue.push_back(s);
        }
        let Some(v) = queue.pop_front() else { break };
        side[v as usize] = false;
        in0 += u64::from(wg.vw(v as usize));
        wg.for_each_neighbor(v, |u, _| {
            if !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        });
    }
    side
}

/// Total weight of cut edges.
fn cut_weight(wg: &WorkGraph, side: &[bool]) -> u64 {
    let mut cut = 0;
    for v in 0..wg.n() as u32 {
        wg.for_each_neighbor(v, |u, w| {
            if u > v && side[u as usize] != side[v as usize] {
                cut += u64::from(w);
            }
        });
    }
    cut
}

/// Every vertex's gain — the cut weight its flip would remove: external
/// minus internal edge weight — derived from the edges.
fn gains_from_scratch(wg: &WorkGraph, side: &[bool], gain: &mut Vec<i64>) {
    gain.clear();
    gain.extend((0..wg.n()).map(|v| {
        let mut own = 0;
        wg.for_each_neighbor(v as u32, |u, w| {
            let w = i64::from(w);
            own += if side[u as usize] == side[v] { -w } else { w };
        });
        own
    }));
}

/// Weight of side 0 (`side[v] == false`).
fn side0_weight(wg: &WorkGraph, side: &[bool]) -> f64 {
    (0..wg.n())
        .filter(|&v| !side[v])
        .map(|v| f64::from(wg.vw(v)))
        .sum()
}

/// Greedy FM-style refinement: positive-gain passes, an explicit
/// rebalance, then more passes to repair any cut damage the rebalance
/// introduced.
fn refine(wg: &WorkGraph, side: &mut [bool], frac: f64, gain: &mut Vec<i64>) {
    let mut r = Refiner::new(wg, side, frac, gain);
    r.refine_passes();
    r.rebalance();
    r.refine_passes();
    debug_assert!(
        r.is_current(),
        "maintained gains differ from a recount: is the graph symmetric?"
    );
}

/// One level under refinement. Across every flip, `gain` is kept equal to
/// what `gains_from_scratch` would return for the current `side`, and `w0`
/// to the weight of side 0 (a sum of integers, so exact in `f64` however
/// it is accumulated).
struct Refiner<'a> {
    wg: &'a WorkGraph,
    side: &'a mut [bool],
    gain: &'a mut [i64],
    w0: f64,
    target0: f64,
    tol: f64,
}

impl<'a> Refiner<'a> {
    /// Side 0 targets `frac` of the weight; gains and `w0` start from a
    /// count over `side` as it stands.
    fn new(wg: &'a WorkGraph, side: &'a mut [bool], frac: f64, gain: &'a mut Vec<i64>) -> Self {
        gains_from_scratch(wg, side, gain);
        let total = wg.total_vw() as f64;
        Refiner {
            w0: side0_weight(wg, side),
            wg,
            side,
            gain,
            target0: frac * total,
            tol: BALANCE_TOL * total,
        }
    }

    /// Whether the maintained state equals a recount.
    fn is_current(&self) -> bool {
        let mut fresh = Vec::new();
        gains_from_scratch(self.wg, self.side, &mut fresh);
        fresh[..] == *self.gain && self.w0 == side0_weight(self.wg, self.side)
    }

    /// Weight of side 0 once `v` has changed sides.
    fn w0_after_flip(&self, v: usize) -> f64 {
        let delta = f64::from(self.wg.vw(v));
        if self.side[v] {
            self.w0 + delta
        } else {
            self.w0 - delta
        }
    }

    /// Moves `v` to the other side, in O(deg v): each neighbour's edge to
    /// `v` changes between internal and external, and `v`'s own gain is
    /// summed afresh (which also overwrites what a self-loop did to it).
    fn flip(&mut self, v: usize) {
        self.w0 = self.w0_after_flip(v);
        self.side[v] = !self.side[v];
        let mut own = 0;
        let (side, gain) = (&*self.side, &mut *self.gain);
        self.wg.for_each_neighbor(v as u32, |u, w| {
            let w = i64::from(w);
            let signed = if side[u as usize] == side[v] { -w } else { w };
            gain[u as usize] += 2 * signed;
            own += signed;
        });
        self.gain[v] = own;
    }

    /// Repeatedly flips positive-gain boundary vertices while staying
    /// within the balance tolerance.
    fn refine_passes(&mut self) {
        for _ in 0..REFINE_PASSES {
            let mut moved = false;
            for v in 0..self.wg.n() {
                if self.gain[v] <= 0 {
                    continue;
                }
                let old_dev = (self.w0 - self.target0).abs();
                let new_dev = (self.w0_after_flip(v) - self.target0).abs();
                if new_dev <= self.tol.max(old_dev) {
                    self.flip(v);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Restores the balance constraint. Greedy refinement only flips
    /// positive-gain vertices, so it cannot repair an unbalanced start (a
    /// graph-growing overshoot on a coarse graph, or drift introduced by
    /// projecting a coarse bisection down a level). While the deviation
    /// exceeds the tolerance, this moves the cheapest boundary-gain vertex
    /// from the heavy side to the light side; each move strictly shrinks
    /// the deviation, so the loop terminates.
    fn rebalance(&mut self) {
        loop {
            let dev = self.w0 - self.target0;
            if dev.abs() <= self.tol {
                break;
            }
            // The heavy side: side 0 if dev > 0 (side[v] == false), else side 1.
            let heavy = dev < 0.0;
            let mut best: Option<(i64, usize)> = None;
            for v in 0..self.wg.n() {
                if self.side[v] != heavy {
                    continue;
                }
                let delta = f64::from(self.wg.vw(v));
                let new_dev = if heavy { dev + delta } else { dev - delta };
                if new_dev.abs() >= dev.abs() {
                    continue; // the move must strictly improve balance
                }
                if best.is_none_or(|(bg, _)| self.gain[v] > bg) {
                    best = Some((self.gain[v], v));
                }
            }
            match best {
                Some((_, v)) => self.flip(v),
                None => break, // no single vertex can improve balance further
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::random_partition;
    use cmg_graph::generators::{circuit_like, grid2d, rmat, star};
    use rand::Rng;

    fn row(g: &WorkGraph, v: u32) -> Vec<(u32, u32)> {
        let mut row = Vec::new();
        g.for_each_neighbor(v, |u, w| row.push((u, w)));
        row
    }

    /// Coarsens `g` level by level and checks, at every level, what the
    /// rest of the partitioner reads off a coarse graph. Rows may come in
    /// any order (only the coarsest level's is read, and `bisect` sorts it;
    /// `grow_bisection` debug-asserts ascending rows), but each row names a
    /// neighbour once and never its own vertex, every entry has a mirror of
    /// equal weight, and no vertex or edge weight is lost.
    fn check_contraction(g: &CsrGraph, seed: u64) {
        let mut scratch = Scratch::default();
        let mut fine = WorkGraph::from_csr(g);
        let mut levels = 0;
        while let Some((coarse, map)) = coarsen(&fine, seed ^ levels, &mut scratch) {
            for c in 0..coarse.n() as u32 {
                let mut ids: Vec<u32> = row(&coarse, c).iter().map(|&(d, _)| d).collect();
                ids.sort_unstable();
                assert!(ids.windows(2).all(|d| d[0] < d[1]), "row {c}: {ids:?}");
                for (d, w) in row(&coarse, c) {
                    assert_ne!(d, c, "self-loop at {c}");
                    let mirror = row(&coarse, d);
                    assert!(mirror.contains(&(c, w)), "{c} -> {d} has no equal mirror");
                }
            }
            assert_eq!(coarse.total_vw(), fine.total_vw());
            let sum_ew = |g: &WorkGraph| -> u64 {
                (0..g.n() as u32)
                    .flat_map(|v| row(g, v))
                    .map(|(_, w)| u64::from(w))
                    .sum()
            };
            let contracted: u64 = (0..fine.n() as u32)
                .flat_map(|v| row(&fine, v).into_iter().map(move |(u, w)| (v, u, w)))
                .filter(|&(v, u, _)| map[v as usize] == map[u as usize])
                .map(|(_, _, w)| u64::from(w))
                .sum();
            assert!(contracted > 0);
            assert_eq!(sum_ew(&coarse), sum_ew(&fine) - contracted);
            fine = coarse;
            levels += 1;
        }
        assert!(levels >= 3, "only {levels} levels");
    }

    #[test]
    fn contraction_keeps_rows_duplicate_free_symmetric_and_weights_conserved() {
        check_contraction(&circuit_like(3_000, 5), 1);
        check_contraction(&grid2d(40, 25), 2);
        check_contraction(&rmat(10, 8, (0.57, 0.19, 0.19, 0.05), 3), 3);
    }

    /// Drives every mutation of `Refiner` from a random, badly unbalanced
    /// start on `wg` and compares the maintained state with a recount.
    fn check_maintained_gains(wg: &WorkGraph, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut side: Vec<bool> = (0..wg.n()).map(|_| rng.random::<f64>() < 0.8).collect();
        let mut gain = Vec::new();
        let mut r = Refiner::new(wg, &mut side, 0.5, &mut gain);
        for _ in 0..50 {
            r.flip(rng.random_range(0..wg.n()));
        }
        assert!(r.is_current());
        r.refine_passes();
        assert!(r.is_current());
        r.rebalance();
        assert!(r.is_current());
        assert!((r.w0 - r.target0).abs() <= r.tol, "rebalance left {}", r.w0);
        r.refine_passes();
        assert!(r.is_current());
    }

    #[test]
    fn flips_keep_the_gain_array_equal_to_a_recount() {
        let mut scratch = Scratch::default();
        let unit = WorkGraph::from_csr(&circuit_like(2_000, 4));
        check_maintained_gains(&unit, 1);
        let (once, _) = coarsen(&unit, 7, &mut scratch).expect("contracts");
        let (twice, _) = coarsen(&once, 8, &mut scratch).expect("contracts");
        check_maintained_gains(&twice, 2);
        check_maintained_gains(&WorkGraph::from_csr(&star(300)), 3);
    }

    #[test]
    fn bisection_of_grid_is_near_optimal() {
        let g = grid2d(16, 16);
        let p = multilevel_partition(&g, 2, 42);
        let q = p.quality(&g);
        assert!(q.imbalance <= 1.05, "imbalance {}", q.imbalance);
        // Optimal bisection cut of a 16x16 grid is 16; allow 2x slack.
        assert!(q.edge_cut <= 32, "cut {}", q.edge_cut);
    }

    #[test]
    fn kway_partition_is_balanced_and_low_cut() {
        let g = grid2d(24, 24);
        let p = multilevel_partition(&g, 8, 1);
        let q = p.quality(&g);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 576);
        assert!(q.imbalance <= 1.15, "imbalance {}", q.imbalance);
        let rnd = random_partition(576, 8, 1).quality(&g);
        assert!(
            q.edge_cut * 4 < rnd.edge_cut,
            "ml cut {} vs random cut {}",
            q.edge_cut,
            rnd.edge_cut
        );
    }

    #[test]
    fn circuit_graph_cut_lands_in_low_regime() {
        let g = circuit_like(4_000, 2);
        let p = multilevel_partition(&g, 16, 3);
        let q = p.quality(&g);
        assert!(q.cut_fraction < 0.15, "cut fraction {}", q.cut_fraction);
        assert!(q.imbalance < 1.2, "imbalance {}", q.imbalance);
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = grid2d(15, 15);
        let p = multilevel_partition(&g, 5, 9);
        assert_eq!(p.num_parts(), 5);
        let sizes = p.part_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "empty part: {sizes:?}");
        let q = p.quality(&g);
        assert!(q.imbalance <= 1.25, "imbalance {}", q.imbalance);
    }

    #[test]
    fn star_graph_does_not_stall() {
        let g = star(500);
        let p = multilevel_partition(&g, 4, 5);
        assert_eq!(p.num_vertices(), 500);
        assert!(p.quality(&g).imbalance < 1.5);
    }

    #[test]
    fn single_part_is_trivial() {
        let g = grid2d(5, 5);
        let p = multilevel_partition(&g, 1, 0);
        assert!(p.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_graph() {
        let g = cmg_graph::CsrGraph::empty(0);
        let p = multilevel_partition(&g, 4, 0);
        assert_eq!(p.num_vertices(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = circuit_like(1_000, 7);
        let a = multilevel_partition(&g, 8, 11);
        let b = multilevel_partition(&g, 8, 11);
        assert_eq!(a, b);
    }
}
