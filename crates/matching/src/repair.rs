//! Warm-start repair of the matching (cmg-serve's kernel).
//!
//! The ½-approximation matching is exactly the set of locally dominant
//! edges, and local dominance is a *local* certificate: every non-matched
//! edge must be dominated by a matched edge at one of its endpoints.
//! A graph mutation can therefore only invalidate matching decisions
//! reachable from the mutation through a chain of broken dominations —
//! Birn et al.'s local-max observation (arXiv:1302.4587). Repair is:
//!
//! 1. **Invalidate** ([`MatchFrontier::invalidate`]): starting from the
//!    mutated edges, unmatch every pair whose dominance certificate no
//!    longer holds and cascade — a freed vertex's edges may now dominate
//!    its neighbors' matched edges, freeing those too — until a
//!    fixpoint. Previously unmatchable vertices adjacent to the freed
//!    region are reactivated (they may be matchable now).
//! 2. **Finish** the frontier with [`MatchFrontier::repair`]: a suitor
//!    pass on the subgraph the frontier induces. A frontier built
//!    [`with_limit`](MatchFrontier::with_limit) stops before any kernel
//!    work when the batch's own endpoints number that many, and otherwise
//!    stops cascading once the list is that dirty (it only grows, so that
//!    decides exactly); the caller runs [`MatchFrontier::cold`] instead:
//!    the same pass with the whole graph as its frontier
//!    ([`crate::seq::suitor`] is it too).
//!
//! [`MatchFrontier`] is the one copy of the cascade and of the suitor
//! loop. It works **in place** on the caller's mate slice and keeps
//! the frontier as a list, so a batch costs O(frontier · degree) and,
//! once its scratch has grown, allocates nothing — no term scales with
//! the graph. The functional [`invalidate`] / [`repair_frontier`] pair
//! (copy in, run the kernel, copy out: O(n) per call) serves the tests
//! and external replays.
//!
//! Edges rank by one total order — heavier first, then the smaller
//! endpoint id, then the larger (the paper's smallest-label tie-break) —
//! under which the locally dominant matching is unique, so repair
//! reproduces the from-scratch result bit for bit, ties included.

use cmg_graph::{Mutation, MutationBatch, NeighborView, VertexId, Weight, NO_VERTEX};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// The retained state between the two repair steps: produced by
/// [`invalidate`], consumed by [`repair_frontier`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchRetained {
    /// Post-invalidation global mate vector (`NO_VERTEX` = unmatched).
    /// Surviving pairs are retained verbatim by the repair.
    pub mate: Vec<VertexId>,
    /// Vertices the repair must re-decide. Unmatched vertices outside
    /// this set are known-unmatchable and stay that way.
    pub active: Vec<bool>,
}

/// An edge seen from one endpoint, ordered as the total edge order ranks
/// it (heavier first, then the smaller endpoint id, then the larger; at
/// a shared endpoint ties go to the smaller far end): its weight's
/// [`f64::total_cmp`] key, an integer so the hot loop compares no
/// floats, and the far end.
type Ranked = (i64, Reverse<VertexId>);

fn ranked(w: Weight, far: VertexId) -> Ranked {
    let bits = w.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(far))
}

/// Below every edge (the all-ones −NaN's key is the least): no proposal.
const NO_PROPOSAL: Ranked = (i64::MIN, Reverse(NO_VERTEX));

/// The matched edge at `y`, or `None` if `y` is unmatched (or its
/// matched edge vanished from the graph, which the caller handles by
/// unmatching first).
fn matched_edge(g: &impl NeighborView, mate: &[VertexId], y: VertexId) -> Option<Ranked> {
    let m = mate[y as usize];
    if m == NO_VERTEX {
        return None;
    }
    g.edge_weight(y, m).map(|w| ranked(w, m))
}

/// The in-place repair kernel and its reusable scratch: the active
/// frontier of the last [`MatchFrontier::invalidate`] as a list plus a
/// membership mark per vertex, the cascade's queue and neighborhood
/// buffer, and the finisher's proposals. A resident caller keeps one of
/// these next to its mate vector for the lifetime of the graph.
#[derive(Clone, Debug, Default)]
pub struct MatchFrontier {
    /// Active vertices, each once, in discovery order.
    list: Vec<VertexId>,
    /// `mark[v]` ⇔ `v` is in `list`. Cleared by walking the list, never
    /// by sweeping all n entries.
    mark: Vec<bool>,
    /// Vertices whose edges must be re-examined for broken dominations:
    /// freed vertices and undominated-insert endpoints.
    queue: VecDeque<VertexId>,
    /// The neighborhood of the vertex the cascade is examining.
    hood: Vec<(VertexId, Weight)>,
    /// The finisher's best proposal to each vertex so far, far end =
    /// proposer. Sized once; each pass blanks what its frontier wrote.
    proposal: Vec<Ranked>,
    /// Count of batch endpoints, or list size, at which
    /// [`invalidate`](Self::invalidate) stops (`None`: never).
    limit: Option<usize>,
}

impl MatchFrontier {
    /// An empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        MatchFrontier {
            mark: vec![false; n],
            proposal: vec![NO_PROPOSAL; n],
            ..Default::default()
        }
    }

    /// An empty frontier over `n` vertices whose [`invalidate`](Self::invalidate)
    /// stops, and reports `true`, once the batch's distinct endpoints or
    /// the list it builds number `limit`.
    pub fn with_limit(n: usize, limit: usize) -> Self {
        MatchFrontier {
            limit: Some(limit),
            ..MatchFrontier::new(n)
        }
    }

    /// Whether the list has reached the limit.
    fn is_over(&self) -> bool {
        self.limit.is_some_and(|limit| self.list.len() >= limit)
    }

    /// The vertices the last [`invalidate`](Self::invalidate) activated
    /// (the matching half of the serve dirtiness metric is its length).
    pub fn vertices(&self) -> &[VertexId] {
        &self.list
    }

    /// Empties the frontier.
    fn unlist(&mut self) {
        for v in self.list.drain(..) {
            self.mark[v as usize] = false;
        }
    }

    /// Adds `v` to the frontier; `false` if it was already there.
    fn activate(&mut self, v: VertexId) -> bool {
        let fresh = !std::mem::replace(&mut self.mark[v as usize], true);
        if fresh {
            self.list.push(v);
        }
        fresh
    }

    /// Frees `x` and its mate (no-op if `x` is unmatched): both join the
    /// frontier and the cascade queue.
    fn unmatch(&mut self, mate: &mut [VertexId], x: VertexId) {
        let y = mate[x as usize];
        if y == NO_VERTEX {
            return;
        }
        mate[x as usize] = NO_VERTEX;
        mate[y as usize] = NO_VERTEX;
        for v in [x, y] {
            self.activate(v);
            self.queue.push_back(v);
        }
    }

    /// Computes the invalidation set of `batch` against the *new* graph
    /// `g_new` (mutations already applied), unmatching broken pairs in
    /// `mate` directly and replacing the previous frontier with the
    /// vertices that must re-decide.
    ///
    /// `g_new` is any [`NeighborView`] — a packed [`cmg_graph::CsrGraph`]
    /// or the serving layer's resident [`cmg_graph::MutableGraph`], so
    /// no CSR is repacked just to ask adjacency questions.
    ///
    /// Conservative by construction — a pair survives only if no edge
    /// of the new graph can dominate it through the freed region — so
    /// finishing the frontier yields a matching that passes the
    /// ½-approximation certificate on `g_new`.
    ///
    /// Returns whether the list reached the limit, and stops there with
    /// the queue and row buffer empty. With a limit, the batch's
    /// distinct endpoints are listed first, in O(batch): if they alone
    /// reach it, nothing the cascade would compute is used, so it
    /// returns at once with `mate` untouched and the endpoints listed.
    /// Otherwise they are unlisted and the list is checked before each
    /// seed op and cascade step; a stop there leaves `mate` part-way
    /// invalidated.
    pub fn invalidate(
        &mut self,
        g_new: &impl NeighborView,
        mate: &mut [VertexId],
        batch: &MutationBatch,
    ) -> bool {
        debug_assert_eq!(g_new.num_vertices(), mate.len());
        debug_assert_eq!(self.mark.len(), mate.len());
        self.unlist();

        if self.limit.is_some() {
            for op in &batch.ops {
                if self.is_over() {
                    break;
                }
                let (u, v) = op.endpoints();
                self.activate(u);
                self.activate(v);
            }
            if self.is_over() {
                self.hood.clear();
                return true;
            }
            self.unlist();
        }

        // Seed from the mutations themselves.
        for op in &batch.ops {
            if self.is_over() {
                break;
            }
            match *op {
                Mutation::Delete { u, v } => {
                    if mate[u as usize] == v {
                        self.unmatch(mate, u);
                    }
                }
                Mutation::Insert { u, v, w } | Mutation::Reweight { u, v, w } => {
                    if mate[u as usize] == v {
                        // A matched edge's weight changed: re-derive the
                        // pair under the new weight (it usually re-matches).
                        self.unmatch(mate, u);
                    } else {
                        let dominated = matched_edge(g_new, mate, u)
                            .is_some_and(|e| e > ranked(w, v))
                            || matched_edge(g_new, mate, v).is_some_and(|e| e > ranked(w, u));
                        if !dominated && g_new.has_edge(u, v) {
                            // The new edge dominates both endpoints: both
                            // incident pairs (if any) are invalid, and both
                            // endpoints must re-decide.
                            self.unmatch(mate, u);
                            self.unmatch(mate, v);
                            for x in [u, v] {
                                if self.activate(x) {
                                    self.queue.push_back(x);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Cascade: a freed vertex's edges may dominate neighboring pairs
        // (they were dominated by the freed vertex's own matched edge
        // before), and its unmatchable neighbors become matchable again.
        while !self.is_over() {
            let Some(x) = self.queue.pop_front() else {
                return false;
            };
            // Read the row out first: independent loads, then the
            // dependent lookups (≈ 10 % faster than interleaving them
            // on frontiers of 10⁴ vertices).
            let mut hood = std::mem::take(&mut self.hood);
            hood.clear();
            g_new.for_each_neighbor(x, |y, w| hood.push((y, w)));
            for &(y, w) in &hood {
                match matched_edge(g_new, mate, y) {
                    Some(e) if ranked(w, x) > e => self.unmatch(mate, y),
                    Some(_) => {}
                    None => {
                        // Unmatched neighbor of the freed region: it may
                        // now match (with x or deeper in the frontier).
                        // No cascade push needed — an old unmatched vertex
                        // dominates nothing (its edges were all dominated
                        // from the other side, and still are unless that
                        // side was freed, which queues its own pass).
                        self.activate(y);
                    }
                }
            }
            self.hood = hood;
        }
        self.queue.clear();
        self.hood.clear();
        true
    }

    /// Finishes a repair **sequentially**: the suitor pass on the
    /// subgraph the frontier induces, written into `mate`, in
    /// O(frontier · degree).
    ///
    /// Equivalence argument: after [`invalidate`](Self::invalidate),
    /// every vertex off the frontier is frozen (matched with its
    /// retained mate, or known-unmatchable), so only frontier vertices
    /// can pair, and the locally dominant matching of the
    /// frontier-induced subgraph under the total edge order is unique —
    /// the one a cold run finds there.
    pub fn repair(&mut self, g: &impl NeighborView, mate: &mut [VertexId]) {
        // Active ⟹ unmatched, an `invalidate` invariant.
        debug_assert!(self.list.iter().all(|&v| mate[v as usize] == NO_VERTEX));
        let (list, mark) = (&self.list, &self.mark);
        suitor_pass(g, mate, &mut self.proposal, list.iter().copied(), |v| {
            mark[v as usize]
        });
    }

    /// Decides every vertex from scratch, overwriting all of `mate` in
    /// O(n + m): the finisher with the whole graph as its frontier. The
    /// list of the last [`invalidate`](Self::invalidate) stays as it was.
    pub fn cold(&mut self, g: &impl NeighborView, mate: &mut [VertexId]) {
        let n = g.num_vertices() as VertexId;
        suitor_pass(g, mate, &mut self.proposal, 0..n, |_| true);
    }
}

/// The one suitor loop (Manne–Halappanavar) under the total edge order:
/// each vertex of `frontier` proposes to its best neighbor on the
/// frontier (`on`) whose standing proposal it outranks, and a displaced
/// proposer proposes again. Mutual proposals are then the locally
/// dominant matching of the frontier-induced subgraph, written into
/// `mate` for every frontier vertex. Touches the scratch of frontier
/// vertices only, so a small frontier costs a few rows whatever the graph.
fn suitor_pass(
    g: &impl NeighborView,
    mate: &mut [VertexId],
    proposal: &mut [Ranked],
    frontier: impl Iterator<Item = VertexId> + Clone,
    on: impl Fn(VertexId) -> bool,
) {
    for mut x in frontier.clone() {
        while x != NO_VERTEX {
            let mut best = NO_PROPOSAL;
            g.for_each_neighbor(x, |u, w| {
                let edge = ranked(w, u);
                if edge > best && on(u) && (edge.0, Reverse(x)) > proposal[u as usize] {
                    best = edge;
                }
            });
            let (key, Reverse(u)) = best;
            if u == NO_VERTEX {
                break;
            }
            // The displaced proposer, if any, proposes again.
            (_, Reverse(x)) = std::mem::replace(&mut proposal[u as usize], (key, Reverse(x)));
        }
    }
    for v in frontier.clone() {
        let (_, Reverse(s)) = proposal[v as usize];
        let mutual = s != NO_VERTEX && proposal[s as usize].1 == Reverse(v);
        mate[v as usize] = if mutual { s } else { NO_VERTEX };
    }
    for v in frontier {
        proposal[v as usize] = NO_PROPOSAL;
    }
}

/// Functional form of [`MatchFrontier::invalidate`]: copies `old_mate`,
/// runs the kernel on the copy, and returns the retained state (surviving
/// pairs plus the active frontier) [`repair_frontier`] finishes.
pub fn invalidate(
    g_new: &impl NeighborView,
    old_mate: &[VertexId],
    batch: &MutationBatch,
) -> MatchRetained {
    let mut mate = old_mate.to_vec();
    let mut frontier = MatchFrontier::new(mate.len());
    frontier.invalidate(g_new, &mut mate, batch);
    MatchRetained {
        mate,
        active: frontier.mark,
    }
}

/// Functional form of [`MatchFrontier::repair`] over a retained state:
/// returns the completed global mate vector.
pub fn repair_frontier(g: &impl NeighborView, retained: &MatchRetained) -> Vec<VertexId> {
    let mut mate = retained.mate.clone();
    let mut frontier = MatchFrontier {
        list: (0..)
            .zip(&retained.active)
            .filter_map(|(v, &active)| active.then_some(v))
            .collect(),
        mark: retained.active.clone(),
        ..MatchFrontier::new(mate.len())
    };
    frontier.repair(g, &mut mate);
    mate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use crate::Matching;
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::MutableGraph;

    /// Deterministic mutation stream: repair after every batch must
    /// reproduce the sequential greedy matching on the current graph
    /// exactly (weights are distinct with probability 1).
    #[test]
    fn repair_equals_from_scratch_across_mutation_stream() {
        for seed in 0..4u64 {
            let g0 = assign_weights(
                &erdos_renyi(60, 150, seed),
                WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
                seed,
            );
            let mut mg = MutableGraph::from_csr(&g0);
            let mut mate: Vec<VertexId> = seq::local_dominant(&g0).mates().to_vec();
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for step in 0..12 {
                let mut batch = MutationBatch::new();
                for _ in 0..3 {
                    let u = (rng() % 60) as VertexId;
                    let v = (rng() % 60) as VertexId;
                    if u == v {
                        continue;
                    }
                    match rng() % 3 {
                        0 => batch.insert(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                        1 => batch.delete(u, v),
                        _ => batch.reweight(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                    };
                }
                mg.apply(&batch).unwrap();
                let g = mg.rebuild();
                let retained = invalidate(&g, &mate, &batch);
                let m = Matching::from_mates(repair_frontier(&g, &retained));
                m.validate(&g).unwrap();
                let expected = seq::local_dominant(&g);
                assert_eq!(
                    m, expected,
                    "seed {seed} step {step}: repaired matching != from-scratch"
                );
                mate = m.mates().to_vec();
            }
        }
    }

    /// A mutation far from most of the graph must leave the rest of the
    /// matching untouched and re-decide only a local frontier.
    #[test]
    fn invalidation_is_local() {
        let g0 = assign_weights(
            &grid2d(20, 20),
            WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
            9,
        );
        let mate: Vec<VertexId> = seq::local_dominant(&g0).mates().to_vec();
        let mut mg = MutableGraph::from_csr(&g0);
        let mut batch = MutationBatch::new();
        batch.delete(0, 1);
        mg.apply(&batch).unwrap();
        let g = mg.rebuild();
        let retained = invalidate(&g, &mate, &batch);
        assert!(
            retained.active.iter().filter(|&&a| a).count() <= 32,
            "deleting one grid edge activated {} of 400 vertices",
            retained.active.iter().filter(|&&a| a).count()
        );
        let survivors = retained.mate.iter().filter(|&&m| m != NO_VERTEX).count();
        assert!(
            survivors > 300,
            "only {survivors} matched vertices retained"
        );
    }

    /// The sequential frontier finisher, run against the *mutable*
    /// graph directly (no CSR rebuild anywhere on the path), matches
    /// the from-scratch greedy matching across a mutation stream —
    /// i.e. it computes the same fixpoint as the rebuilt-CSR stream above.
    #[test]
    fn sequential_frontier_repair_equals_from_scratch() {
        for seed in 0..4u64 {
            let g0 = assign_weights(
                &erdos_renyi(60, 150, seed + 40),
                WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
                seed,
            );
            let mut mg = MutableGraph::from_csr(&g0);
            let mut mate: Vec<VertexId> = seq::local_dominant(&g0).mates().to_vec();
            let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(11);
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for step in 0..12 {
                let mut batch = MutationBatch::new();
                for _ in 0..3 {
                    let u = (rng() % 60) as VertexId;
                    let v = (rng() % 60) as VertexId;
                    if u == v {
                        continue;
                    }
                    match rng() % 3 {
                        0 => batch.insert(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                        1 => batch.delete(u, v),
                        _ => batch.reweight(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                    };
                }
                mg.apply(&batch).unwrap();
                let retained = invalidate(&mg, &mate, &batch);
                mate = repair_frontier(&mg, &retained);
                let g = mg.rebuild();
                let m = Matching::from_mates(mate.clone());
                m.validate(&g).unwrap();
                assert_eq!(
                    m,
                    seq::local_dominant(&g),
                    "seed {seed} step {step}: sequential repair != from-scratch"
                );
            }
        }
    }

    /// A limit changes only where `invalidate` stops. On random ER and
    /// grid graphs and batches, at every limit 0..=n + 1: it reports
    /// `true` iff the batch's distinct endpoints or the full frontier
    /// reach the limit; the endpoints' early return leaves `mate` as it
    /// was; one that stays under leaves the list, marks and mates of the
    /// unlimited run; and one that stops early leaves no queue or row
    /// behind, so the next batch, on the matching a recompute installs,
    /// reads as it does on a fresh frontier.
    #[test]
    fn the_limit_decides_exactly() {
        let mut s = 0x0005_DEEC_E66D_u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let (mut largest, mut endpoint_stops, mut cascade_stops) = (0, 0, 0);
        for seed in 0..6u64 {
            let g0 = if seed % 2 == 0 {
                erdos_renyi(60, 150, seed)
            } else {
                grid2d(8, 8)
            };
            let g0 = assign_weights(&g0, WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, seed);
            let n = g0.num_vertices();
            let mut random_batch = |ops: u64| {
                let mut batch = MutationBatch::new();
                for _ in 0..ops {
                    let u = (rng() % n as u64) as VertexId;
                    let v = (rng() % n as u64) as VertexId;
                    if u == v {
                        continue;
                    }
                    match rng() % 3 {
                        0 => batch.insert(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                        1 => batch.delete(u, v),
                        _ => batch.reweight(u, v, (rng() % 10_000) as f64 / 10_000.0 + 0.1),
                    };
                }
                batch
            };
            let (first, next) = (random_batch(4 + seed * 4), random_batch(3));
            let mut touched: Vec<VertexId> = first
                .ops
                .iter()
                .flat_map(|op| <[VertexId; 2]>::from(op.endpoints()))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let touched = touched.len();
            let mate0 = seq::local_dominant(&g0).mates().to_vec();
            let mut g1 = MutableGraph::from_csr(&g0);
            g1.apply(&first).unwrap();
            let recomputed = seq::local_dominant(&g1.rebuild()).mates().to_vec();
            let mut g2 = g1.clone();
            g2.apply(&next).unwrap();

            let mut full = MatchFrontier::new(n);
            let mut full_mate = mate0.clone();
            assert!(!full.invalidate(&g1, &mut full_mate, &first));
            largest = largest.max(full.list.len());
            for limit in 0..=n + 1 {
                let mut frontier = MatchFrontier::with_limit(n, limit);
                let mut mate = mate0.clone();
                let over = frontier.invalidate(&g1, &mut mate, &first);
                assert_eq!(
                    over,
                    touched >= limit || full.list.len() >= limit,
                    "seed {seed} limit {limit}"
                );
                if over {
                    assert!(frontier.list.len() >= limit);
                    assert!(frontier.queue.is_empty() && frontier.hood.is_empty());
                    if touched >= limit {
                        assert_eq!(mate, mate0, "seed {seed} limit {limit}");
                        endpoint_stops += usize::from(full_mate != mate0);
                    } else {
                        cascade_stops += 1;
                    }
                } else {
                    assert_eq!(frontier.list, full.list, "seed {seed} limit {limit}");
                    assert_eq!(frontier.mark, full.mark);
                    assert_eq!(mate, full_mate);
                }

                let mut twin = MatchFrontier::with_limit(n, limit);
                let (mut mate, mut twin_mate) = (recomputed.clone(), recomputed.clone());
                assert_eq!(
                    frontier.invalidate(&g2, &mut mate, &next),
                    twin.invalidate(&g2, &mut twin_mate, &next)
                );
                assert_eq!(frontier.list, twin.list, "seed {seed} limit {limit}");
                assert_eq!(frontier.mark, twin.mark);
                assert_eq!(mate, twin_mate);
            }
        }
        assert!(largest >= 20, "no batch freed enough to stop part-way");
        assert!(
            endpoint_stops > 0 && cascade_stops > 0,
            "the endpoints returned early on a batch that frees a pair \
             {endpoint_stops} times, a cascade crossed a limit {cascade_stops} times"
        );
    }

    /// An empty batch invalidates nothing, and repairing the empty
    /// frontier hands back the retained matching unchanged.
    #[test]
    fn noop_batch_retains_everything() {
        let g = assign_weights(&grid2d(8, 8), WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, 2);
        let mate: Vec<VertexId> = seq::local_dominant(&g).mates().to_vec();
        let retained = invalidate(&g, &mate, &MutationBatch::new());
        assert_eq!(retained.active.iter().filter(|&&a| a).count(), 0);
        assert_eq!(retained.mate, mate);
        assert_eq!(repair_frontier(&g, &retained), mate);
    }
}
