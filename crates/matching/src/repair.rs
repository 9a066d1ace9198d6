//! Warm-start repair for the distributed matching (cmg-serve's kernel).
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
//! 2. **Finish** the frontier, one of two ways that reach the same
//!    fixpoint: in-process with [`MatchFrontier::repair`] (what
//!    cmg-serve does), or distributed — reseed every rank through
//!    [`DistMatching`]'s [`WarmStart`](cmg_runtime::WarmStart) impl
//!    (retained pairs pre-`Matched`, non-active unmatched vertices
//!    pre-`Failed`, only the frontier `Free`) and rerun the ordinary
//!    engine, where only the frontier does protocol work.
//!
//! [`MatchFrontier`] is the one copy of the cascade and of the greedy
//! finisher. It works **in place** on the caller's mate slice and keeps
//! the frontier as a list, so a batch costs O(frontier · degree) and,
//! once its scratch has grown, allocates nothing — no term scales with
//! the graph. The functional [`invalidate`] / [`repair_frontier`] pair
//! (copy in, run the kernel, copy out: O(n) per call) serves the
//! `WarmStart` path and external replays.
//!
//! With distinct weights the locally dominant matching is the unique
//! greedy matching, so repair reproduces the from-scratch result
//! exactly; with ties it produces *a* valid locally-dominant matching
//! (the documented serve-layer relaxation, DESIGN.md §13).

use crate::dist::DistMatching;
use cmg_graph::{Mutation, MutationBatch, NeighborView, VertexId, Weight, NO_VERTEX};
use std::collections::VecDeque;

/// The globally consistent retained state a warm matching run seeds
/// from: produced by [`invalidate`], consumed by every rank's
/// [`WarmStart::reseed`](cmg_runtime::WarmStart::reseed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchRetained {
    /// Post-invalidation global mate vector (`NO_VERTEX` = unmatched).
    /// Surviving pairs are retained verbatim by the warm run.
    pub mate: Vec<VertexId>,
    /// Vertices the warm run must re-decide. Unmatched vertices outside
    /// this set are known-unmatchable and stay that way.
    pub active: Vec<bool>,
}

impl MatchRetained {
    /// Number of vertices the warm run re-decides.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }
}

/// Weight of the matched edge at `y`, or `None` if `y` is unmatched
/// (or its matched edge vanished from the graph, which the caller
/// handles by unmatching first).
fn matched_weight(
    g: &(impl NeighborView + ?Sized),
    mate: &[VertexId],
    y: VertexId,
) -> Option<Weight> {
    let m = mate[y as usize];
    if m == NO_VERTEX {
        return None;
    }
    g.edge_weight(y, m)
}

/// The in-place repair kernel and its reusable scratch: the active
/// frontier of the last [`MatchFrontier::invalidate`] as a list plus a
/// membership mark per vertex, the cascade's queue and neighborhood
/// buffer, and the finisher's edge buffer. A resident caller keeps one
/// of these next to its mate vector for the lifetime of the graph.
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
    /// Frontier-induced edges, sorted by the finisher.
    edges: Vec<(Weight, VertexId, VertexId)>,
}

impl MatchFrontier {
    /// An empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        MatchFrontier {
            mark: vec![false; n],
            ..Default::default()
        }
    }

    /// The vertices the last [`invalidate`](Self::invalidate) activated
    /// (the matching half of the serve dirtiness metric is its length).
    pub fn vertices(&self) -> &[VertexId] {
        &self.list
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
    pub fn invalidate(
        &mut self,
        g_new: &(impl NeighborView + ?Sized),
        mate: &mut [VertexId],
        batch: &MutationBatch,
    ) {
        debug_assert_eq!(g_new.num_vertices(), mate.len());
        debug_assert_eq!(self.mark.len(), mate.len());
        for v in self.list.drain(..) {
            self.mark[v as usize] = false;
        }

        // Seed from the mutations themselves.
        for op in &batch.ops {
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
                        let dominated = matched_weight(g_new, mate, u).is_some_and(|mw| mw >= w)
                            || matched_weight(g_new, mate, v).is_some_and(|mw| mw >= w);
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
        while let Some(x) = self.queue.pop_front() {
            // Read the row out first: independent loads, then the
            // dependent lookups (≈ 10 % faster than interleaving them
            // on frontiers of 10⁴ vertices).
            let mut hood = std::mem::take(&mut self.hood);
            hood.clear();
            g_new.for_each_neighbor(x, &mut |y, w| hood.push((y, w)));
            for &(y, w) in &hood {
                match matched_weight(g_new, mate, y) {
                    Some(mw) if w > mw => self.unmatch(mate, y),
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
    }

    /// Finishes a repair **sequentially**: greedy matching on the
    /// subgraph induced by the frontier, written into `mate`, in
    /// O(frontier · degree + F log F).
    ///
    /// This is the serving layer's hot path. A resident service repairing
    /// a handful of vertices per batch cannot afford to stand up the
    /// distributed engine (partition build + program construction are
    /// O(V + E)); it runs this in-process instead.
    ///
    /// Equivalence argument: after [`invalidate`](Self::invalidate),
    /// frontier vertices are exactly the warm run's `Free` set and every
    /// other vertex is frozen (`Matched` with its retained mate, or
    /// `Failed`). The warm engine's greedy protocol only forms pairs
    /// between `Free` vertices, and greedy matching restricted to the
    /// frontier-induced subgraph is its unique fixpoint when weights are
    /// distinct. Ties fall to the deterministic `(weight, u, v)` order
    /// here — the same documented relaxation the serve layer already
    /// carries for coloring palettes.
    pub fn repair(&mut self, g: &(impl NeighborView + ?Sized), mate: &mut [VertexId]) {
        let MatchFrontier {
            list, mark, edges, ..
        } = self;
        // Frontier edges: both endpoints active (active ⟹ unmatched, an
        // `invalidate` invariant — frozen vertices never re-match).
        edges.clear();
        for &u in list.iter() {
            debug_assert_eq!(
                mate[u as usize], NO_VERTEX,
                "active vertex {u} still matched"
            );
            g.for_each_neighbor(u, &mut |v, w| {
                if u < v && mark[v as usize] {
                    edges.push((w, u, v));
                }
            });
        }
        edges.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        });
        for &(_, u, v) in edges.iter() {
            if mate[u as usize] == NO_VERTEX && mate[v as usize] == NO_VERTEX {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
        }
    }
}

/// Functional form of [`MatchFrontier::invalidate`]: copies `old_mate`,
/// runs the kernel on the copy, and returns the retained state (surviving
/// pairs plus the active frontier) a warm run seeds from.
pub fn invalidate(
    g_new: &(impl NeighborView + ?Sized),
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
pub fn repair_frontier(
    g: &(impl NeighborView + ?Sized),
    retained: &MatchRetained,
) -> Vec<VertexId> {
    let mut mate = retained.mate.clone();
    let mut frontier = MatchFrontier {
        list: (0..)
            .zip(&retained.active)
            .filter_map(|(v, &active)| active.then_some(v))
            .collect(),
        mark: retained.active.clone(),
        ..Default::default()
    };
    frontier.repair(g, &mut mate);
    mate
}

impl cmg_runtime::WarmStart for DistMatching {
    type Retained = MatchRetained;

    /// Reseeds one rank from the retained global view: retained pairs
    /// come up `Matched` (owned *and* ghost, so cross-rank state is
    /// consistent without catch-up messages), inactive unmatched
    /// vertices come up `Failed`, and only the active frontier is
    /// `Free`. The ordinary `on_start`/`on_round` protocol then runs
    /// greedy matching restricted to the frontier.
    fn reseed(meta: <Self as cmg_runtime::RankProgram>::Meta, retained: &MatchRetained) -> Self {
        DistMatching::reseed_from(meta, &retained.mate, &retained.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::assemble_matching;
    use crate::seq;
    use crate::Matching;
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::{CsrGraph, MutableGraph};
    use cmg_partition::simple::hash_partition;
    use cmg_partition::DistGraph;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine, WarmStart};

    fn warm_run(
        g: &CsrGraph,
        parts: u32,
        seed_state: &MatchRetained,
        pseed: u64,
    ) -> (Matching, u64) {
        let p = hash_partition(g.num_vertices(), parts, pseed);
        let dgs = DistGraph::build_all(g, &p);
        let programs: Vec<DistMatching> = dgs
            .into_iter()
            .map(|dg| DistMatching::reseed(dg, seed_state))
            .collect();
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(!result.hit_round_cap, "warm matching did not quiesce");
        for prog in &result.programs {
            assert!(prog.is_resolved(), "warm run left a vertex undecided");
        }
        (
            assemble_matching(&result.programs, g.num_vertices()),
            result.stats.rounds,
        )
    }

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
                let (m, _) = warm_run(&g, 3, &retained, seed);
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
            retained.active_count() <= 32,
            "deleting one grid edge activated {} of 400 vertices",
            retained.active_count()
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
    /// i.e. it computes the same fixpoint as the distributed warm run.
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

    /// An empty batch invalidates nothing and the warm run terminates
    /// immediately with the retained matching.
    #[test]
    fn noop_batch_retains_everything() {
        let g = assign_weights(&grid2d(8, 8), WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, 2);
        let mate: Vec<VertexId> = seq::local_dominant(&g).mates().to_vec();
        let retained = invalidate(&g, &mate, &MutationBatch::new());
        assert_eq!(retained.active_count(), 0);
        let (m, rounds) = warm_run(&g, 4, &retained, 5);
        assert_eq!(m.mates(), &mate[..]);
        assert!(rounds <= 1, "no-op repair ran {rounds} rounds");
    }
}
