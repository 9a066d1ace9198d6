//! Warm-start repair of the coloring (cmg-serve's kernel).
//!
//! A distance-1 coloring is invalidated only where a mutation creates a
//! *monochrome edge*: an edge-creating op ([`Mutation::Insert`], or
//! [`Mutation::Reweight`] of an absent edge, which inserts it) whose
//! endpoints currently share a color. Deletions never invalidate —
//! removing an edge only relaxes constraints — and reweighting an
//! *existing* edge is a no-op because weights play no role in coloring
//! (its endpoints are already bichromatic, so the monochrome check
//! filters it out). The dirty set is therefore exactly one endpoint per
//! now-monochrome inserted edge; we uncolor the endpoint that loses the
//! pre-assigned random tie-break `r(v)` — the same rule the framework's
//! conflict detection applies (§4, Algorithm 4.1) — so repair *is* one
//! more round of the paper's own iterative recoloring (Sarıyüce et al.,
//! arXiv:1407.6745), seeded externally.
//!
//! [`ColorFrontier`] is the one copy of that invalidation and of the
//! first-fit recolor loop, and [`ColorFrontier::cold`] runs that loop
//! over every vertex in natural order: greedy first-fit from scratch
//! (§1 of the paper), cmg-serve's recompute. It works **in place** on
//! the caller's color slice and keeps the dirty set as a list, so a
//! batch costs O(batch + dirty · degree) and, once its scratch has
//! grown, allocates nothing. cmg-serve keeps one resident; the functional
//! [`invalidate_colors`] / [`repair_frontier_colors`] pair (copy in, run
//! the kernel, copy out: O(n) per call) serves the tests and external
//! replays.
//!
//! Clean vertices keep their colors verbatim and dirty vertices are
//! recolored first-fit, so the result is a proper coloring of the new
//! graph, but the *palette size* may differ from a cold pass — first-fit
//! over a mostly-fixed coloring has less freedom than first-fit from
//! scratch. That is the documented serve-layer relaxation (DESIGN.md
//! §13): the oracle is propriety plus stability of clean colors, not
//! bit-identity with a cold run.

use crate::coloring::UNCOLORED;
use crate::seq::FirstFit;
use cmg_graph::util::vertex_priority;
use cmg_graph::{Mutation, MutationBatch, NeighborView, VertexId};

/// The retained state between the two repair steps: produced by
/// [`invalidate_colors`], consumed by [`repair_frontier_colors`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorRetained {
    /// Post-invalidation global color vector; [`UNCOLORED`] marks the
    /// dirty vertices the repair re-decides.
    pub color: Vec<u32>,
}

/// The in-place repair kernel and its reusable scratch: the dirty
/// vertices of the last [`ColorFrontier::invalidate`] as a list (their
/// [`UNCOLORED`] entry in the color slice is the membership mark) and
/// the recolor loop's per-colour stamps.
#[derive(Clone, Debug, Default)]
pub struct ColorFrontier {
    dirty: Vec<VertexId>,
    first_fit: FirstFit,
}

impl ColorFrontier {
    /// The vertices the last [`invalidate`](Self::invalidate) uncolored,
    /// each once (the coloring half of the serve dirtiness metric is
    /// its length).
    pub fn vertices(&self) -> &[VertexId] {
        &self.dirty
    }

    /// Uncolors, directly in `color`, one endpoint per edge `batch` made
    /// monochrome in the *new* graph `g_new` (mutations already
    /// applied), and replaces the previous dirty list with them. `seed`
    /// must be the [`ColoringConfig::seed`](crate::ColoringConfig) in
    /// use, so the uncolored endpoint is the one the framework's own
    /// conflict detection would pick.
    pub fn invalidate(
        &mut self,
        g_new: &impl NeighborView,
        color: &mut [u32],
        batch: &MutationBatch,
        seed: u64,
    ) {
        debug_assert_eq!(g_new.num_vertices(), color.len());
        self.dirty.clear();
        for op in &batch.ops {
            // Deletes are coloring no-ops; see module docs. Reweights are
            // treated as inserts because reweighting an absent edge
            // *inserts* it (`MutableGraph`'s documented degenerate case) —
            // for an edge that already existed the endpoints are already
            // bichromatic and the monochrome check below never fires.
            if let Mutation::Insert { u, v, .. } | Mutation::Reweight { u, v, .. } = *op {
                if !g_new.has_edge(u, v) {
                    continue; // superseded by a later delete in the batch
                }
                let (cu, cv) = (color[u as usize], color[v as usize]);
                if cu != UNCOLORED && cu == cv {
                    // Monochrome insert: re-color the endpoint with the
                    // smaller (r(v), id) — the conflict-detection loser.
                    let loser = if (vertex_priority(u as u64, seed), u)
                        < (vertex_priority(v as u64, seed), v)
                    {
                        u
                    } else {
                        v
                    };
                    color[loser as usize] = UNCOLORED;
                    self.dirty.push(loser);
                }
            }
        }
    }

    /// Finishes a coloring repair **sequentially**: dirty vertices are
    /// recolored greedily in descending `(r(v), id)` priority, each
    /// taking the smallest color absent from its neighborhood —
    /// O(dirty · degree), written into `color`.
    ///
    /// The serving layer's hot path. Recoloring order matches the
    /// priority the distributed phases use, and clean vertices are never
    /// touched, so the result is proper by construction and clean colors
    /// are stable. Palette identity with a [`cold`](Self::cold) pass is
    /// *not* promised (the documented DESIGN.md §13 relaxation:
    /// first-fit over a mostly-fixed coloring in priority order is not
    /// first-fit over all vertices in natural order).
    pub fn repair(&mut self, g: &impl NeighborView, color: &mut [u32], seed: u64) {
        let ColorFrontier { dirty, first_fit } = self;
        dirty.sort_unstable_by_key(|&v| std::cmp::Reverse((vertex_priority(v as u64, seed), v)));
        for &v in dirty.iter() {
            g.for_each_neighbor(v, |u, _| first_fit.take(color[u as usize]));
            color[v as usize] = first_fit.pick();
        }
    }

    /// Colours every vertex from scratch, overwriting all of `color` in
    /// O(n + m): first-fit in natural vertex order, each vertex taking
    /// the smallest colour absent from its lower-numbered neighbours —
    /// bit for bit [`crate::seq::greedy`] with
    /// [`Ordering::Natural`](crate::seq::Ordering::Natural), on the same
    /// scratch as [`repair`](Self::repair). The list of the last
    /// [`invalidate`](Self::invalidate) stays as it was.
    pub fn cold(&mut self, g: &impl NeighborView, color: &mut [u32]) {
        debug_assert_eq!(g.num_vertices(), color.len());
        let first_fit = &mut self.first_fit;
        for v in 0..color.len() as VertexId {
            // Higher-numbered neighbours are still uncoloured in a
            // natural-order pass, so their stale entries are skipped.
            g.for_each_neighbor(v, |u, _| {
                if u < v {
                    first_fit.take(color[u as usize]);
                }
            });
            color[v as usize] = first_fit.pick();
        }
    }
}

/// Functional form of [`ColorFrontier::invalidate`]: copies `old_color`,
/// runs the kernel on the copy, and returns the retained state
/// [`repair_frontier_colors`] finishes.
pub fn invalidate_colors(
    g_new: &impl NeighborView,
    old_color: &[u32],
    batch: &MutationBatch,
    seed: u64,
) -> ColorRetained {
    let mut color = old_color.to_vec();
    ColorFrontier::default().invalidate(g_new, &mut color, batch, seed);
    ColorRetained { color }
}

/// Functional form of [`ColorFrontier::repair`] over a retained state:
/// returns the completed global color vector.
pub fn repair_frontier_colors(
    g: &impl NeighborView,
    retained: &ColorRetained,
    seed: u64,
) -> Vec<u32> {
    let mut color = retained.color.clone();
    let mut frontier = ColorFrontier {
        dirty: (0..)
            .zip(&color)
            .filter_map(|(v, &c)| (c == UNCOLORED).then_some(v))
            .collect(),
        first_fit: FirstFit::default(),
    };
    frontier.repair(g, &mut color, seed);
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::assemble_coloring;
    use crate::dist::{ColoringConfig, DistColoring};
    use crate::Coloring;
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::{CsrGraph, MutableGraph};
    use cmg_partition::simple::hash_partition;
    use cmg_partition::DistGraph;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    fn cold_colors(g: &CsrGraph, parts: u32, cfg: ColoringConfig) -> Vec<u32> {
        let p = hash_partition(g.num_vertices(), parts, 7);
        let programs: Vec<DistColoring> = DistGraph::build_all(g, &p)
            .into_iter()
            .map(|dg| DistColoring::new(dg, cfg))
            .collect();
        let ecfg = EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        };
        let result = SimEngine::new(programs, ecfg).run();
        assemble_coloring(&result.programs, g.num_vertices())
            .colors()
            .to_vec()
    }

    /// Random mutation streams: after every batch the repaired coloring
    /// must be proper on the new graph, and every clean (non-dirty)
    /// vertex must keep its retained color verbatim.
    #[test]
    fn repair_is_proper_and_stable_across_mutation_stream() {
        for seed in 0..4u64 {
            let g0 = erdos_renyi(80, 240, seed);
            let cfg = ColoringConfig {
                superstep_size: 16,
                ..Default::default()
            };
            let mut mg = MutableGraph::from_csr(&g0);
            let mut colors = cold_colors(&g0, 3, cfg);
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for step in 0..12 {
                let mut batch = MutationBatch::new();
                for _ in 0..4 {
                    let u = (rng() % 80) as VertexId;
                    let v = (rng() % 80) as VertexId;
                    if u == v {
                        continue;
                    }
                    if rng() % 3 == 0 {
                        batch.delete(u, v);
                    } else {
                        batch.insert(u, v, 1.0);
                    }
                }
                mg.apply(&batch).unwrap();
                let g = mg.rebuild();
                let retained = invalidate_colors(&g, &colors, &batch, cfg.seed);
                let c = Coloring::from_colors(repair_frontier_colors(&g, &retained, cfg.seed));
                c.validate(&g)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                for v in 0..g.num_vertices() as VertexId {
                    if retained.color[v as usize] != UNCOLORED {
                        assert_eq!(
                            c.color(v),
                            retained.color[v as usize],
                            "seed {seed} step {step}: clean vertex {v} was recolored"
                        );
                    }
                }
                colors = c.colors().to_vec();
            }
        }
    }

    /// The sequential frontier finisher, run against the *mutable*
    /// graph directly, yields a proper coloring with clean colors
    /// stable, across random mutation streams.
    #[test]
    fn sequential_frontier_recolor_is_proper_and_stable() {
        for seed in 0..4u64 {
            let g0 = erdos_renyi(80, 240, seed + 20);
            let cfg = ColoringConfig::default();
            let mut mg = MutableGraph::from_csr(&g0);
            let mut colors = cold_colors(&g0, 3, cfg);
            let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(3);
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for step in 0..12 {
                let mut batch = MutationBatch::new();
                for _ in 0..4 {
                    let u = (rng() % 80) as VertexId;
                    let v = (rng() % 80) as VertexId;
                    if u == v {
                        continue;
                    }
                    if rng() % 3 == 0 {
                        batch.delete(u, v);
                    } else {
                        batch.insert(u, v, 1.0);
                    }
                }
                mg.apply(&batch).unwrap();
                let retained = invalidate_colors(&mg, &colors, &batch, cfg.seed);
                let next = repair_frontier_colors(&mg, &retained, cfg.seed);
                for v in 0..next.len() as VertexId {
                    if retained.color[v as usize] != UNCOLORED {
                        assert_eq!(
                            next[v as usize], retained.color[v as usize],
                            "seed {seed} step {step}: clean vertex {v} was recolored"
                        );
                    }
                }
                Coloring::from_colors(next.clone())
                    .validate(&mg.rebuild())
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                colors = next;
            }
        }
    }

    /// Dirty sets are minimal: one endpoint per monochrome insert, zero
    /// for deletes, reweightings, and already-bichromatic inserts.
    #[test]
    fn dirty_set_is_one_endpoint_per_monochrome_insert() {
        let g0 = grid2d(10, 10);
        let cfg = ColoringConfig::default();
        let colors = cold_colors(&g0, 2, cfg);
        let mut mg = MutableGraph::from_csr(&g0);

        // Find a monochrome non-edge and a bichromatic non-edge.
        let mono = (0..100u32)
            .flat_map(|u| (0..100u32).map(move |v| (u, v)))
            .find(|&(u, v)| u < v && !g0.has_edge(u, v) && colors[u as usize] == colors[v as usize])
            .unwrap();
        let bi = (0..100u32)
            .flat_map(|u| (0..100u32).map(move |v| (u, v)))
            .find(|&(u, v)| u < v && !g0.has_edge(u, v) && colors[u as usize] != colors[v as usize])
            .unwrap();

        let mut batch = MutationBatch::new();
        batch
            .insert(mono.0, mono.1, 1.0)
            .insert(bi.0, bi.1, 1.0)
            .delete(0, 1)
            .reweight(2, 3, 9.0);
        mg.apply(&batch).unwrap();
        let g = mg.rebuild();
        let retained = invalidate_colors(&g, &colors, &batch, cfg.seed);
        assert_eq!(
            retained.color.iter().filter(|&&c| c == UNCOLORED).count(),
            1,
            "exactly the monochrome loser"
        );
        assert!(
            retained.color[mono.0 as usize] == UNCOLORED
                || retained.color[mono.1 as usize] == UNCOLORED
        );
        Coloring::from_colors(repair_frontier_colors(&g, &retained, cfg.seed))
            .validate(&g)
            .unwrap();
    }

    /// An empty batch dirties nothing, and repairing the empty dirty set
    /// hands back the retained coloring intact.
    #[test]
    fn noop_batch_retains_every_color() {
        let g = grid2d(8, 8);
        let cfg = ColoringConfig::default();
        let colors = cold_colors(&g, 3, cfg);
        let retained = invalidate_colors(&g, &colors, &MutationBatch::new(), cfg.seed);
        assert_eq!(
            retained.color.iter().filter(|&&c| c == UNCOLORED).count(),
            0
        );
        assert_eq!(repair_frontier_colors(&g, &retained, cfg.seed), colors);
    }

    /// A cold coloring, repaired after a hub's inserts dirty some of its
    /// new neighbors, stays proper and keeps every clean color.
    #[test]
    fn hub_inserts_repair_keeps_clean_colors() {
        let g0 = erdos_renyi(60, 200, 11);
        let cfg = ColoringConfig::default();
        let colors = cold_colors(&g0, 3, cfg);
        let mut mg = MutableGraph::from_csr(&g0);
        let mut batch = MutationBatch::new();
        for v in 1..6u32 {
            batch.insert(0, v, 1.0);
        }
        mg.apply(&batch).unwrap();
        let g = mg.rebuild();
        let retained = invalidate_colors(&g, &colors, &batch, cfg.seed);
        assert!(
            retained.color.contains(&UNCOLORED),
            "the hub inserts dirtied nothing"
        );
        let repaired = repair_frontier_colors(&g, &retained, cfg.seed);
        Coloring::from_colors(repaired.clone())
            .validate(&g)
            .unwrap();
        for v in 0..g.num_vertices() as VertexId {
            if retained.color[v as usize] != UNCOLORED {
                assert_eq!(repaired[v as usize], colors[v as usize], "clean vertex {v}");
            }
        }
    }
}
