//! Warm-start repair for the distributed coloring (cmg-serve's kernel).
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
//! first-fit recolor loop. It works **in place** on the caller's color
//! slice and keeps the dirty set as a list, so a batch costs
//! O(batch + dirty · degree) and, once its scratch has grown, allocates
//! nothing. cmg-serve keeps one resident; the functional
//! [`invalidate_colors`] / [`repair_frontier_colors`] pair (copy in, run
//! the kernel, copy out: O(n) per call) serves the distributed warm path
//! and external replays.
//!
//! The distributed finish reruns the ordinary engine over warm programs
//! ([`DistColoring::warm`] via the [`WarmStart`](cmg_runtime::WarmStart)
//! impl): clean vertices keep their colors verbatim; dirty vertices are
//! speculatively recolored and conflict-checked through the usual
//! phase protocol. Either way the result is a proper coloring of the new
//! graph, but the *palette size* may differ from a cold run — first-fit
//! over a mostly-fixed coloring has less freedom than first-fit from
//! scratch. That is the documented serve-layer relaxation (DESIGN.md
//! §13): the oracle is propriety plus stability of clean colors, not
//! bit-identity with a cold run.

use crate::coloring::UNCOLORED;
use crate::dist::DistColoring;
use cmg_graph::util::vertex_priority;
use cmg_graph::{Mutation, MutationBatch, NeighborView, VertexId};

/// The globally consistent retained state a warm coloring run seeds
/// from: produced by [`invalidate_colors`], consumed by every rank's
/// [`WarmStart::reseed`](cmg_runtime::WarmStart::reseed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorRetained {
    /// Post-invalidation global color vector; [`UNCOLORED`] marks the
    /// dirty vertices the warm run re-decides.
    pub color: Vec<u32>,
}

impl ColorRetained {
    /// `true` iff `v` must be re-colored.
    #[inline]
    pub fn is_dirty(&self, v: VertexId) -> bool {
        self.color[v as usize] == UNCOLORED
    }
}

/// The in-place repair kernel and its reusable scratch: the dirty
/// vertices of the last [`ColorFrontier::invalidate`] as a list (their
/// [`UNCOLORED`] entry in the color slice is the membership mark) and
/// the recolor loop's neighborhood buffer.
#[derive(Clone, Debug, Default)]
pub struct ColorFrontier {
    dirty: Vec<VertexId>,
    taken: Vec<u32>,
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
        g_new: &(impl NeighborView + ?Sized),
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
    /// are stable — the same contract as the engine warm run. Palette
    /// identity with the distributed run is *not* promised (the
    /// documented DESIGN.md §13 relaxation; first-fit order differs
    /// between one sequential scan and the engine's speculative rounds).
    pub fn repair(&mut self, g: &(impl NeighborView + ?Sized), color: &mut [u32], seed: u64) {
        let ColorFrontier { dirty, taken } = self;
        dirty.sort_unstable_by_key(|&v| std::cmp::Reverse((vertex_priority(v as u64, seed), v)));
        for &v in dirty.iter() {
            taken.clear();
            g.for_each_neighbor(v, &mut |u, _| {
                let c = color[u as usize];
                if c != UNCOLORED {
                    taken.push(c);
                }
            });
            taken.sort_unstable();
            let mut pick = 0u32;
            for &c in taken.iter() {
                if c == pick {
                    pick += 1;
                } else if c > pick {
                    break;
                }
            }
            color[v as usize] = pick;
        }
    }
}

/// Functional form of [`ColorFrontier::invalidate`]: copies `old_color`,
/// runs the kernel on the copy, and returns the retained state a warm
/// run seeds from.
pub fn invalidate_colors(
    g_new: &(impl NeighborView + ?Sized),
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
    g: &(impl NeighborView + ?Sized),
    retained: &ColorRetained,
    seed: u64,
) -> Vec<u32> {
    let mut color = retained.color.clone();
    let mut frontier = ColorFrontier {
        dirty: (0..)
            .zip(&color)
            .filter_map(|(v, &c)| (c == UNCOLORED).then_some(v))
            .collect(),
        taken: Vec::new(),
    };
    frontier.repair(g, &mut color, seed);
    color
}

impl cmg_runtime::WarmStart for DistColoring {
    type Retained = ColorRetained;

    /// Reseeds one rank from the retained global view: clean colors are
    /// kept (owned *and* ghost), dirty vertices form the first phase's
    /// work list, and the ordinary speculate/detect/allreduce protocol
    /// repairs the frontier.
    fn reseed(meta: <Self as cmg_runtime::RankProgram>::Meta, retained: &ColorRetained) -> Self {
        let (dg, cfg) = meta;
        DistColoring::warm(dg, cfg, &retained.color, |v| retained.is_dirty(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{assemble_coloring, ColorChoice, ColoringConfig};
    use crate::Coloring;
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::{CsrGraph, MutableGraph};
    use cmg_partition::simple::hash_partition;
    use cmg_partition::DistGraph;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine, WarmStart};

    fn warm_run(
        g: &CsrGraph,
        parts: u32,
        cfg: ColoringConfig,
        retained: &ColorRetained,
    ) -> (Coloring, u64) {
        let p = hash_partition(g.num_vertices(), parts, 7);
        let dgs = DistGraph::build_all(g, &p);
        let programs: Vec<DistColoring> = dgs
            .into_iter()
            .map(|dg| DistColoring::reseed((dg, cfg), retained))
            .collect();
        let ecfg = EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        };
        let result = SimEngine::new(programs, ecfg).run();
        assert!(!result.hit_round_cap, "warm coloring did not quiesce");
        for prog in &result.programs {
            assert!(prog.is_finished(), "warm run abandoned a rank mid-phase");
        }
        (
            assemble_coloring(&result.programs, g.num_vertices()),
            result.stats.rounds,
        )
    }

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
                let (c, _) = warm_run(&g, 3, cfg, &retained);
                c.validate(&g)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                for v in 0..g.num_vertices() as VertexId {
                    if !retained.is_dirty(v) {
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
                    if !retained.is_dirty(v) {
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
        assert!(retained.is_dirty(mono.0) || retained.is_dirty(mono.1));
        let (c, _) = warm_run(&g, 4, cfg, &retained);
        c.validate(&g).unwrap();
    }

    /// An empty batch dirties nothing and the warm run terminates in one
    /// conflict-free phase with the retained coloring intact.
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
        let (c, _) = warm_run(&g, 3, cfg, &retained);
        assert_eq!(c.colors(), &colors[..]);
    }

    /// Warm start composes with the LeastUsed strategy: the usage table
    /// is rebuilt from retained colors, so repairs stay balanced and
    /// proper.
    #[test]
    fn least_used_warm_start_rebuilds_usage() {
        let g0 = erdos_renyi(60, 200, 11);
        let cfg = ColoringConfig {
            color_choice: ColorChoice::LeastUsed,
            superstep_size: 8,
            ..Default::default()
        };
        let colors = cold_colors(&g0, 3, cfg);
        let mut mg = MutableGraph::from_csr(&g0);
        let mut batch = MutationBatch::new();
        for v in 1..6u32 {
            batch.insert(0, v, 1.0);
        }
        mg.apply(&batch).unwrap();
        let g = mg.rebuild();
        let retained = invalidate_colors(&g, &colors, &batch, cfg.seed);
        let (c, _) = warm_run(&g, 3, cfg, &retained);
        c.validate(&g).unwrap();
    }
}
