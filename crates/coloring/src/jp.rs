//! Jones–Plassmann maximal-independent-set coloring — the baseline the
//! speculative framework is compared against (§4.1: the framework "uses
//! provably fewer or at most as many rounds").
//!
//! Every vertex carries a random priority; in each round, a vertex whose
//! priority beats all of its *uncolored* neighbors colors itself first-fit
//! and announces the color. No conflicts ever occur, but the number of
//! rounds grows with the length of decreasing-priority paths, and every
//! round is a communication step.
//!
//! It stays a program of its own rather than a [`ConflictScope`] of
//! [`DistColoring`]: it has no phases, no DONE wave and no allreduce, so
//! folding it in would make the shared phase loop branch on which
//! algorithm it serves.
//!
//! [`ConflictScope`]: crate::dist::ConflictScope
//! [`DistColoring`]: crate::dist::DistColoring

use crate::coloring::{count_conflicts, LocalColors, UNCOLORED};
use crate::dist::{priority_key, ColorMsg};
use crate::seq::FirstFit;
use cmg_graph::VertexId;
use cmg_partition::{ghost_neighbor_owners, DistGraph};
use cmg_runtime::{wire_codec, FanoutScheme, NeighborExchange, Rank, RankCtx, RankProgram, Status};

wire_codec! {
    /// Snapshot records of [`JonesPlassmann`]: assigned colors (owned
    /// and ghost) in dense 8-wide chunks, and the still-pending owned
    /// vertices in list order. The exchange's per-neighbour dedup stamps
    /// are rebuilt from the graph + seed on restore; the colour picker
    /// starts empty, and a priority is hashed from the global id when
    /// read.
    ///
    /// Colors travel chunked rather than one-record-per-vertex because
    /// the net engine serializes a snapshot at every checkpoint edge:
    /// a chunk amortizes the tag byte and base index over eight
    /// entries (~4.6 bytes/vertex against 9), and chunks that are
    /// entirely [`UNCOLORED`] are simply not emitted.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum JpSnap {
        /// Eight consecutive color slots starting at local index
        /// `base` (8-aligned). [`UNCOLORED`] slots are literal; a
        /// trailing chunk past the end of the color array pads with
        /// [`UNCOLORED`].
        0 => Colors {
            /// First local index covered (multiple of 8).
            base: u32,
            /// Color of `base + 0`.
            c0: u32,
            /// Color of `base + 1`.
            c1: u32,
            /// Color of `base + 2`.
            c2: u32,
            /// Color of `base + 3`.
            c3: u32,
            /// Color of `base + 4`.
            c4: u32,
            /// Color of `base + 5`.
            c5: u32,
            /// Color of `base + 6`.
            c6: u32,
            /// Color of `base + 7`.
            c7: u32,
        },
        /// An owned vertex not yet colored, in list order.
        1 => Pending {
            /// Pending vertex (local index).
            v: u32,
        },
    }
}

/// Vertices per [`JpSnap::Colors`] chunk.
const CHUNK: usize = 8;

/// One rank's state of the Jones–Plassmann algorithm. Reuses
/// [`ColorMsg::Color`] as its only message. The per-vertex arrays are
/// empty until the rank builds its index (`on_start` or `restore`).
pub struct JonesPlassmann {
    dg: DistGraph,
    color: Vec<u32>,
    /// Owned vertices not yet colored.
    pending: Vec<u32>,
    first_fit: FirstFit,
    /// Announces each color to the owners of the vertex's ghost
    /// neighbors, once each.
    exchange: NeighborExchange,
    /// Seed of the priorities `r(v)`.
    seed: u64,
}

impl JonesPlassmann {
    /// Takes ownership of one rank's slice. Does no work sized by the
    /// slice: the rank builds its index itself, in
    /// [`RankProgram::on_start`] (or [`RankProgram::restore`]).
    pub fn new(dg: DistGraph, seed: u64) -> Self {
        JonesPlassmann {
            color: Vec::new(),
            pending: Vec::new(),
            first_fit: FirstFit::default(),
            // Over no ranks until the index is built.
            exchange: NeighborExchange::new(FanoutScheme::Neighbor, dg.rank, 0, &[]),
            seed,
            dg,
        }
    }

    /// This rank's share of the coloring's conflict edges, counted like
    /// [`DistColoring::local_conflict_count`](crate::DistColoring::local_conflict_count).
    pub fn local_conflict_count(&self) -> usize {
        count_conflicts(&self.dg, |i| {
            self.color.get(i).copied().unwrap_or(UNCOLORED)
        })
    }

    /// Builds the rank-local index — the colour array, every owned vertex
    /// pending, the neighbour exchange — as a fresh rank's. Charges no
    /// work: it is set-up, not protocol.
    fn build_index(&mut self) {
        self.color = vec![UNCOLORED; self.dg.n_total()];
        self.pending = (0..self.dg.n_local as u32).collect();
        self.exchange = NeighborExchange::new(
            FanoutScheme::Neighbor,
            self.dg.rank,
            self.dg.num_ranks,
            &self.dg.neighbor_ranks,
        );
    }

    /// Colors every pending vertex that is a local maximum among its
    /// uncolored neighbors.
    fn sweep(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        // One sweep per round: collect the colorable set first (so the
        // round behaves like the synchronous MIS step), then color it.
        let mut colorable = Vec::new();
        let mut still_pending = Vec::new();
        let key = |v| priority_key(&self.dg, self.seed, v);
        for &v in &self.pending {
            ctx.charge(self.dg.degree(v) as u64);
            let kv = key(v);
            let dominated = self
                .dg
                .neighbors(v)
                .iter()
                .any(|&u| self.color[u as usize] == UNCOLORED && key(u) > kv);
            if dominated {
                still_pending.push(v);
            } else {
                colorable.push(v);
            }
        }
        self.pending = still_pending;
        for v in colorable {
            ctx.charge(self.dg.degree(v) as u64 + 1);
            for &u in self.dg.neighbors(v) {
                self.first_fit.take(self.color[u as usize]);
            }
            let c = self.first_fit.pick();
            self.color[v as usize] = c;
            let msg = ColorMsg::Color {
                v: self.dg.global_ids[v as usize],
                color: c,
            };
            self.exchange
                .publish(ctx, ghost_neighbor_owners(&self.dg, v), &msg);
        }
    }

    fn status(&self) -> Status {
        if self.pending.is_empty() {
            Status::Idle
        } else {
            Status::Active
        }
    }
}

impl LocalColors for JonesPlassmann {
    /// `UNCOLORED` throughout on a never-started rank.
    fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        (0..self.dg.n_local).map(|v| {
            let c = self.color.get(v).copied().unwrap_or(UNCOLORED);
            (self.dg.global_ids[v], c)
        })
    }
}

impl RankProgram for JonesPlassmann {
    type Msg = ColorMsg;
    type Record = JpSnap;
    type Meta = (DistGraph, u64);

    /// `Colors` chunks in ascending base order, all-[`UNCOLORED`] chunks
    /// left out, then `Pending` records in list order.
    fn snapshot(&self) -> Vec<JpSnap> {
        let mut recs = Vec::with_capacity(self.color.len() / CHUNK + 1 + self.pending.len());
        for (i, chunk) in self.color.chunks(CHUNK).enumerate() {
            if chunk.iter().all(|&c| c == UNCOLORED) {
                continue;
            }
            let mut c = [UNCOLORED; CHUNK];
            c[..chunk.len()].copy_from_slice(chunk);
            let [c0, c1, c2, c3, c4, c5, c6, c7] = c;
            recs.push(JpSnap::Colors {
                base: (i * CHUNK) as u32,
                c0,
                c1,
                c2,
                c3,
                c4,
                c5,
                c6,
                c7,
            });
        }
        recs.extend(self.pending.iter().map(|&v| JpSnap::Pending { v }));
        recs
    }

    /// Builds the index itself (a resumed rank gets no `on_start`), then
    /// applies the records. The index build marks every owned vertex
    /// pending, so the pending list is cleared first: it is exactly the
    /// snapshot's `Pending` records.
    fn restore(meta: (DistGraph, u64), snap: Vec<JpSnap>) -> Self {
        let (dg, seed) = meta;
        let mut p = JonesPlassmann::new(dg, seed);
        p.build_index();
        p.pending.clear();
        for rec in snap {
            match rec {
                JpSnap::Colors {
                    base,
                    c0,
                    c1,
                    c2,
                    c3,
                    c4,
                    c5,
                    c6,
                    c7,
                } => {
                    // A trailing chunk's padding lies past the color array.
                    let slots = p.color.iter_mut().skip(base as usize);
                    for (slot, c) in slots.zip([c0, c1, c2, c3, c4, c5, c6, c7]) {
                        *slot = c;
                    }
                }
                JpSnap::Pending { v } => p.pending.push(v),
            }
        }
        p
    }

    fn meta(&self) -> (DistGraph, u64) {
        (self.dg.clone(), self.seed)
    }

    fn on_start(&mut self, ctx: &mut RankCtx<ColorMsg>) -> Status {
        self.build_index();
        self.sweep(ctx);
        self.status()
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<ColorMsg>)>,
        ctx: &mut RankCtx<ColorMsg>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for m in msgs {
                ctx.charge(1);
                if let ColorMsg::Color { v, color } = m {
                    if let Some(local) = self.dg.local(v) {
                        self.color[local as usize] = color;
                    }
                }
            }
        }
        self.sweep(ctx);
        self.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{assemble_coloring, Coloring};
    use cmg_graph::generators::{circuit_like, erdos_renyi, grid2d};
    use cmg_graph::CsrGraph;
    use cmg_partition::simple::{block_partition, hash_partition};
    use cmg_partition::Partition;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    fn run_jp(g: &CsrGraph, partition: &Partition) -> (Coloring, u64) {
        let parts = DistGraph::build_all(g, partition);
        let programs: Vec<JonesPlassmann> = parts
            .into_iter()
            .map(|dg| JonesPlassmann::new(dg, 42))
            .collect();
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(!result.hit_round_cap);
        (
            assemble_coloring(&result.programs, g.num_vertices()),
            result.stats.rounds,
        )
    }

    #[test]
    fn jp_colors_grid_validly() {
        let g = grid2d(10, 10);
        let (c, _) = run_jp(&g, &block_partition(100, 4));
        c.validate(&g).unwrap();
        assert!(c.num_colors() <= g.max_degree() + 1);
    }

    #[test]
    fn jp_on_random_graph_multiple_rank_counts() {
        let g = erdos_renyi(150, 600, 2);
        for parts in [1u32, 3, 8] {
            let (c, _) = run_jp(&g, &hash_partition(150, parts, 5));
            c.validate(&g).unwrap();
        }
    }

    #[test]
    fn jp_never_conflicts_mid_run() {
        // The invariant that distinguishes JP from speculation: colors are
        // final the moment they are assigned. Validity of the final result
        // plus determinism across rank counts is the observable effect.
        let g = circuit_like(800, 3);
        let (c1, _) = run_jp(&g, &Partition::single(g.num_vertices()));
        let (c2, _) = run_jp(&g, &hash_partition(g.num_vertices(), 6, 1));
        c1.validate(&g).unwrap();
        c2.validate(&g).unwrap();
        // JP's outcome depends only on priorities, not the partition.
        assert_eq!(c1, c2);
    }

    #[test]
    fn jp_rounds_grow_with_priority_paths() {
        let g = grid2d(30, 30);
        let (_, rounds) = run_jp(&g, &block_partition(900, 4));
        assert!(rounds > 3, "JP should need several rounds, got {rounds}");
    }
}
