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

use crate::coloring::{LocalColors, UNCOLORED};
use crate::dist::ColorMsg;
use cmg_graph::util::vertex_priority;
use cmg_graph::VertexId;
use cmg_partition::{ghost_neighbor_owners, DistGraph};
use cmg_runtime::{
    wire_codec, FanoutScheme, NeighborExchange, ProgramSnapshot, Rank, RankCtx, RankProgram, Status,
};

wire_codec! {
    /// Snapshot records of [`JonesPlassmann`]: assigned colors (owned
    /// and ghost) in dense 8-wide chunks, and the still-pending owned
    /// vertices in list order. Priorities, the forbidden-stamp scratch,
    /// and the per-destination dedup table are rebuilt from the graph +
    /// seed on restore.
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

/// One rank's snapshot in its natural shape: the full color array
/// (owned + ghost) and the pending list, captured as two wholesale
/// `Vec` clones (O(n) memcpy) instead of a filtered record build.
///
/// The wire format is exactly the [`JpSnap`] record stream — `Colors`
/// chunks in ascending base order (all-[`UNCOLORED`] chunks omitted),
/// then `Pending` records in list order — but `encode_bytes` is
/// overridden with a bulk writer that appends one pre-assembled slice
/// per record. On the net engine a checkpoint cadence serializes this
/// at every k-th round edge, and the per-field `BufMut` puts of the
/// generic path were the dominant cost of the whole checkpoint; the
/// bulk path is several times cheaper while producing byte-identical
/// output (pinned by a test below).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JpSnapshot {
    /// Colors by local index (owned + ghost); `UNCOLORED` entries stay
    /// off the wire (in units of whole chunks).
    pub colors: Vec<u32>,
    /// Still-pending owned vertices, in list order.
    pub pending: Vec<u32>,
}

/// Vertices per [`JpSnap::Colors`] chunk.
const CHUNK: usize = 8;

/// The eight color slots of the chunk starting at `base`, padding past
/// the end of the array with [`UNCOLORED`].
fn chunk_at(colors: &[u32], base: usize) -> [u32; CHUNK] {
    let mut c = [UNCOLORED; CHUNK];
    for (k, slot) in c.iter_mut().enumerate() {
        if let Some(&v) = colors.get(base + k) {
            *slot = v;
        }
    }
    c
}

impl ProgramSnapshot for JpSnapshot {
    type Record = JpSnap;

    fn into_records(self) -> Vec<JpSnap> {
        let mut recs = Vec::with_capacity(self.colors.len() / CHUNK + self.pending.len() + 1);
        for base in (0..self.colors.len()).step_by(CHUNK) {
            let [c0, c1, c2, c3, c4, c5, c6, c7] = chunk_at(&self.colors, base);
            if [c0, c1, c2, c3, c4, c5, c6, c7] == [UNCOLORED; CHUNK] {
                continue;
            }
            recs.push(JpSnap::Colors {
                base: base as u32,
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
        for &v in &self.pending {
            recs.push(JpSnap::Pending { v });
        }
        recs
    }

    fn from_records(records: Vec<JpSnap>) -> Option<Self> {
        // The color array is rebuilt only up to the last emitted chunk;
        // `restore` applies entries positionally onto a fresh program,
        // so trailing `UNCOLORED` entries need no records and padded
        // chunk tails are harmless.
        let n = records
            .iter()
            .filter_map(|r| match r {
                JpSnap::Colors { base, .. } => Some(*base as usize + CHUNK),
                JpSnap::Pending { .. } => None,
            })
            .max()
            .unwrap_or(0);
        let mut colors = vec![UNCOLORED; n];
        let mut pending = Vec::new();
        for r in records {
            match r {
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
                    let base = base as usize;
                    for (k, v) in [c0, c1, c2, c3, c4, c5, c6, c7].into_iter().enumerate() {
                        if let Some(slot) = colors.get_mut(base + k) {
                            *slot = v;
                        }
                    }
                }
                JpSnap::Pending { v } => pending.push(v),
            }
        }
        Some(JpSnapshot { colors, pending })
    }

    fn encode_into(self, out: &mut Vec<u8>) {
        encode_jp_state(&self.colors, &self.pending, out);
    }
}

/// Bulk snapshot writer shared by [`JpSnapshot::encode_into`] and the
/// live-program hot path ([`RankProgram::encode_snapshot_into`]): a
/// single pass over the color array, one slice append per record,
/// byte-identical to the generic per-field codec path (tag byte +
/// little-endian fields). Reserves the worst case (every chunk
/// emitted) — spare capacity is free here, the buffer goes to the wire
/// as-is and is never shrunk into `Bytes`.
fn encode_jp_state(colors: &[u32], pending: &[u32], out: &mut Vec<u8>) {
    out.reserve((colors.len() / CHUNK + 1) * 37 + pending.len() * 5);
    for (i, ch) in colors.chunks(CHUNK).enumerate() {
        if ch.iter().all(|&c| c == UNCOLORED) {
            continue;
        }
        // 0xFF-filled so a trailing partial chunk's missing slots read
        // back as UNCOLORED (= u32::MAX) without explicit padding.
        let mut rec = [0xFFu8; 37];
        rec[0] = 0;
        rec[1..5].copy_from_slice(&((i * CHUNK) as u32).to_le_bytes());
        for (k, &c) in ch.iter().enumerate() {
            rec[5 + 4 * k..9 + 4 * k].copy_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&rec);
    }
    for &v in pending {
        let b = v.to_le_bytes();
        out.extend_from_slice(&[1, b[0], b[1], b[2], b[3]]);
    }
}

/// One rank's state of the Jones–Plassmann algorithm. Reuses
/// [`ColorMsg::Color`] as its only message. The per-vertex arrays are
/// empty until the rank builds its index (`on_start` or `restore`).
pub struct JonesPlassmann {
    dg: DistGraph,
    color: Vec<u32>,
    priority: Vec<u64>,
    /// Owned vertices not yet colored.
    pending: Vec<u32>,
    forbidden: Vec<u64>,
    stamp: u64,
    /// Announces each color to the owners of the vertex's ghost
    /// neighbors, once each.
    exchange: NeighborExchange,
    /// Priority seed, kept so restore can rebuild `priority`.
    seed: u64,
}

impl JonesPlassmann {
    /// Takes ownership of one rank's slice. Does no work sized by the
    /// slice: the rank builds its index itself, in
    /// [`RankProgram::on_start`] (or [`RankProgram::restore`]).
    pub fn new(dg: DistGraph, seed: u64) -> Self {
        JonesPlassmann {
            color: Vec::new(),
            priority: Vec::new(),
            pending: Vec::new(),
            forbidden: Vec::new(),
            stamp: 0,
            // Over no ranks until the index is built: the dedup table is
            // sized by the rank count.
            exchange: NeighborExchange::new(FanoutScheme::Neighbor, dg.rank, 0),
            seed,
            dg,
        }
    }

    /// Builds the rank-local index — priorities, the colour and forbidden
    /// arrays, every owned vertex pending, the fan-out table — as a fresh
    /// rank's. Charges no work: it is set-up, not protocol.
    fn build_index(&mut self) {
        let n_total = self.dg.n_total();
        let seed = self.seed;
        self.priority = self.dg.global_ids[..n_total]
            .iter()
            .map(|&g| vertex_priority(g as u64, seed))
            .collect();
        self.color = vec![UNCOLORED; n_total];
        self.pending = (0..self.dg.n_local as u32).collect();
        self.forbidden = vec![u64::MAX; n_total + 2];
        self.exchange =
            NeighborExchange::new(FanoutScheme::Neighbor, self.dg.rank, self.dg.num_ranks);
    }

    /// Colors every pending vertex that is a local maximum among its
    /// uncolored neighbors.
    fn sweep(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        // One sweep per round: collect the colorable set first (so the
        // round behaves like the synchronous MIS step), then color it.
        let mut colorable = Vec::new();
        let mut still_pending = Vec::new();
        for &v in &self.pending {
            ctx.charge(self.dg.degree(v) as u64);
            let pv = (self.priority[v as usize], self.dg.global_ids[v as usize]);
            let dominated = self.dg.neighbors(v).iter().any(|&u| {
                self.color[u as usize] == UNCOLORED
                    && (self.priority[u as usize], self.dg.global_ids[u as usize]) > pv
            });
            if dominated {
                still_pending.push(v);
            } else {
                colorable.push(v);
            }
        }
        self.pending = still_pending;
        for v in colorable {
            self.stamp += 1;
            ctx.charge(self.dg.degree(v) as u64 + 1);
            for &u in self.dg.neighbors(v) {
                let c = self.color[u as usize];
                if c != UNCOLORED && (c as usize) < self.forbidden.len() {
                    self.forbidden[c as usize] = self.stamp;
                }
            }
            let mut c = 0u32;
            while (c as usize) < self.forbidden.len() && self.forbidden[c as usize] == self.stamp {
                c += 1;
            }
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
    type Snapshot = JpSnapshot;
    type Meta = (DistGraph, u64);

    fn snapshot(&self) -> JpSnapshot {
        JpSnapshot {
            colors: self.color.clone(),
            pending: self.pending.clone(),
        }
    }

    fn encode_snapshot_into(&self, out: &mut Vec<u8>) {
        // Hot path: encode straight out of the live color and pending
        // buffers, skipping the snapshot clone the default would make.
        encode_jp_state(&self.color, &self.pending, out);
    }

    /// Builds the index itself (a resumed rank gets no `on_start`), then
    /// applies the snapshot.
    fn restore(meta: (DistGraph, u64), snap: JpSnapshot) -> Self {
        let (dg, seed) = meta;
        let mut p = JonesPlassmann::new(dg, seed);
        p.build_index();
        // Applied positionally: a decoded snapshot's color array may be
        // truncated after the last colored index, or chunk-padded past
        // the vertex count (padding is UNCOLORED, excess is ignored).
        for (idx, &color) in snap.colors.iter().enumerate() {
            if color != UNCOLORED {
                if let Some(slot) = p.color.get_mut(idx) {
                    *slot = color;
                }
            }
        }
        p.pending = snap.pending;
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

    #[test]
    fn bulk_snapshot_encoding_matches_the_generic_record_path() {
        use crate::coloring::UNCOLORED;
        use crate::jp::JpSnapshot;
        use cmg_runtime::ProgramSnapshot;

        // A mid-run-shaped snapshot: colored, uncolored, and pending
        // entries, a fully-uncolored chunk (which must vanish from the
        // wire), and a ragged tail shorter than a chunk.
        let mut colors = vec![UNCOLORED; 19];
        for (i, c) in [(0, 2u32), (2, 0), (5, 7), (6, 1), (17, 3)] {
            colors[i] = c;
        }
        // Chunk [8..16) stays entirely uncolored.
        let snap = JpSnapshot {
            colors,
            pending: vec![1, 3, 4, 7],
        };
        let bulk = snap.clone().encode_bytes();
        // The reference stream: the same records through the generic
        // per-field encoder every other wire_codec type uses.
        let generic: Vec<_> = snap.clone().into_records();
        assert_eq!(generic.len(), 2 + 4, "two chunks plus four pending");
        let reference = generic.encode_bytes();
        assert_eq!(bulk, reference, "bulk encoder drifted from the wire format");

        // And the round trip restores the same logical snapshot (the
        // decoded color array pads to whole chunks with UNCOLORED).
        let back = JpSnapshot::decode_bytes(bulk).expect("decodes");
        assert_eq!(back.pending, snap.pending);
        assert_eq!(back.colors.len(), 24);
        assert_eq!(back.colors[..19], snap.colors[..]);
        assert!(back.colors[19..].iter().all(|&c| c == UNCOLORED));
    }
}
