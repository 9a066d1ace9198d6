//! The coloring result type, its verification, and its assembly from
//! rank programs.

use cmg_graph::{CsrGraph, VertexId};
use cmg_partition::{gather_shares, DistGraph};

/// Sentinel for "not yet colored".
pub const UNCOLORED: u32 = u32::MAX;

/// A (distance-1) vertex coloring: `color[v]` ∈ `0..num_colors`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
}

impl Coloring {
    /// An all-uncolored assignment for `n` vertices.
    pub(crate) fn uncolored(n: usize) -> Self {
        Coloring {
            colors: vec![UNCOLORED; n],
        }
    }

    /// Wraps a color vector.
    pub fn from_colors(colors: Vec<u32>) -> Self {
        Coloring { colors }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// Color of `v` (or [`UNCOLORED`]).
    #[inline]
    pub fn color(&self, v: VertexId) -> u32 {
        self.colors[v as usize]
    }

    /// Sets the color of `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, c: u32) {
        self.colors[v as usize] = c;
    }

    /// `true` if every vertex has a color.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(|&c| c != UNCOLORED)
    }

    /// Number of distinct colors used (max color + 1 over colored
    /// vertices; 0 if nothing is colored).
    pub fn num_colors(&self) -> usize {
        self.colors
            .iter()
            .filter(|&&c| c != UNCOLORED)
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Raw color slice.
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Validates a proper, complete distance-1 coloring of `g`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.colors.len() != g.num_vertices() {
            return Err("coloring size does not match graph".into());
        }
        for v in 0..g.num_vertices() as VertexId {
            if self.colors[v as usize] == UNCOLORED {
                return Err(format!("vertex {v} uncolored"));
            }
            for &u in g.neighbors(v) {
                if u > v && self.colors[u as usize] == self.colors[v as usize] {
                    return Err(format!(
                        "conflict: vertices {v} and {u} share color {}",
                        self.colors[v as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A rank program that holds the colors of the vertices it owns.
pub trait LocalColors {
    /// Final colors of owned vertices as `(global id, color)`.
    fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_;
}

/// Assembles the global color vector from every rank's `(vertex, color)`
/// share, `shares` in rank order: each vertex of `0..n` colored by exactly
/// one rank ([`gather_shares`]). The error names the offending vertex.
pub fn assemble_colors<S>(n: usize, shares: impl IntoIterator<Item = S>) -> Result<Vec<u32>, String>
where
    S: IntoIterator<Item = (VertexId, u32)>,
{
    gather_shares(n, shares, "colored")
}

/// Assembles the global coloring from every rank's finished program,
/// through [`assemble_colors`].
///
/// # Panics
/// Panics, naming the vertex, if the ranks' reports do not cover
/// `0..num_vertices` exactly once (would indicate a protocol bug).
#[expect(
    clippy::panic,
    reason = "documented: ranks that disagree are a protocol bug; the net engine reports it typed"
)]
pub fn assemble_coloring<P: LocalColors>(programs: &[P], num_vertices: usize) -> Coloring {
    match assemble_colors(num_vertices, programs.iter().map(P::local_colors)) {
        Ok(colors) => Coloring::from_colors(colors),
        Err(e) => panic!("ranks disagree: {e}"),
    }
}

/// Conflict edges of one rank's slice under `color_of` (by local index,
/// owned or ghost): an edge is counted by the rank owning its smaller
/// global id, so the sum over ranks counts every conflict edge of the
/// graph exactly once, without the global graph.
pub(crate) fn count_conflicts(dg: &DistGraph, color_of: impl Fn(usize) -> u32) -> usize {
    let mut conflicts = 0;
    for v in 0..dg.n_local as u32 {
        let cv = color_of(v as usize);
        let vg = dg.global_ids[v as usize];
        for &u in dg.neighbors(v) {
            if vg < dg.global_ids[u as usize] && color_of(u as usize) == cv {
                conflicts += 1;
            }
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::path;
    use cmg_graph::GraphBuilder;
    use cmg_partition::Partition;

    /// A rank's share as a plain list: what `assemble_coloring` reads.
    struct Share(Vec<(VertexId, u32)>);

    impl LocalColors for Share {
        fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
            self.0.iter().copied()
        }
    }

    /// Two ranks' `(vertex, value)` shares and the text the error they
    /// raise must contain ("" = none).
    type Row = (&'static [(u32, u32)], &'static [(u32, u32)], &'static str);

    /// Three vertices over two ranks: a correct report, then one row per
    /// check it must fail, with the vertex its error names. Removing any
    /// of the checks fails its row.
    #[test]
    fn color_assembly_checks_range_duplicates_and_gaps() {
        let rows: [Row; 4] = [
            (&[(0, 2), (1, 0)], &[(2, 1)], ""),
            (
                &[(0, 2), (1, 0)],
                &[(1, 1), (2, 1)],
                "vertex 1 colored by two ranks",
            ),
            (
                &[(0, 2), (1, 0)],
                &[(2, 1), (3, 1)],
                "rank 1 reported vertex 3 outside",
            ),
            (&[(0, 2)], &[(2, 1)], "no rank colored vertex 1"),
        ];
        for (rank0, rank1, want) in rows {
            let shares = [rank0, rank1].map(|s| s.iter().copied());
            match assemble_colors(3, shares) {
                Ok(colors) => assert_eq!((colors, want), (vec![2, 0, 1], "")),
                Err(e) => assert!(!want.is_empty() && e.contains(want), "{e:?} vs {want:?}"),
            }
        }
        let ranks = [Share(vec![(0, 2), (1, 0)]), Share(vec![(2, 1)])];
        assert_eq!(assemble_coloring(&ranks, 3).colors(), [2, 0, 1]);
    }

    /// A vertex two ranks report used to be overwritten by the later one.
    #[test]
    #[should_panic(expected = "vertex 1 colored by two ranks")]
    fn coloring_a_vertex_twice_panics_naming_it() {
        let ranks = [Share(vec![(0, 2), (1, 0)]), Share(vec![(1, 1), (2, 1)])];
        assemble_coloring(&ranks, 3);
    }

    /// A vertex outside the graph used to be an index panic.
    #[test]
    #[should_panic(expected = "rank 1 reported vertex 3 outside the graph (n = 3)")]
    fn coloring_a_vertex_outside_the_graph_panics_naming_it() {
        let ranks = [Share(vec![(0, 2), (1, 0)]), Share(vec![(2, 1), (3, 1)])];
        assemble_coloring(&ranks, 3);
    }

    /// The hand-built conflict case: a 6-cycle with the chord 1–4 over
    /// ranks {0, 1, 2} and {3, 4, 5}, colored `[0, 0, 1, 1, 0, 0]`. Its
    /// monochrome edges are 0–1 and 4–5 (owned–owned, one per rank) and
    /// 2–3, 5–0 and 1–4 (cut): five, each counted once, by the rank
    /// owning its smaller id — rank 0 counts four, rank 1 one.
    #[test]
    fn conflicts_count_each_monochrome_edge_once() {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build();
        let colors = [0, 0, 1, 1, 0, 0];
        let parts = DistGraph::build_all(&g, &Partition::new(vec![0, 0, 0, 1, 1, 1], 2));
        let per_rank: Vec<usize> = parts
            .iter()
            .map(|dg| count_conflicts(dg, |i| colors[dg.global_ids[i] as usize]))
            .collect();
        assert_eq!(per_rank, [4, 1]);
        let global = (0..6u32)
            .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| v < u && colors[v as usize] == colors[u as usize])
            .count();
        assert_eq!(global, 5);
    }

    #[test]
    fn proper_coloring_validates() {
        let g = path(4);
        let c = Coloring::from_colors(vec![0, 1, 0, 1]);
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_complete());
    }

    #[test]
    fn conflicts_detected() {
        let g = path(3);
        let c = Coloring::from_colors(vec![0, 0, 1]);
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn uncolored_fails_validation() {
        let g = path(2);
        let mut c = Coloring::uncolored(2);
        assert!(!c.is_complete());
        assert!(c.validate(&g).is_err());
        c.set(0, 0);
        c.set(1, 1);
        c.validate(&g).unwrap();
    }

    #[test]
    fn num_colors_ignores_uncolored() {
        let mut c = Coloring::uncolored(3);
        assert_eq!(c.num_colors(), 0);
        c.set(1, 4);
        assert_eq!(c.num_colors(), 5);
    }
}
