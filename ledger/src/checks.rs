//! Output checks the harness applies to every answer, written here
//! rather than borrowed from the code under test, so that a bug in a
//! library validator cannot hide a bug in a library algorithm.

use cmg_graph::{CsrGraph, VertexId, NO_VERTEX};

/// Checks that `mate` is a matching of `g` carrying the local-dominance
/// certificate of the ½-approximation: every edge outside the matching
/// has an endpoint whose matched edge weighs at least as much.
pub fn half_approx_certificate(g: &CsrGraph, mate: &[VertexId]) -> Result<(), String> {
    let n = g.num_vertices();
    if mate.len() != n {
        return Err(format!("mate vector has {} entries, graph {n}", mate.len()));
    }
    // Weight of each vertex's matched edge; unmatched vertices dominate
    // nothing.
    let mut matched_w = vec![f64::NEG_INFINITY; n];
    for u in 0..n as VertexId {
        let m = mate[u as usize];
        if m == NO_VERTEX {
            continue;
        }
        if (m as usize) >= n || mate[m as usize] != u {
            return Err(format!("mate of {u} is {m}, which does not point back"));
        }
        match g.edge_weight(u, m) {
            Some(w) => matched_w[u as usize] = w,
            None => return Err(format!("matched pair ({u},{m}) is not an edge")),
        }
    }
    for (u, v, w) in g.edges() {
        if mate[u as usize] != v && matched_w[u as usize] < w && matched_w[v as usize] < w {
            return Err(format!(
                "edge ({u},{v}) of weight {w} dominates both endpoints' matched edges"
            ));
        }
    }
    Ok(())
}

/// Checks that `colors` gives every vertex of `g` a color and no edge
/// two equal ones.
pub fn proper_coloring(g: &CsrGraph, colors: &[u32]) -> Result<(), String> {
    if colors.len() != g.num_vertices() {
        return Err(format!(
            "color vector has {} entries, graph {}",
            colors.len(),
            g.num_vertices()
        ));
    }
    if let Some(v) = colors.iter().position(|&c| c == u32::MAX) {
        return Err(format!("vertex {v} has no color"));
    }
    for (u, v, _) in g.edges() {
        if colors[u as usize] == colors[v as usize] {
            return Err(format!(
                "edge ({u},{v}) has color {} at both ends",
                colors[u as usize]
            ));
        }
    }
    Ok(())
}

/// Number of colors a complete color vector uses (largest color + 1).
pub fn color_count(colors: &[u32]) -> usize {
    colors.iter().max().map_or(0, |&c| c as usize + 1)
}

/// FNV-1a over the structure and weight bits of `g`: equal graphs,
/// equal fingerprints, whatever path built them.
pub fn graph_fingerprint(g: &CsrGraph) -> u64 {
    let mut h = Fnv::default();
    h.word(g.num_vertices() as u64);
    for (u, v, w) in g.edges() {
        h.word((u64::from(u) << 32) | u64::from(v));
        h.word(w.to_bits());
    }
    h.0
}

/// 64-bit FNV-1a, fed a word at a time.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one 64-bit word in, byte by byte.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::GraphBuilder;

    /// Path 0 –1.0– 1 –3.0– 2 –2.0– 3.
    fn path() -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(4, 3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 3.0);
        b.add_edge(2, 3, 2.0);
        b.build()
    }

    #[test]
    fn certificate_accepts_the_dominant_matching_and_rejects_others() {
        let g = path();
        // {1,2} is the heaviest edge; 0 and 3 stay free.
        assert_eq!(
            half_approx_certificate(&g, &[NO_VERTEX, 2, 1, NO_VERTEX]),
            Ok(())
        );
        // {0,1} and {2,3}: heavier in total, but edge (1,2) dominates both.
        assert!(half_approx_certificate(&g, &[1, 0, 3, 2]).is_err());
        // Not even a matching.
        assert!(half_approx_certificate(&g, &[1, 2, 1, NO_VERTEX]).is_err());
        assert!(half_approx_certificate(&g, &[2, NO_VERTEX, 0, NO_VERTEX]).is_err());
        assert!(half_approx_certificate(&g, &[NO_VERTEX; 3]).is_err());
    }

    #[test]
    fn coloring_check_finds_conflicts_and_gaps() {
        let g = path();
        assert_eq!(proper_coloring(&g, &[0, 1, 0, 1]), Ok(()));
        assert!(proper_coloring(&g, &[0, 1, 1, 0]).is_err());
        assert!(proper_coloring(&g, &[0, 1, u32::MAX, 0]).is_err());
        assert!(proper_coloring(&g, &[0, 1]).is_err());
        assert_eq!(color_count(&[0, 1, 0, 1]), 2);
    }

    #[test]
    fn fingerprint_sees_structure_and_weights() {
        let g = path();
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&path()));
        let mut b = GraphBuilder::with_capacity(4, 3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 3.0);
        b.add_edge(2, 3, 2.5);
        assert_ne!(graph_fingerprint(&g), graph_fingerprint(&b.build()));
    }
}
