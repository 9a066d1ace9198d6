//! The matching result type and its verification.

use cmg_graph::{CsrGraph, VertexId, Weight, NO_VERTEX};

/// A matching: `mate[v]` is `v`'s partner, or [`NO_VERTEX`] if unmatched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<VertexId>,
}

impl Matching {
    /// An empty matching on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Matching {
            mate: vec![NO_VERTEX; n],
        }
    }

    /// Wraps a mate vector.
    pub fn from_mates(mate: Vec<VertexId>) -> Self {
        Matching { mate }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.mate.len()
    }

    /// `v`'s partner, or [`NO_VERTEX`].
    #[inline]
    pub fn mate(&self, v: VertexId) -> VertexId {
        self.mate[v as usize]
    }

    /// The whole mate vector (`mates()[v]` = `v`'s partner or
    /// [`NO_VERTEX`]) — the retained-state input of warm-start repair.
    #[inline]
    pub fn mates(&self) -> &[VertexId] {
        &self.mate
    }

    /// `true` if `v` is matched.
    #[inline]
    pub(crate) fn is_matched(&self, v: VertexId) -> bool {
        self.mate[v as usize] != NO_VERTEX
    }

    /// Adds the edge `{u, v}` to the matching.
    ///
    /// # Panics
    /// Panics (debug) if either endpoint is already matched.
    #[inline]
    pub fn add(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(!self.is_matched(u) && !self.is_matched(v));
        self.mate[u as usize] = v;
        self.mate[v as usize] = u;
    }

    /// Number of matched edges.
    pub fn cardinality(&self) -> usize {
        self.mate.iter().filter(|&&m| m != NO_VERTEX).count() / 2
    }

    /// Sum of matched-edge weights in `g`.
    ///
    /// # Panics
    /// Panics if a matched pair is not an edge of `g`.
    pub fn weight(&self, g: &CsrGraph) -> Weight {
        let mut total = 0.0;
        for v in 0..self.mate.len() as VertexId {
            let m = self.mate[v as usize];
            if m != NO_VERTEX && v < m {
                total += g
                    .edge_weight(v, m)
                    .unwrap_or_else(|| panic!("matched pair ({v},{m}) is not an edge"));
            }
        }
        total
    }

    /// Iterates matched edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.mate.iter().enumerate().filter_map(|(v, &m)| {
            (m != NO_VERTEX && (v as VertexId) < m).then_some((v as VertexId, m))
        })
    }

    /// Checks structural validity against `g`: symmetry (`mate[mate[v]] ==
    /// v`) and that every matched pair is an actual edge.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.mate.len() != g.num_vertices() {
            return Err("matching size does not match graph".into());
        }
        for v in 0..self.mate.len() as VertexId {
            let m = self.mate[v as usize];
            if m == NO_VERTEX {
                continue;
            }
            if m == v {
                return Err(format!("vertex {v} matched to itself"));
            }
            if self.mate[m as usize] != v {
                return Err(format!("mate of {v} is {m} but mate of {m} is not {v}"));
            }
            if !g.has_edge(v, m) {
                return Err(format!("matched pair ({v},{m}) is not an edge"));
            }
        }
        Ok(())
    }

    /// Checks maximality: no edge has both endpoints unmatched.
    /// (Every locally-dominant / greedy matching is maximal, and a maximal
    /// matching is what guarantees the ½-approximation bound.)
    pub fn is_maximal(&self, g: &CsrGraph) -> bool {
        g.edges()
            .all(|(u, v, _)| self.is_matched(u) || self.is_matched(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::GraphBuilder;

    fn path3() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        b.build()
    }

    #[test]
    fn add_and_query() {
        let mut m = Matching::empty(3);
        assert!(!m.is_matched(0));
        m.add(1, 2);
        assert_eq!(m.mate(1), 2);
        assert_eq!(m.mate(2), 1);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.weight(&path3()), 3.0);
        m.validate(&path3()).unwrap();
    }

    #[test]
    fn maximality() {
        let g = path3();
        let mut m = Matching::empty(3);
        assert!(!m.is_maximal(&g));
        m.add(0, 1);
        assert!(m.is_maximal(&g));
    }

    #[test]
    fn validate_rejects_non_edge() {
        let g = path3();
        let mut m = Matching::empty(3);
        m.add(0, 2); // not an edge
        assert!(m.validate(&g).is_err());
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let g = path3();
        let m = Matching::from_mates(vec![1, NO_VERTEX, NO_VERTEX]);
        assert!(m.validate(&g).is_err());
    }

    #[test]
    fn edges_iterate_once() {
        let mut m = Matching::empty(4);
        m.add(3, 0);
        assert_eq!(m.edges().collect::<Vec<_>>(), vec![(0, 3)]);
    }
}
