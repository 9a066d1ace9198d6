//! Summary statistics over graphs (printed by the bench harnesses next to
//! each experiment, mirroring the size columns of Tables 1.1 and 5.1).

use crate::CsrGraph;

/// Basic size/degree statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Average degree 2m/n.
    pub avg_degree: f64,
    /// Number of degree-0 vertices.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes statistics in one pass over the degree array.
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut min_degree = usize::MAX;
        let mut max_degree = 0;
        let mut isolated = 0;
        for v in 0..n as crate::VertexId {
            let d = g.degree(v);
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        if n == 0 {
            min_degree = 0;
        }
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            min_degree,
            max_degree,
            avg_degree: if n == 0 {
                0.0
            } else {
                2.0 * g.num_edges() as f64 / n as f64
            },
            isolated,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} deg[min={} avg={:.2} max={}] isolated={}",
            self.num_vertices,
            self.num_edges,
            self.min_degree,
            self.avg_degree,
            self.max_degree,
            self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::CsrGraph;

    #[test]
    fn stats_of_grid() {
        let s = GraphStats::of(&grid2d(3, 3));
        assert_eq!(s.num_vertices, 9);
        assert_eq!(s.num_edges, 12);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 24.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let s = GraphStats::of(&CsrGraph::empty(0));
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn isolated_counted() {
        let s = GraphStats::of(&CsrGraph::empty(4));
        assert_eq!(s.isolated, 4);
    }

    #[test]
    fn display_is_stable() {
        let s = GraphStats::of(&grid2d(2, 2));
        assert_eq!(
            s.to_string(),
            "|V|=4 |E|=4 deg[min=2 avg=2.00 max=2] isolated=0"
        );
    }
}
