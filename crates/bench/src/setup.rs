//! Workload builders for every experiment.

use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{BipartiteGraph, CsrGraph};

/// Experiment size preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment on one core (default; CI-friendly).
    Small,
    /// A few minutes per experiment.
    Medium,
    /// Tens of minutes; approaches the paper's per-rank sizes.
    Large,
}

impl Scale {
    /// This preset's value of a size that has one per preset.
    pub fn pick<T>(self, small: T, medium: T, large: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Medium => medium,
            Scale::Large => large,
        }
    }
}

/// Uniform random edge weights, as in the paper's matching experiments.
pub(crate) fn uniform_weights(g: &CsrGraph, seed: u64) -> CsrGraph {
    assign_weights(g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed)
}

/// The six Table 1.1 stand-ins, scaled to `scale`: the UF matrix each
/// stands in for, and the bipartite graph.
///
/// The originals range from 1.4 M to 77 M edges; exact optima at that size
/// are out of reach on one host, so the stand-ins reproduce each matrix's
/// *shape class* (random sparse / banded structural) at solver-friendly
/// sizes. The measured quality ratio is the paper's metric.
pub(crate) fn table1_instances(scale: Scale) -> Vec<(&'static str, BipartiteGraph)> {
    let f = scale.pick(1usize, 3, 8);
    // All six UF originals are (near-)diagonally dominant circuit or FEM
    // matrices; the diagonal dominance is what yields the ≥99 % ratios.
    // Hamrle3 (99.36 % in the paper) is the least dominant → lowest ratio.
    // (name, rows at small scale, off-diagonals per row, dominance); seeds 1–6.
    let shapes = [
        ("ASIC_680k-like", 600, 2, 2.0),
        ("Hamrle3-like", 900, 1, 0.8),
        ("rajat31-like", 1000, 1, 2.0),
        ("cage14-like", 700, 8, 2.0),
        ("ldoor-like", 800, 23, 3.0),
        ("audikw_1-like", 600, 40, 3.0),
    ];
    let build = |((name, n, offdiag, dominance), seed)| {
        let graph = generators::diag_dominant_bipartite(n * f, offdiag, dominance, seed);
        (name, graph)
    };
    shapes.into_iter().zip(1u64..).map(build).collect()
}

/// Weak-scaling series (Figure 5.1): fixed per-rank subgrid, growing grid
/// and rank count together. Returns `(subgrid_side, Vec<(k, p)>)` — each
/// entry is a `k × k` grid on `p` ranks arranged `√p × √p`.
pub(crate) fn weak_scaling_series(scale: Scale) -> (usize, Vec<(usize, u32)>) {
    // The paper: 8,000² on 1,024 ranks → 16,000² on 4,096 → 32,000² on
    // 16,384 (250² per rank). Same rank counts, smaller subgrids here.
    let b = scale.pick(16usize, 32, 64);
    let entry = |p: u32| (b * (p as f64).sqrt() as usize, p);
    (b, [1024, 4096, 16384].into_iter().map(entry).collect())
}

/// Strong-scaling grid series (Figure 5.2): one `k × k` grid, growing rank
/// counts over a 32× range as in the paper. Returns `(k, ranks)`.
///
/// The paper's 32,000² grid keeps ≥ 61k vertices per rank even at 16,384
/// ranks; these presets keep a comparable per-rank regime at host-feasible
/// graph sizes by shifting the rank window instead of inflating the graph.
pub(crate) fn strong_scaling_grid_series(scale: Scale) -> (usize, Vec<u32>) {
    let (k, p0) = scale.pick((2048usize, 32u32), (4096, 128), (8192, 512));
    (k, (0..6).map(|i| p0 << i).collect())
}

/// The circuit-simulation stand-in for Figure 5.3's bipartite graph
/// (original: 3.2 M vertices, 7.7 M edges). Returned as a general graph
/// (the matching code operates on general graphs).
pub(crate) fn circuit_matching_graph(scale: Scale) -> CsrGraph {
    let n = scale.pick(100_000usize, 400_000, 1_600_000);
    uniform_weights(&generators::circuit_like(n, 42), 7)
}

/// The circuit-simulation stand-in for Figure 5.4's adjacency graph
/// (original: 1.5 M vertices, 3 M edges, degrees 2–6).
pub(crate) fn circuit_coloring_graph(scale: Scale) -> CsrGraph {
    let n = scale.pick(75_000usize, 300_000, 1_200_000);
    generators::circuit_like(n, 43)
}

/// Rank counts for the circuit strong-scaling figures (paper: 2 → 4,096).
pub(crate) fn circuit_rank_series(scale: Scale) -> Vec<u32> {
    let doublings = scale.pick(10, 11, 12);
    (1..=doublings).map(|i| 1u32 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_instances_have_expected_shapes() {
        let insts = table1_instances(Scale::Small);
        assert_eq!(insts.len(), 6);
        for (name, graph) in &insts {
            assert!(graph.num_edges() > 0, "{name}");
        }
    }

    #[test]
    fn weak_series_squares_match_rank_grid() {
        let (b, series) = weak_scaling_series(Scale::Small);
        for (k, p) in series {
            let side = (p as f64).sqrt() as usize;
            assert_eq!(k, b * side);
            assert_eq!(side * side, p as usize, "p must be a square");
        }
    }

    #[test]
    fn circuit_graphs_match_paper_degree_profile() {
        let g = circuit_coloring_graph(Scale::Small);
        assert!(g.max_degree() <= 6);
        assert!((0..g.num_vertices() as u32).all(|v| g.degree(v) >= 2));
    }

    #[test]
    fn rank_series_doubles() {
        let ranks = circuit_rank_series(Scale::Small);
        assert_eq!(ranks, [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }
}
