//! Distance-2 coloring: no two vertices within distance two share a color.
//!
//! This is the coloring variation behind the paper's flagship application
//! (§1: "efficient computation of sparse Jacobian and Hessian matrices in
//! numerical optimization" — a distance-2 coloring of the adjacency graph
//! yields a valid column compression). Sequential greedy here; the
//! distributed speculative version is
//! [`DistColoring::distance2`](crate::dist::DistColoring::distance2).

use crate::coloring::{Coloring, UNCOLORED};
use crate::seq::Ordering;
use cmg_graph::{CsrGraph, VertexId};

/// Greedy first-fit distance-2 coloring of `g` under `order`.
///
/// Uses at most `Δ² + 1` colors; `O(Σ deg²)` time.
pub fn greedy_d2(g: &CsrGraph, order: Ordering) -> Coloring {
    greedy_d2_in_order(g, &crate::seq::vertex_order(g, order))
}

/// Greedy distance-2 coloring following an explicit vertex sequence.
fn greedy_d2_in_order(g: &CsrGraph, seq: &[VertexId]) -> Coloring {
    let n = g.num_vertices();
    let mut coloring = Coloring::uncolored(n);
    let mut forbidden: Vec<u64> = vec![u64::MAX; n + 1];
    let mut stamp = 0u64;
    for &v in seq {
        stamp += 1;
        for &u in g.neighbors(v) {
            let cu = coloring.color(u);
            if cu != UNCOLORED {
                forbidden[cu as usize] = stamp;
            }
            for &w in g.neighbors(u) {
                let cw = coloring.color(w);
                if w != v && cw != UNCOLORED {
                    forbidden[cw as usize] = stamp;
                }
            }
        }
        let mut c = 0u32;
        while (c as usize) <= n && forbidden[c as usize] == stamp {
            c += 1;
        }
        coloring.set(v, c);
    }
    coloring
}

/// Validates a complete distance-2 coloring: every vertex differs from all
/// neighbors, and all neighbors of any vertex are pairwise distinct (the
/// two conditions together cover all pairs at distance ≤ 2).
pub fn validate_d2(coloring: &Coloring, g: &CsrGraph) -> Result<(), String> {
    if coloring.num_vertices() != g.num_vertices() {
        return Err("coloring size does not match graph".into());
    }
    let mut seen: Vec<u64> = vec![u64::MAX; coloring.num_colors().max(1)];
    let mut stamp = 0u64;
    for v in 0..g.num_vertices() as VertexId {
        let cv = coloring.color(v);
        if cv == UNCOLORED {
            return Err(format!("vertex {v} uncolored"));
        }
        // Distance-1 condition + pairwise-distinct neighborhood.
        stamp += 1;
        for &u in g.neighbors(v) {
            let cu = coloring.color(u);
            if cu == UNCOLORED {
                return Err(format!("vertex {u} uncolored"));
            }
            if cu == cv {
                return Err(format!("d1 conflict: {v} and {u} share color {cv}"));
            }
            if seen[cu as usize] == stamp {
                return Err(format!(
                    "d2 conflict: two neighbors of {v} share color {cu}"
                ));
            }
            seen[cu as usize] = stamp;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::{complete, cycle, erdos_renyi, grid2d, star};

    #[test]
    fn grid_d2_uses_few_colors() {
        let g = grid2d(10, 10);
        let c = greedy_d2(&g, Ordering::Natural);
        validate_d2(&c, &g).unwrap();
        // 5-point grid: distance-2 neighborhood has ≤ 12 vertices; a
        // periodic 5-coloring exists. Greedy stays well under Δ²+1 = 17.
        assert!(c.num_colors() <= 9, "{} colors", c.num_colors());
        assert!(c.num_colors() >= 5);
    }

    #[test]
    fn star_needs_n_colors_at_distance_2() {
        // All leaves are pairwise at distance 2 through the hub.
        let g = star(8);
        let c = greedy_d2(&g, Ordering::Natural);
        validate_d2(&c, &g).unwrap();
        assert_eq!(c.num_colors(), 8);
    }

    #[test]
    fn complete_graph_d2_equals_d1() {
        let g = complete(6);
        let c = greedy_d2(&g, Ordering::LargestFirst);
        validate_d2(&c, &g).unwrap();
        assert_eq!(c.num_colors(), 6);
    }

    #[test]
    fn cycle_d2() {
        let g = cycle(9);
        let c = greedy_d2(&g, Ordering::Natural);
        validate_d2(&c, &g).unwrap();
        assert!(c.num_colors() >= 3);
        assert!(c.num_colors() <= 5);
    }

    #[test]
    fn every_ordering_is_valid_and_bounded() {
        let g = erdos_renyi(60, 180, 3);
        let bound = g.max_degree() * g.max_degree() + 1;
        for order in [Ordering::Natural, Ordering::LargestFirst] {
            let c = greedy_d2(&g, order);
            validate_d2(&c, &g).unwrap();
            assert!(c.num_colors() <= bound);
        }
    }

    #[test]
    fn validator_catches_d2_conflicts() {
        // Path 0-1-2: distance-2 pair (0, 2).
        let g = cmg_graph::generators::path(3);
        let bad = Coloring::from_colors(vec![0, 1, 0]);
        assert!(validate_d2(&bad, &g).is_err());
        let good = Coloring::from_colors(vec![0, 1, 2]);
        validate_d2(&good, &g).unwrap();
    }

    #[test]
    fn d2_coloring_is_also_a_d1_coloring() {
        let g = erdos_renyi(40, 120, 9);
        let c = greedy_d2(&g, Ordering::Natural);
        c.validate(&g).unwrap(); // d1 validity is implied
    }
}
