//! Deterministic synthetic graph generators.
//!
//! These supply the paper's workloads: 5-point grid graphs for the weak and
//! strong scalability studies (§5.1: "model problems for partial
//! differential equations"), circuit-simulation-like graphs standing in for
//! the UF `G3_circuit` matrix, and the auxiliary families (Erdős–Rényi,
//! RMAT, bipartite) used for quality evaluation and testing.

use crate::{BipartiteGraph, CsrGraph, GraphBuilder, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `rows × cols` 5-point grid graph: vertex `(i, j)` (row-major id
/// `i * cols + j`) connects to its east/west/north/south neighbors.
///
/// `|V| = rows·cols`, `|E| = rows·(cols−1) + cols·(rows−1)`.
pub fn grid2d(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let m = rows * cols.saturating_sub(1) + cols * rows.saturating_sub(1);
    let mut b = GraphBuilder::with_capacity(n, m);
    for i in 0..rows {
        for j in 0..cols {
            let v = (i * cols + j) as VertexId;
            if j + 1 < cols {
                b.add_edge_unweighted(v, v + 1);
            }
            if i + 1 < rows {
                b.add_edge_unweighted(v, v + cols as VertexId);
            }
        }
    }
    b.build()
}

/// A `nx × ny × nz` 7-point grid graph (3-D analogue of [`grid2d`]).
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> CsrGraph {
    let n = nx * ny * nz;
    let mut b = GraphBuilder::new(n);
    let id = |x: usize, y: usize, z: usize| (x + nx * (y + ny * z)) as VertexId;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = id(x, y, z);
                if x + 1 < nx {
                    b.add_edge_unweighted(v, id(x + 1, y, z));
                }
                if y + 1 < ny {
                    b.add_edge_unweighted(v, id(x, y + 1, z));
                }
                if z + 1 < nz {
                    b.add_edge_unweighted(v, id(x, y, z + 1));
                }
            }
        }
    }
    b.build()
}

/// Path graph on `n` vertices.
pub fn path(n: usize) -> CsrGraph {
    grid2d(1, n)
}

/// Cycle graph on `n` vertices (`n >= 3`; smaller `n` degenerates to a
/// path).
pub fn cycle(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n.saturating_sub(1) {
        b.add_edge_unweighted(v as VertexId, v as VertexId + 1);
    }
    if n >= 3 {
        b.add_edge_unweighted(n as VertexId - 1, 0);
    }
    b.build()
}

/// Star graph: vertex 0 connected to all others.
pub fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge_unweighted(0, v as VertexId);
    }
    b.build()
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge_unweighted(u as VertexId, v as VertexId);
        }
    }
    b.build()
}

/// Erdős–Rényi G(n, m): exactly up to `m` distinct random edges (fewer if
/// duplicates/self-loops are re-drawn past the retry budget on tiny graphs).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    if n < 2 {
        return b.build();
    }
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut seen = crate::util::FxHashSet::default();
    let mut attempts = 0usize;
    while seen.len() < target && attempts < 20 * target + 100 {
        attempts += 1;
        let u = rng.random_range(0..n) as VertexId;
        let v = rng.random_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v {
            (u as u64) << 32 | v as u64
        } else {
            (v as u64) << 32 | u as u64
        };
        if seen.insert(key) {
            b.add_edge_unweighted(u, v);
        }
    }
    b.build()
}

/// Recursive-matrix (R-MAT) graph: `2^scale` vertices, `edge_factor ·
/// 2^scale` edge samples with quadrant probabilities `(a, b, c, d)`.
/// Duplicate samples collapse, so the realized edge count is lower — the
/// usual R-MAT behavior. Produces the skewed degree distributions that
/// stress the boundary-heavy code paths.
pub fn rmat(scale: u32, edge_factor: usize, probs: (f64, f64, f64, f64), seed: u64) -> CsrGraph {
    let (a, b_, c, _d) = probs;
    assert!(
        a + b_ + c <= 1.0 + 1e-9,
        "R-MAT probabilities must sum to <= 1"
    );
    let n = 1usize << scale;
    let samples = edge_factor * n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, samples);
    for _ in 0..samples {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.random();
            if r < a {
                // top-left: no bits set
            } else if r < a + b_ {
                v |= 1;
            } else if r < a + b_ + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            builder.add_edge_unweighted(u as VertexId, v as VertexId);
        }
    }
    builder.build()
}

/// Circuit-simulation-like graph: a synthetic stand-in for the UF
/// `G3_circuit` matrix used in Figures 5.3/5.4 (1.57 M vertices, ~3 M
/// edges, degrees between 2 and 6, average ≈ 3.8).
///
/// Construction: a 2-D grid backbone (every vertex keeps degree ≥ 2, local
/// structure dominates, mirroring the mesh-like sparsity of discretized
/// circuits) plus a sprinkling of short-to-medium random "nets" that create
/// the irregularity, capped so no vertex exceeds degree 6.
pub fn circuit_like(n: usize, seed: u64) -> CsrGraph {
    let cols = (n as f64).sqrt().ceil() as usize;
    let cols = cols.max(1);
    let rows = n.div_ceil(cols);
    let total = rows * cols;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deg = vec![0u8; total];
    let mut b = GraphBuilder::with_capacity(total, 2 * total);
    // Grid backbone.
    for i in 0..rows {
        for j in 0..cols {
            let v = i * cols + j;
            if j + 1 < cols {
                b.add_edge_unweighted(v as VertexId, (v + 1) as VertexId);
                deg[v] += 1;
                deg[v + 1] += 1;
            }
            if i + 1 < rows {
                b.add_edge_unweighted(v as VertexId, (v + cols) as VertexId);
                deg[v] += 1;
                deg[v + cols] += 1;
            }
        }
    }
    // Random nets: mostly short-range, a few long-range, degree-capped at 6.
    let extra = total / 2;
    for _ in 0..extra {
        let u = rng.random_range(0..total);
        if deg[u] >= 6 {
            continue;
        }
        let v = if rng.random::<f64>() < 0.8 {
            // Short-range net within a local window.
            let span = (cols / 8).max(2);
            let off = rng.random_range(0..2 * span) as i64 - span as i64;
            let cand = u as i64 + off;
            if cand < 0 || cand as usize >= total {
                continue;
            }
            cand as usize
        } else {
            rng.random_range(0..total)
        };
        if v == u || deg[v] >= 6 {
            continue;
        }
        b.add_edge_unweighted(u as VertexId, v as VertexId);
        deg[u] += 1;
        deg[v] += 1;
    }
    b.build()
}

/// Random bipartite graph: `num_left × num_right`, `m` random edges with
/// uniform-random weights in `(0, 1)`. Every left vertex receives at least
/// one incident edge (so perfect-side matchings exist on square instances
/// with enough edges), mimicking the structural nonzero patterns of the
/// Table 1.1 matrices.
pub fn random_bipartite(num_left: usize, num_right: usize, m: usize, seed: u64) -> BipartiteGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m + num_left);
    if num_right > 0 {
        // Guarantee coverage of the left side (a matrix has no empty rows).
        for l in 0..num_left {
            let r = rng.random_range(0..num_right) as VertexId;
            edges.push((l as VertexId, r, rng.random::<Weight>()));
        }
        for _ in 0..m.saturating_sub(num_left) {
            let l = rng.random_range(0..num_left.max(1)) as VertexId;
            let r = rng.random_range(0..num_right) as VertexId;
            edges.push((l, r, rng.random::<Weight>()));
        }
    }
    BipartiteGraph::from_edges(num_left, num_right, edges)
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between every pair closer than `radius`. The model behind the paper's
/// wireless frequency-assignment application of coloring (§1, ref \[15\]).
///
/// Returns the graph and the point coordinates scaled to `0..=u16::MAX`
/// (ready for [`Morton partitioning`](https://en.wikipedia.org/wiki/Z-order_curve)).
/// Uses a uniform grid of cell size `radius` so construction is
/// `O(n + m)` expected.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> (CsrGraph, Vec<(u32, u32)>) {
    assert!(radius > 0.0 && radius <= 1.0, "radius must be in (0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    // Bucket points into cells of side `radius`.
    let cells = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in points.iter().enumerate() {
        buckets[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for (i, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in cy.saturating_sub(1)..(cy + 2).min(cells) {
            for dx in cx.saturating_sub(1)..(cx + 2).min(cells) {
                for &j in &buckets[dy * cells + dx] {
                    if (j as usize) > i {
                        let (px, py) = points[j as usize];
                        let (ddx, ddy) = (px - x, py - y);
                        if ddx * ddx + ddy * ddy <= r2 {
                            b.add_edge_unweighted(i as VertexId, j);
                        }
                    }
                }
            }
        }
    }
    let coords = points
        .iter()
        .map(|&(x, y)| ((x * u16::MAX as f64) as u32, (y * u16::MAX as f64) as u32))
        .collect();
    (b.build(), coords)
}

/// Diagonally-dominant square bipartite graph: every diagonal entry
/// `(l, l)` carries weight in `(dominance, dominance + 1)`, plus
/// `extra_per_row` random off-diagonal entries with weight in `(0, 1)`.
///
/// This is the weight structure of the Table 1.1 matrices (circuit and FEM
/// matrices are (nearly) diagonally dominant): the optimal matching is
/// (near-)diagonal, and the locally-dominant ½-approximation recovers it
/// almost exactly — the mechanism behind the paper's ≥ 99 % quality
/// ratios.
pub fn diag_dominant_bipartite(
    n: usize,
    extra_per_row: usize,
    dominance: Weight,
    seed: u64,
) -> BipartiteGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * (1 + extra_per_row));
    for l in 0..n {
        edges.push((
            l as VertexId,
            l as VertexId,
            dominance + rng.random::<Weight>(),
        ));
        for _ in 0..extra_per_row {
            let r = rng.random_range(0..n.max(1)) as VertexId;
            edges.push((l as VertexId, r, rng.random::<Weight>()));
        }
    }
    BipartiteGraph::from_edges(n, n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_counts() {
        let g = grid2d(3, 5);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 3 * 4 + 5 * 2);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(crate::GraphStats::of(&g).min_degree, 2);
        g.validate().unwrap();
    }

    #[test]
    fn grid2d_degenerate() {
        assert_eq!(grid2d(1, 1).num_edges(), 0);
        assert_eq!(grid2d(0, 0).num_vertices(), 0);
        let p = grid2d(1, 4);
        assert_eq!(p.num_edges(), 3);
    }

    #[test]
    fn grid3d_counts() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.num_vertices(), 27);
        // edges: 3 directions × (3-1)·3·3
        assert_eq!(g.num_edges(), 3 * 18);
        assert_eq!(g.max_degree(), 6); // the center vertex
        g.validate().unwrap();
    }

    #[test]
    fn cycle_and_star_and_complete() {
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(5).max_degree(), 2);
        assert_eq!(star(6).num_edges(), 5);
        assert_eq!(star(6).max_degree(), 5);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(crate::GraphStats::of(&complete(5)).min_degree, 4);
    }

    #[test]
    fn erdos_renyi_deterministic_and_bounded() {
        let g1 = erdos_renyi(100, 300, 42);
        let g2 = erdos_renyi(100, 300, 42);
        assert_eq!(g1, g2);
        assert_eq!(g1.num_edges(), 300);
        assert_ne!(g1, erdos_renyi(100, 300, 43));
        g1.validate().unwrap();
    }

    #[test]
    fn erdos_renyi_caps_at_complete() {
        let g = erdos_renyi(5, 1000, 1);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn rmat_basic() {
        let g = rmat(8, 8, (0.57, 0.19, 0.19, 0.05), 7);
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 256, "rmat too sparse: {}", g.num_edges());
        g.validate().unwrap();
        // Skew: max degree well above average.
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 2.0 * avg);
    }

    #[test]
    fn circuit_like_matches_published_stats() {
        let g = circuit_like(10_000, 3);
        assert!(g.num_vertices() >= 10_000);
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() <= 6, "max degree {}", g.max_degree());
        let min_degree = crate::GraphStats::of(&g).min_degree;
        assert!(min_degree >= 2, "min degree {min_degree}");
        assert!((3.0..5.0).contains(&avg), "avg degree {avg}");
        g.validate().unwrap();
    }

    #[test]
    fn random_geometric_respects_radius() {
        let (g, coords) = random_geometric(300, 0.1, 4);
        assert_eq!(g.num_vertices(), 300);
        assert_eq!(coords.len(), 300);
        g.validate().unwrap();
        // Every edge joins points within the radius (check via coords).
        let to_unit = |c: u32| c as f64 / u16::MAX as f64;
        for (u, v, _) in g.edges() {
            let (x1, y1) = coords[u as usize];
            let (x2, y2) = coords[v as usize];
            let dx = to_unit(x1) - to_unit(x2);
            let dy = to_unit(y1) - to_unit(y2);
            assert!(dx * dx + dy * dy <= 0.1 * 0.1 + 1e-6);
        }
        // Expected degree ≈ n·π·r² ≈ 9.4; allow a broad band.
        let avg = 2.0 * g.num_edges() as f64 / 300.0;
        assert!((4.0..16.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn random_geometric_is_deterministic() {
        let (g1, _) = random_geometric(100, 0.15, 7);
        let (g2, _) = random_geometric(100, 0.15, 7);
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_bipartite_covers_left() {
        let g = random_bipartite(50, 50, 200, 5);
        for l in 0..50 {
            assert!(!g.neighbors(l).is_empty(), "left vertex {l} uncovered");
        }
        assert!(g.num_edges() <= 250);
    }
}
