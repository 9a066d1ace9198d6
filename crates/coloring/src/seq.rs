//! Sequential greedy coloring in natural or largest-first order, plus
//! lower bounds for judging solution quality. (Random, smallest-last,
//! incidence-degree and DSATUR orders were only ever selected by tests;
//! EXPERIMENTS.md records their colour counts.)
//!
//! §1 of the paper: "a greedy algorithm, which runs in linear time … and
//! uses at most Δ + 1 colors, often yields near-optimal solution for
//! graphs that arise in practice when good vertex ordering techniques are
//! employed."

use crate::coloring::{Coloring, UNCOLORED};
use cmg_graph::{CsrGraph, VertexId};

/// Vertex-ordering strategies for greedy coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Vertices in id order.
    Natural,
    /// Decreasing degree (Welsh–Powell).
    LargestFirst,
}

/// Greedy first-fit coloring of `g` under `order`.
pub fn greedy(g: &CsrGraph, order: Ordering) -> Coloring {
    greedy_in_order(g, &vertex_order(g, order))
}

/// The vertex sequence of an ordering.
pub(crate) fn vertex_order(g: &CsrGraph, order: Ordering) -> Vec<VertexId> {
    let mut seq: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    if order == Ordering::LargestFirst {
        seq.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    }
    seq
}

/// Greedy first-fit coloring following an explicit vertex sequence.
fn greedy_in_order(g: &CsrGraph, seq: &[VertexId]) -> Coloring {
    let mut coloring = Coloring::uncolored(g.num_vertices());
    let mut first_fit = FirstFit::default();
    for &v in seq {
        for &u in g.neighbors(v) {
            first_fit.take(coloring.color(u));
        }
        coloring.set(v, first_fit.pick());
    }
    coloring
}

/// First-fit's colour choice, the one picker every colouring program
/// uses (sequential distance 1 and 2, serve's cold and repair passes,
/// the speculative programs and Jones–Plassmann): each colour keeps the
/// stamp of the last vertex whose neighbourhood held it, so a pick
/// clears nothing. The stamps grow to the largest colour taken and
/// allocate nothing after.
#[derive(Clone, Debug, Default)]
pub(crate) struct FirstFit {
    seen: Vec<u64>,
    stamp: u64,
}

impl FirstFit {
    /// Marks colour `c` as held by a neighbour of the vertex being
    /// coloured ([`UNCOLORED`] holds nothing).
    pub(crate) fn take(&mut self, c: u32) {
        if c != UNCOLORED {
            if c as usize >= self.seen.len() {
                self.seen.resize(c as usize + 1, u64::MAX);
            }
            self.seen[c as usize] = self.stamp;
        }
    }

    /// The smallest colour not taken since the last pick.
    pub(crate) fn pick(&mut self) -> u32 {
        let c = self.seen.iter().take_while(|&&s| s == self.stamp).count();
        self.stamp += 1;
        c as u32
    }

    /// The `k`-th smallest colour (counting from 0) not taken since the
    /// last pick: distance-2's backoff window, which `pick` is at `k` = 0.
    pub(crate) fn pick_nth(&mut self, k: u64) -> u32 {
        let (mut c, mut free) = (0u32, 0u64);
        loop {
            if self.seen.get(c as usize) != Some(&self.stamp) {
                if free == k {
                    break;
                }
                free += 1;
            }
            c += 1;
        }
        self.stamp += 1;
        c
    }
}

/// Smallest-last (degeneracy) order: repeatedly remove a minimum-degree
/// vertex; returns the *coloring* order (reverse removal order).
fn smallest_last_order(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    // Bucket queue over degrees.
    let maxd = g.max_degree();
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); maxd + 1];
    for v in 0..n as VertexId {
        buckets[deg[v as usize]].push(v);
    }
    let mut removal = Vec::with_capacity(n);
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the non-empty bucket with smallest degree (entries may be
        // stale; skip those).
        let v = loop {
            while cur <= maxd && buckets[cur].is_empty() {
                cur += 1;
            }
            let Some(&cand) = buckets[cur].last() else {
                cur += 1;
                continue;
            };
            if removed[cand as usize] || deg[cand as usize] != cur {
                buckets[cur].pop();
                continue;
            }
            buckets[cur].pop();
            break cand;
        };
        removed[v as usize] = true;
        removal.push(v);
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                deg[u as usize] -= 1;
                buckets[deg[u as usize]].push(u);
                cur = cur.min(deg[u as usize]);
            }
        }
    }
    removal.reverse();
    removal
}

/// Degeneracy of `g` (max over the smallest-last removal of the degree at
/// removal time). `degeneracy + 1` upper-bounds the smallest-last greedy
/// color count and lower-bounds nothing — but `clique ≥` arguments use it.
pub fn degeneracy(g: &CsrGraph) -> usize {
    let order = smallest_last_order(g); // coloring order (reverse removal)
                                        // Recompute: degeneracy = max back-degree in the coloring order.
    let n = g.num_vertices();
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    let mut k = 0usize;
    for (i, &v) in order.iter().enumerate() {
        let back = g
            .neighbors(v)
            .iter()
            .filter(|&&u| pos[u as usize] < i)
            .count();
        k = k.max(back);
    }
    k
}

/// Greedy clique lower bound: grow a clique from each of the `tries`
/// highest-degree vertices; the best clique size lower-bounds the
/// chromatic number (§1: "the near optimality of the solutions can be
/// verified by computing appropriate lower bounds").
pub fn clique_lower_bound(g: &CsrGraph, tries: usize) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut best = if g.num_edges() > 0 { 1 } else { 0 };
    for &start in by_degree.iter().take(tries) {
        let mut clique = vec![start];
        // Candidates: neighbors of start, highest degree first.
        let mut cands: Vec<VertexId> = g.neighbors(start).to_vec();
        cands.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        for v in cands {
            if clique.iter().all(|&c| g.has_edge(v, c)) {
                clique.push(v);
            }
        }
        best = best.max(clique.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::{complete, cycle, erdos_renyi, grid2d, star};

    const ALL: [Ordering; 2] = [Ordering::Natural, Ordering::LargestFirst];

    #[test]
    fn all_orderings_produce_valid_colorings() {
        let g = erdos_renyi(60, 200, 3);
        for order in ALL {
            let c = greedy(&g, order);
            c.validate(&g).unwrap_or_else(|e| panic!("{order:?}: {e}"));
            assert!(
                c.num_colors() <= g.max_degree() + 1,
                "{order:?}: {} colors > Δ+1",
                c.num_colors()
            );
        }
    }

    #[test]
    fn grid_is_two_colorable_by_good_orders() {
        // A 5-point grid is bipartite; natural order achieves 2 colors.
        let g = grid2d(8, 8);
        let c = greedy(&g, Ordering::Natural);
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = complete(6);
        for order in ALL {
            assert_eq!(greedy(&g, order).num_colors(), 6, "{order:?}");
        }
        assert_eq!(clique_lower_bound(&g, 2), 6);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let g = cycle(7);
        for order in ALL {
            let c = greedy(&g, order);
            c.validate(&g).unwrap();
            assert!(c.num_colors() >= 3, "{order:?}");
        }
    }

    #[test]
    fn star_colored_with_two() {
        let g = star(10);
        for order in ALL {
            assert_eq!(greedy(&g, order).num_colors(), 2, "{order:?}");
        }
    }

    #[test]
    fn pick_nth_skips_free_colours() {
        let mut first_fit = FirstFit::default();
        for k in 0..3 {
            for c in [0, 2, 3, UNCOLORED] {
                first_fit.take(c);
            }
            assert_eq!(first_fit.pick_nth(k), [1, 4, 5][k as usize], "k = {k}");
        }
        // The window forgets its picks like `pick` does.
        assert_eq!(first_fit.pick_nth(2), 2);
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy(&grid2d(6, 6)), 2);
        assert_eq!(degeneracy(&complete(5)), 4);
        assert_eq!(degeneracy(&star(8)), 1);
        assert_eq!(degeneracy(&cycle(9)), 2);
    }

    #[test]
    fn smallest_last_respects_degeneracy_bound() {
        let g = erdos_renyi(80, 320, 9);
        let c = greedy_in_order(&g, &smallest_last_order(&g));
        c.validate(&g).unwrap();
        assert!(c.num_colors() <= degeneracy(&g) + 1);
    }

    #[test]
    fn clique_bound_sane_on_random_graph() {
        let g = erdos_renyi(50, 200, 4);
        let lb = clique_lower_bound(&g, 8);
        let ub = greedy(&g, Ordering::LargestFirst).num_colors();
        assert!(lb >= 2);
        assert!(lb <= ub, "clique {lb} > colors {ub}");
    }

    #[test]
    fn empty_graph_handled() {
        let g = CsrGraph::empty(4);
        for order in ALL {
            let c = greedy(&g, order);
            assert_eq!(c.num_colors(), 1); // every vertex gets color 0
            c.validate(&g).unwrap();
        }
        assert_eq!(degeneracy(&g), 0);
    }

    #[test]
    fn zero_vertices() {
        let g = CsrGraph::empty(0);
        assert_eq!(greedy(&g, Ordering::Natural).num_colors(), 0);
        assert_eq!(clique_lower_bound(&g, 3), 0);
    }
}
