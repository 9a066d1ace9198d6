//! `multilevel_partition` on arbitrary small graphs — sparse ones with
//! isolated vertices and several components, `k = 1`, `k` beyond the
//! vertex count, weighted inputs — is total, deterministic, blind to edge
//! weights, and as balanced as its per-bisection tolerance promises.

use cmg_graph::{CsrGraph, GraphBuilder};
use cmg_partition::multilevel_partition;
use proptest::prelude::*;

/// Up to 200 vertices (enough for two or three contraction levels) and up
/// to three weighted edge samples per vertex, self-loops and repeats
/// included for the builder to drop.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..=200).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.01f64..1.0f64);
        proptest::collection::vec(edge, 0..=3 * n).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w);
            }
            b.build()
        })
    })
}

/// The largest part recursive bisection can leave of `n` unit vertices: a
/// bisection ends within `max(1.5 % of its weight, half a vertex)` of its
/// target (`rebalance` stops there, the passes after it never move away),
/// and the bound compounds down the recursion.
fn max_part(n: usize, k: u32) -> usize {
    if k == 1 {
        return n;
    }
    let k0 = k / 2;
    let target0 = f64::from(k0) / f64::from(k) * n as f64;
    let slack = (0.015 * n as f64).max(0.5) + 1e-9;
    let most0 = ((target0 + slack).floor() as usize).min(n);
    let most1 = ((n as f64 - target0 + slack).floor() as usize).min(n);
    max_part(most0, k0).max(max_part(most1, k - k0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn total_deterministic_weight_blind_and_balanced(
        g in arb_graph(),
        which_k in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let n = g.num_vertices();
        let k = [1, 2, 3, 5, 8, 33, n as u32 + 1, 2 * n as u32 + 3][which_k];
        let p = multilevel_partition(&g, k, seed);
        prop_assert_eq!(p.num_vertices(), n);
        prop_assert_eq!(p.num_parts(), k);
        prop_assert!(p.assignment().iter().all(|&a| a < k));
        prop_assert_eq!(&multilevel_partition(&g, k, seed), &p);
        prop_assert_eq!(&multilevel_partition(&g.unweighted(), k, seed), &p);
        let largest = p.part_sizes().into_iter().max().unwrap_or(0);
        prop_assert!(largest <= max_part(n, k), "{} > {}", largest, max_part(n, k));
    }
}
