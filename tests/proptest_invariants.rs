//! Property-based tests over random graphs, weights and partitions:
//! the core invariants of every subsystem under arbitrary inputs.

use cmg::prelude::*;
use cmg_graph::generators;
use cmg_graph::{CsrGraph, GraphBuilder};
use cmg_matching::{exact, seq};
use cmg_partition::Partition;
use proptest::prelude::*;

/// Strategy: a random weighted graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 0.01f64..1.0f64);
        proptest::collection::vec(edge, 0..=max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w);
            }
            b.build()
        })
    })
}

/// Strategy: a partition of `n` vertices into `k` parts.
fn arb_partition(n: usize) -> impl Strategy<Value = Partition> {
    (1u32..=6).prop_flat_map(move |k| {
        proptest::collection::vec(0..k, n).prop_map(move |a| Partition::new(a, k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Builder always produces structurally valid graphs.
    #[test]
    fn builder_invariants(g in arb_graph(30, 120)) {
        prop_assert!(g.validate().is_ok());
    }

    /// All sequential matchers: valid, maximal, ≥ ½ of the brute-force
    /// optimum, ≤ the optimum.
    #[test]
    fn sequential_matching_invariants(g in arb_graph(14, 40)) {
        let opt = exact::brute_force_weight(&g);
        for alg in [seq::greedy, seq::local_dominant, seq::path_growing, seq::suitor] {
            let m = alg(&g);
            prop_assert!(m.validate(&g).is_ok());
            prop_assert!(m.is_maximal(&g));
            let w = m.weight(&g);
            prop_assert!(w >= 0.5 * opt - 1e-9);
            prop_assert!(w <= opt + 1e-9);
        }
    }

    /// Distributed matching equals sequential locally-dominant under any
    /// partition, and greedy and suitor return that same matching edge
    /// for edge (weights are continuous, hence a.s. distinct, so all four
    /// pick the greedy matching of one total order).
    #[test]
    fn distributed_matching_equals_sequential(
        g in arb_graph(24, 80),
        seed in 0u64..1000,
    ) {
        let part_strategy_n = g.num_vertices();
        // Derive a partition deterministically from the seed.
        let k = 1 + (seed % 5) as u32;
        let assignment = (0..part_strategy_n)
            .map(|v| (cmg_graph::util::splitmix64(v as u64 ^ seed) % k as u64) as u32)
            .collect();
        let part = Partition::new(assignment, k);
        let run = cmg::run_matching(&g, &part, &Engine::default_simulated());
        let local_dominant = seq::local_dominant(&g);
        prop_assert_eq!(&seq::greedy(&g), &local_dominant);
        prop_assert_eq!(&seq::suitor(&g), &local_dominant);
        prop_assert_eq!(run.matching, local_dominant);
    }

    /// Distributed coloring is proper under any partition.
    #[test]
    fn distributed_coloring_is_proper(
        g in arb_graph(24, 80),
        part_seed in 0u64..1000,
        s in 1usize..8,
    ) {
        let k = 1 + (part_seed % 5) as u32;
        let assignment = (0..g.num_vertices())
            .map(|v| (cmg_graph::util::splitmix64(v as u64 ^ part_seed) % k as u64) as u32)
            .collect();
        let part = Partition::new(assignment, k);
        let cfg = ColoringConfig { superstep_size: s, ..Default::default() };
        let run = cmg::run_coloring(&g, &part, cfg, &Engine::default_simulated());
        prop_assert!(run.coloring.validate(&g).is_ok());
        prop_assert!(run.coloring.num_colors() <= g.max_degree() + 1);
    }

    /// Partition quality metrics are internally consistent.
    #[test]
    fn partition_quality_consistent(
        (g, part) in arb_graph(30, 100).prop_flat_map(|g| {
            let n = g.num_vertices();
            arb_partition(n).prop_map(move |p| (g.clone(), p))
        })
    ) {
        let q = part.quality(&g);
        prop_assert!(q.edge_cut <= g.num_edges());
        prop_assert!(q.boundary_vertices <= g.num_vertices());
        prop_assert!(q.imbalance >= 1.0 - 1e-9);
        if part.num_parts() == 1 {
            prop_assert_eq!(q.edge_cut, 0);
        }
    }

    /// Exact bipartite solver ≥ greedy and ≤ sum of all weights.
    #[test]
    fn exact_bipartite_bounds(nl in 1usize..8, nr in 1usize..8, seed in 0u64..500) {
        let bg = generators::random_bipartite(nl, nr, nl * 3, seed);
        let opt = exact::max_weight_bipartite(&bg);
        let g = bg.to_general();
        let greedy_w = seq::greedy(&g).weight(&g);
        let total: f64 = bg.edges().map(|(_, _, w)| w).sum();
        prop_assert!(opt.weight >= greedy_w - 1e-9);
        prop_assert!(opt.weight <= total + 1e-9);
        // Extracted pairs form a matching of exactly that weight.
        let m = opt.to_general_matching(nl, nr);
        prop_assert!(m.validate(&g).is_ok());
        prop_assert!((m.weight(&g) - opt.weight).abs() < 1e-9);
    }

    /// Greedy distance-2 coloring is valid and within Δ²+1 for arbitrary
    /// graphs.
    #[test]
    fn greedy_d2_invariants(g in arb_graph(24, 70)) {
        use cmg_coloring::distance2::{greedy_d2, validate_d2};
        let c = greedy_d2(&g, cmg_coloring::seq::Ordering::Natural);
        prop_assert!(validate_d2(&c, &g).is_ok());
        let d = g.max_degree();
        prop_assert!(c.num_colors() <= d * d + 1);
    }

    /// Distributed distance-2 coloring is valid under arbitrary partitions.
    #[test]
    fn distributed_d2_is_valid(
        g in arb_graph(18, 50),
        part_seed in 0u64..500,
    ) {
        use cmg_coloring::{assemble_coloring, DistColoring, Distance2};
        use cmg_coloring::distance2::validate_d2;
        let k = 1 + (part_seed % 4) as u32;
        let assignment = (0..g.num_vertices())
            .map(|v| (cmg_graph::util::splitmix64(v as u64 ^ part_seed) % k as u64) as u32)
            .collect();
        let part = Partition::new(assignment, k);
        let parts = cmg_partition::DistGraph::build_all(&g, &part);
        let programs: Vec<DistColoring<Distance2>> = parts
            .into_iter()
            .map(|dg| DistColoring::distance2(dg, 4, 1))
            .collect();
        let result = cmg_runtime::SimEngine::new(
            programs,
            cmg_runtime::EngineConfig::default(),
        )
        .run();
        prop_assert!(!result.hit_round_cap);
        let c = assemble_coloring(&result.programs, g.num_vertices());
        prop_assert!(validate_d2(&c, &g).is_ok());
    }

    /// Suitor is b-suitor at b = 1, the one capacity the crate keeps: it
    /// gives each vertex at most one mate over a real edge, leaves no edge
    /// with both ends free, and returns the greedy matching.
    #[test]
    fn b_suitor_invariants(g in arb_graph(20, 60)) {
        let m = seq::suitor(&g);
        prop_assert!(m.validate(&g).is_ok());
        prop_assert!(m.is_maximal(&g));
        prop_assert_eq!(m, seq::greedy(&g));
    }

    /// Greedy coloring is proper and within Δ+1 for arbitrary graphs and
    /// all orderings.
    #[test]
    fn greedy_coloring_invariants(g in arb_graph(30, 120), order_idx in 0usize..2) {
        use cmg_coloring::seq::{greedy, Ordering};
        let order = [Ordering::Natural, Ordering::LargestFirst][order_idx];
        let c = greedy(&g, order);
        prop_assert!(c.validate(&g).is_ok());
        prop_assert!(c.num_colors() <= g.max_degree() + 1);
    }

    /// Serve's cold colouring pass is greedy first-fit in natural order,
    /// bit for bit, on the packed graph and on the mutable rows alike,
    /// whatever the colour slice held before.
    #[test]
    fn cold_first_fit_equals_greedy_natural(
        kind in 0usize..3,
        size in 2usize..40,
        seed in 0u64..1000,
    ) {
        use cmg_coloring::seq::{greedy, Ordering};
        use cmg_coloring::ColorFrontier;
        let g = match kind {
            0 => generators::grid2d(size, 1 + size / 2),
            1 => generators::erdos_renyi(size * 3, size * 8, seed),
            _ => generators::rmat(4 + (size % 6) as u32, 8, (0.57, 0.19, 0.19, 0.05), seed),
        };
        let expected = greedy(&g, Ordering::Natural);
        let stale: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut frontier = ColorFrontier::default();
        let mut colors = stale.clone();
        frontier.cold(&g, &mut colors);
        prop_assert_eq!(&colors[..], expected.colors());
        let mut colors = stale;
        frontier.cold(&cmg_graph::MutableGraph::from_csr(&g), &mut colors);
        prop_assert_eq!(&colors[..], expected.colors());
    }
}
