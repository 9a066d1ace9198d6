//! Cross-engine equivalence including the multi-process net engine:
//! `SimEngine` ≡ `ThreadedEngine` ≡ net engine on matching and coloring
//! results, across several graphs × partition methods × rank counts,
//! with the net engine's merged `RankStats` passing conservation.
//!
//! Under the synchronous bundled configuration (every engine's default)
//! the three engines execute the identical round protocol, so results —
//! and every rank's packet/message/byte counters — must agree bit for
//! bit.

use cmg::prelude::*;
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_partition::simple::{block_partition, hash_partition};

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "grid16",
            assign_weights(
                &generators::grid2d(16, 16),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                3,
            ),
        ),
        (
            "circuit",
            assign_weights(
                &generators::circuit_like(300, 11),
                WeightScheme::Integer { max: 50 },
                11,
            ),
        ),
        (
            "erdos",
            assign_weights(
                &generators::erdos_renyi(256, 1024, 5),
                WeightScheme::Uniform { lo: 1.0, hi: 2.0 },
                5,
            ),
        ),
    ]
}

fn partitions(n: usize, ranks: u32) -> Vec<(&'static str, Partition)> {
    vec![
        ("block", block_partition(n, ranks)),
        ("hash", hash_partition(n, ranks, 42)),
    ]
}

/// Each rank's traffic counters, sent and received (`rounds_active` and
/// virtual time legitimately differ: only the sim skips quiet ranks and
/// only the sim has a virtual clock).
fn per_rank_traffic(stats: &RunStats) -> Vec<[u64; 6]> {
    let row = |r: &cmg_runtime::RankStats| {
        [
            r.packets_sent,
            r.messages_sent,
            r.bytes_sent,
            r.packets_received,
            r.messages_received,
            r.bytes_received,
        ]
    };
    stats.per_rank.iter().map(row).collect()
}

#[test]
fn matching_identical_across_all_three_engines() {
    for (gname, g) in &graphs() {
        for ranks in [2u32, 4, 8] {
            for (pname, part) in &partitions(g.num_vertices(), ranks) {
                let ctx = format!("{gname}/{pname}/p={ranks}");
                let sim = cmg::run_matching(g, part, &Engine::default_simulated());
                let thr = cmg::run_matching(g, part, &Engine::default_threaded());
                let net = cmg::run_matching(g, part, &Engine::default_net());
                sim.matching.validate(g).unwrap();
                assert_eq!(sim.matching, thr.matching, "sim vs threaded: {ctx}");
                assert_eq!(sim.matching, net.matching, "sim vs net: {ctx}");
                // Every engine sums the ranks' own weights in rank order.
                for run in [&thr, &net] {
                    assert_eq!(run.weight.to_bits(), sim.weight.to_bits(), "weight: {ctx}");
                }
                net.stats.assert_conservation();
                assert_eq!(net.stats.per_rank.len(), ranks as usize, "{ctx}");
                assert_eq!(
                    sim.stats.total_messages(),
                    net.stats.total_messages(),
                    "protocol message totals: {ctx}"
                );
                assert_eq!(
                    sim.stats.total_bytes(),
                    net.stats.total_bytes(),
                    "protocol byte totals: {ctx}"
                );
                assert_eq!(sim.stats.rounds, net.stats.rounds, "round counts: {ctx}");
                for (engine, stats) in [("threaded", &thr.stats), ("net", &net.stats)] {
                    assert_eq!(
                        per_rank_traffic(stats),
                        per_rank_traffic(&sim.stats),
                        "per-rank traffic, {engine} vs sim: {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn coloring_identical_across_all_three_engines() {
    for (gname, g) in &graphs() {
        let g = g.unweighted();
        for ranks in [2u32, 4, 8] {
            for (pname, part) in &partitions(g.num_vertices(), ranks) {
                let ctx = format!("{gname}/{pname}/p={ranks}");
                let cfg = ColoringConfig::default();
                let sim = cmg::run_coloring(&g, part, cfg, &Engine::default_simulated());
                let thr = cmg::run_coloring(&g, part, cfg, &Engine::default_threaded());
                let net = cmg::run_coloring(&g, part, cfg, &Engine::default_net());
                sim.coloring.validate(&g).unwrap();
                assert_eq!(sim.coloring, thr.coloring, "sim vs threaded: {ctx}");
                assert_eq!(sim.coloring, net.coloring, "sim vs net: {ctx}");
                let phases = [thr.phases, net.phases];
                assert_eq!(phases, [sim.phases; 2], "phase counts: {ctx}");
                let conflicts = [sim.conflicts, thr.conflicts, net.conflicts];
                assert_eq!(conflicts, [0; 3], "conflicts: {ctx}");
                net.stats.assert_conservation();
                assert_eq!(
                    sim.stats.total_messages(),
                    net.stats.total_messages(),
                    "protocol message totals: {ctx}"
                );
                assert_eq!(sim.stats.rounds, net.stats.rounds, "round counts: {ctx}");
                for (engine, stats) in [("threaded", &thr.stats), ("net", &net.stats)] {
                    assert_eq!(
                        per_rank_traffic(stats),
                        per_rank_traffic(&sim.stats),
                        "per-rank traffic, {engine} vs sim: {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn jones_plassmann_identical_on_net_engine() {
    let g = generators::grid2d(12, 12);
    let part = block_partition(g.num_vertices(), 4);
    let sim = cmg::run_jones_plassmann(&g, &part, 7, &Engine::default_simulated());
    let net = cmg::run_jones_plassmann(&g, &part, 7, &Engine::default_net());
    sim.coloring.validate(&g).unwrap();
    assert_eq!(sim.coloring, net.coloring);
    assert_eq!((sim.phases, sim.conflicts), (net.phases, net.conflicts));
    assert_eq!(sim.conflicts, 0);
    net.stats.assert_conservation();
}
