//! The one edge order every matching route keeps.
//!
//! Edges rank heavier first, then by the smaller endpoint id, then by the
//! larger (the paper's smallest-label tie-break). Under a total order the
//! locally dominant matching is unique, so five routes must give the same
//! mate vector even where weights tie: the frontier kernel's cold pass, a
//! warm repair after a random batch stream, `seq::greedy`,
//! `seq::local_dominant`, and `DistMatching` on the simulator (hash
//! partition, p = 3). Ties are the point: the graphs carry small integer,
//! equal and degree-sum weights, and the batches draw from the same few
//! values.

use cmg_graph::generators::{erdos_renyi, grid2d};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, MutableGraph, MutationBatch, VertexId, Weight, NO_VERTEX};
use cmg_matching::{assemble_matching, seq, DistMatching, MatchFrontier};
use cmg_partition::simple::hash_partition;
use cmg_partition::DistGraph;
use cmg_runtime::{EngineConfig, SimEngine};

/// The frontier kernel with every vertex on the frontier.
fn cold(g: &CsrGraph) -> Vec<VertexId> {
    let mut mate = vec![NO_VERTEX; g.num_vertices()];
    MatchFrontier::new(g.num_vertices()).cold(g, &mut mate);
    mate
}

fn distributed(g: &CsrGraph) -> Vec<VertexId> {
    let part = hash_partition(g.num_vertices(), 3, 0);
    let programs: Vec<DistMatching> = DistGraph::build_all(g, &part)
        .into_iter()
        .map(DistMatching::new)
        .collect();
    let result = SimEngine::new(programs, EngineConfig::default()).run();
    assemble_matching(&result.programs, g.num_vertices())
        .mates()
        .to_vec()
}

/// Four batches of 1–4 inserts, deletes and reweights whose weights come
/// from `pick`, absorbed in place by the frontier kernel; returns the
/// final graph and the warm mate vector, checked against a cold pass
/// after every batch.
fn warm_stream(
    g0: &CsrGraph,
    seed: u64,
    pick: impl Fn(u64) -> Weight,
    ctx: &str,
) -> (CsrGraph, Vec<VertexId>) {
    let n = g0.num_vertices();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut mg = MutableGraph::from_csr(g0);
    let mut mate = cold(g0);
    let mut frontier = MatchFrontier::new(n);
    for step in 0..4 {
        let mut batch = MutationBatch::new();
        for _ in 0..1 + rng() % 4 {
            let u = (rng() % n as u64) as VertexId;
            let v = (rng() % n as u64) as VertexId;
            if u == v {
                continue;
            }
            match rng() % 3 {
                0 => batch.insert(u, v, pick(rng())),
                1 => batch.delete(u, v),
                _ => batch.reweight(u, v, pick(rng())),
            };
        }
        mg.apply(&batch).unwrap();
        frontier.invalidate(&mg, &mut mate, &batch);
        frontier.repair(&mg, &mut mate);
        assert_eq!(mate, cold(&mg.rebuild()), "{ctx} step {step}: warm != cold");
    }
    (mg.rebuild(), mate)
}

/// Draws a batch weight from a random word.
type Pick = fn(u64) -> Weight;

#[test]
fn every_route_keeps_the_tie_order() {
    let schemes: [(WeightScheme, Pick); 3] = [
        (WeightScheme::Integer { max: 3 }, |r| (1 + r % 3) as Weight),
        (WeightScheme::Equal(1.0), |_| 1.0),
        (WeightScheme::DegreeSum, |r| (2 + r % 9) as Weight),
    ];
    let mut cases = 0;
    for seed in 0..100u64 {
        for (shape, base) in [("er", erdos_renyi(60, 150, seed)), ("grid", grid2d(7, 9))] {
            for (scheme, pick) in schemes {
                let ctx = format!("{shape} {scheme:?} seed {seed}");
                let g0 = assign_weights(&base, scheme, seed);
                let (g, warm) = warm_stream(&g0, seed, pick, &ctx);
                let cold = cold(&g);
                assert_eq!(warm, cold, "{ctx}: warm repair != cold pass");
                assert_eq!(seq::greedy(&g).mates(), cold, "{ctx}: greedy");
                assert_eq!(
                    seq::local_dominant(&g).mates(),
                    cold,
                    "{ctx}: local_dominant"
                );
                assert_eq!(distributed(&g), cold, "{ctx}: DistMatching p=3");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 600);
}
