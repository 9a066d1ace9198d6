//! Schedule-adversarial serve repair: random mutation streams absorbed
//! by the resident state must stay correct after *every* batch, agree
//! with from-scratch on the final graph, and — on the distributed warm
//! path — be invariant to adversarial message delivery schedules.
//!
//! Four layers of assurance, and one timing gate (warm repair ≥ 10×
//! cheaper than a cold pass — the last test):
//!
//! 1. **Streamed oracles.** A [`ServeState`] absorbs a long random
//!    stream (inserts, deletes, reweights) and after each batch the
//!    served matching must pass validity + the ½-approx (local
//!    dominance) certificate and the served coloring must be proper —
//!    on the *current* graph, reconstructed independently by a mirror.
//! 2. **Repair ≡ from-scratch.** At the end of the stream the served
//!    matching must equal a cold [`ServeState`] built on the final
//!    graph, bit for bit (weights are distinct, so the locally dominant
//!    matching is unique). Runs at two thresholds so both the warm
//!    repair path and the recompute path carry real traffic.
//! 3. **Delivery adversaries.** The *distributed* warm path — every
//!    rank reseeded from the retained state, engine rerun over the
//!    frontier — must produce the identical matching under reordered,
//!    reversed, LIFO, delayed, and randomly permuted mailbox merges,
//!    and that matching must equal the sequential frontier kernel the
//!    serving layer runs in-process. Per-source FIFO is preserved by
//!    every policy (the MPI non-overtaking guarantee).
//! 4. **One kernel, three callers.** The in-place frontier kernels the
//!    service runs on its resident vectors, their functional wrappers,
//!    and a cold sequential run must agree after every batch of a random
//!    stream (matching: bit for bit; coloring: proper, clean colors
//!    stable) — including batches that name an edge twice — and a
//!    rejected batch or a batch that crosses the recompute threshold
//!    *after* invalidation already rewrote the resident vectors must
//!    leave the state as if it had not happened / oracle-clean.

use cmg_check::oracles::{half_approx_certificate, proper_coloring, valid_matching};
use cmg_coloring::{invalidate_colors, repair_frontier_colors, ColorFrontier, Coloring};
use cmg_graph::generators::erdos_renyi;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, MutableGraph, Mutation, MutationBatch, VertexId, NO_VERTEX};
use cmg_matching::dist::assemble_matching;
use cmg_matching::repair::{invalidate, repair_frontier};
use cmg_matching::{DistMatching, MatchFrontier, Matching};
use cmg_partition::simple::hash_partition;
use cmg_partition::DistGraph;
use cmg_runtime::{CostModel, DeliveryPolicy, EngineConfig, SimEngine, WarmStart};
use cmg_serve::{RepairMode, ServeConfig, ServeState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: u32 = 70;

fn base_graph(seed: u64) -> CsrGraph {
    assign_weights(
        &erdos_renyi(N as usize, 180, seed),
        WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
        seed,
    )
}

/// 1–4 random ops; weights are fresh 53-bit draws so they stay distinct
/// and the locally dominant matching stays unique.
fn random_batch(rng: &mut SmallRng) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for _ in 0..rng.random_range(1usize..5) {
        let u = rng.random_range(0u32..N);
        let v = rng.random_range(0u32..N);
        if u == v {
            continue;
        }
        match rng.random_range(0u32..3) {
            0 => batch.insert(u, v, rng.random::<f64>() + 0.1),
            1 => batch.delete(u, v),
            _ => batch.reweight(u, v, rng.random::<f64>() + 0.1),
        };
    }
    batch
}

fn check_oracles(g: &CsrGraph, mate: &[u32], colors: &[u32], ctx: &str) {
    let m = Matching::from_mates(mate.to_vec());
    valid_matching(g, &m).unwrap_or_else(|e| panic!("{ctx}: invalid matching: {e}"));
    half_approx_certificate(g, &m)
        .unwrap_or_else(|e| panic!("{ctx}: matching not locally dominant: {e}"));
    proper_coloring(g, &Coloring::from_colors(colors.to_vec()))
        .unwrap_or_else(|e| panic!("{ctx}: improper coloring: {e}"));
}

/// Streams 30 random batches through a resident state, checking the
/// oracles after every absorb and bit-identity with a cold run on the
/// final graph. `threshold` selects how much traffic falls through to
/// the recompute path.
fn stream_and_verify(seed: u64, threshold: f64) -> (u64, u64) {
    let g0 = base_graph(seed);
    let cfg = ServeConfig {
        recompute_threshold: threshold,
        ..Default::default()
    };
    let mut state = ServeState::new(&g0, cfg).expect("initial load");
    let mut mirror = MutableGraph::from_csr(&g0);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for step in 0..30 {
        let batch = random_batch(&mut rng);
        let report = state.apply(&batch).expect("valid batch absorbs");
        mirror.apply(&batch).expect("mirror applies");
        let g = mirror.rebuild();
        let (mate, colors) = (state.matching(), state.coloring());
        check_oracles(
            &g,
            mate.mates(),
            colors.colors(),
            &format!(
                "seed {seed} threshold {threshold} step {step} ({:?})",
                report.mode
            ),
        );
    }
    let cold = ServeState::new(&mirror.rebuild(), ServeConfig::default()).expect("cold run");
    assert_eq!(
        state.matching().mates(),
        cold.matching().mates(),
        "seed {seed} threshold {threshold}: streamed matching != from-scratch on final graph"
    );
    (state.repairs, state.recomputes)
}

#[test]
fn streamed_repairs_stay_correct_and_match_cold_runs() {
    let mut total_repairs = 0;
    for seed in 0..3u64 {
        let (r, _) = stream_and_verify(seed, 0.25);
        total_repairs += r;
    }
    assert!(
        total_repairs > 0,
        "threshold 0.25 exercised no warm repairs — the test lost its subject"
    );
}

#[test]
fn streamed_recomputes_stay_correct_and_match_cold_runs() {
    let mut total_recomputes = 0;
    for seed in 0..3u64 {
        // Threshold 0 forces every batch down the recompute path.
        let (_, rc) = stream_and_verify(seed, 0.0);
        total_recomputes += rc;
    }
    assert!(total_recomputes > 0, "threshold 0 exercised no recomputes");
}

#[test]
fn mixed_mode_streams_cross_the_threshold_both_ways() {
    // A mid threshold on a small graph: some batches repair, some
    // recompute, and correctness holds across every boundary crossing.
    let g0 = base_graph(9);
    let cfg = ServeConfig {
        recompute_threshold: 0.05,
        ..Default::default()
    };
    let mut state = ServeState::new(&g0, cfg).expect("initial load");
    let mut mirror = MutableGraph::from_csr(&g0);
    let mut rng = SmallRng::seed_from_u64(0xA5A5_5A5A);
    let (mut saw_repair, mut saw_recompute) = (false, false);
    for step in 0..40 {
        let batch = random_batch(&mut rng);
        let report = state.apply(&batch).expect("valid batch absorbs");
        match report.mode {
            RepairMode::Repair => saw_repair = true,
            RepairMode::Recompute => saw_recompute = true,
        }
        mirror.apply(&batch).expect("mirror applies");
        let (mate, colors) = (state.matching(), state.coloring());
        check_oracles(
            &mirror.rebuild(),
            mate.mates(),
            colors.colors(),
            &format!("step {step}"),
        );
    }
    assert!(
        saw_repair && saw_recompute,
        "stream crossed the threshold only one way (repair: {saw_repair}, recompute: {saw_recompute})"
    );
    let cold = ServeState::new(&mirror.rebuild(), ServeConfig::default()).expect("cold run");
    assert_eq!(state.matching().mates(), cold.matching().mates());
}

/// The distributed warm path under adversarial delivery schedules:
/// identical retained state, identical repaired matching, equal to the
/// sequential kernel — for every policy.
#[test]
fn distributed_warm_repair_is_delivery_schedule_invariant() {
    let g0 = base_graph(4);
    let mut mg = MutableGraph::from_csr(&g0);
    let mut mate: Vec<VertexId> = cmg_matching::seq::local_dominant(&g0).mates().to_vec();
    let mut rng = SmallRng::seed_from_u64(0xD3117E41);

    for step in 0..6 {
        let batch = random_batch(&mut rng);
        mg.apply(&batch).expect("valid batch");
        let retained = invalidate(&mg, &mate, &batch);
        // The serving layer's sequential answer...
        let sequential = repair_frontier(&mg, &retained);
        let g = mg.rebuild();

        // ...must be what every adversarially-scheduled distributed
        // warm run converges to.
        let mut policies = vec![
            DeliveryPolicy::Arrival,
            DeliveryPolicy::ReverseRank,
            DeliveryPolicy::Lifo,
            DeliveryPolicy::DelayRank { src: 1, rounds: 2 },
        ];
        for i in 0..6u64 {
            policies.push(DeliveryPolicy::RandomPermutation {
                seed: 0xBEEF ^ (i << 8) ^ step,
            });
        }
        for policy in policies {
            let p = hash_partition(g.num_vertices(), 3, 7);
            let programs: Vec<DistMatching> = DistGraph::build_all(&g, &p)
                .into_iter()
                .map(|dg| DistMatching::reseed(dg, &retained))
                .collect();
            let cfg = EngineConfig {
                cost: CostModel::compute_only(),
                delivery: policy.clone(),
                ..Default::default()
            };
            let result = SimEngine::new(programs, cfg).run();
            assert!(
                !result.hit_round_cap,
                "warm run did not quiesce under {policy:?}"
            );
            let dist = assemble_matching(&result.programs, g.num_vertices());
            assert_eq!(
                dist.mates(),
                &sequential[..],
                "step {step}: distributed warm repair under {policy:?} != sequential kernel"
            );
        }
        mate = sequential;
    }
}

/// The in-place kernels on long-lived vectors and scratch, their
/// functional wrappers, and a cold greedy run agree after every batch —
/// and a frontier vertex is listed once however often a batch names it.
#[test]
fn in_place_kernels_agree_with_wrappers_and_cold_runs() {
    const SEED: u64 = 7; // coloring priority seed
    for seed in 0..4u64 {
        let g0 = base_graph(seed + 20);
        let mut mg = MutableGraph::from_csr(&g0);
        let mut mate = cmg_matching::seq::greedy(&g0).mates().to_vec();
        let mut colors = cmg_coloring::seq::greedy(&g0, cmg_coloring::seq::Ordering::Natural)
            .colors()
            .to_vec();
        let mut match_frontier = MatchFrontier::new(g0.num_vertices());
        let mut color_frontier = ColorFrontier::default();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1F_ACE);
        for step in 0..30 {
            let mut batch = random_batch(&mut rng);
            // Name the first edge again, endpoints swapped, so that one
            // batch reaches the same vertices twice.
            if let Some(&first) = batch.ops.first() {
                let (u, v) = first.endpoints();
                match first {
                    Mutation::Delete { .. } => batch.delete(v, u),
                    _ => batch.insert(v, u, rng.random::<f64>() + 0.1),
                };
            }
            mg.apply(&batch).expect("valid batch");
            let ctx = format!("seed {seed} step {step}");

            let retained_m = invalidate(&mg, &mate, &batch);
            let wrapped_m = repair_frontier(&mg, &retained_m);
            let retained_c = invalidate_colors(&mg, &colors, &batch, SEED);
            let wrapped_c = repair_frontier_colors(&mg, &retained_c, SEED);

            let before_c = colors.clone();
            match_frontier.invalidate(&mg, &mut mate, &batch);
            assert_eq!(mate, retained_m.mate, "{ctx}: invalidated mates");
            color_frontier.invalidate(&mg, &mut colors, &batch, SEED);
            assert_eq!(colors, retained_c.color, "{ctx}: invalidated colors");
            let mut active = match_frontier.vertices().to_vec();
            active.sort_unstable();
            let expected: Vec<VertexId> =
                (0..N).filter(|&v| retained_m.active[v as usize]).collect();
            assert_eq!(active, expected, "{ctx}: frontier list != active set");
            let mut dirty = color_frontier.vertices().to_vec();
            dirty.sort_unstable();
            let expected: Vec<VertexId> = (0..N).filter(|&v| retained_c.is_dirty(v)).collect();
            assert_eq!(dirty, expected, "{ctx}: dirty list != dirty set");
            match_frontier.repair(&mg, &mut mate);
            color_frontier.repair(&mg, &mut colors, SEED);

            let g = mg.rebuild();
            assert_eq!(mate, wrapped_m, "{ctx}: in-place != wrappers (matching)");
            assert_eq!(
                mate,
                cmg_matching::seq::greedy(&g).mates(),
                "{ctx}: in-place != cold greedy"
            );
            assert_eq!(colors, wrapped_c, "{ctx}: in-place != wrappers (coloring)");
            check_oracles(&g, &mate, &colors, &ctx);
            for v in 0..N {
                if !dirty.contains(&v) {
                    assert_eq!(
                        colors[v as usize], before_c[v as usize],
                        "{ctx}: clean vertex {v} was recolored"
                    );
                }
            }
        }
    }
}

/// A rejected batch is invisible — served vectors untouched and the
/// next batch absorbed exactly as by a twin that never saw it — and a
/// batch whose in-place invalidation rewrote the resident vectors before
/// the dirtiness check sent it to recompute still ends oracle-clean.
#[test]
fn rejected_and_threshold_crossing_batches_leave_clean_state() {
    let g0 = base_graph(11);
    // 2 dirty vertices of 70 is past 2 %: freeing one pair recomputes.
    let cfg = || ServeConfig {
        recompute_threshold: 0.02,
        ..Default::default()
    };
    let mut state = ServeState::new(&g0, cfg()).expect("initial load");
    let mut twin = ServeState::new(&g0, cfg()).expect("initial load");
    let mut mirror = MutableGraph::from_csr(&g0);
    let mut rng = SmallRng::seed_from_u64(0xBAD_BA7C);
    for step in 0..20 {
        // Valid ops first, so a kernel that ran before validation
        // would have rewritten state by the time the bad op is seen.
        let (mate, colors) = (state.matching(), state.coloring());
        let mut bad = random_batch(&mut rng);
        bad.insert(3, N + 5, 1.0);
        assert!(
            state.apply(&bad).is_err(),
            "step {step}: bad batch absorbed"
        );
        assert_eq!(
            state.matching(),
            mate,
            "step {step}: rejection moved a mate"
        );
        assert_eq!(
            state.coloring(),
            colors,
            "step {step}: rejection moved a color"
        );

        // Free a matched pair: the kernel unmatches it in place, then
        // the threshold check falls through to recompute.
        let mut batch = random_batch(&mut rng);
        if let Some(u) = (0..N).find(|&u| state.mate_of(u) != NO_VERTEX) {
            batch.delete(u, state.mate_of(u));
        }
        let report = state.apply(&batch).expect("valid batch absorbs");
        assert_eq!(
            twin.apply(&batch).expect("twin absorbs"),
            report,
            "step {step}: the rejected batch left a trace in the scratch"
        );
        assert_eq!(report.mode, RepairMode::Recompute, "step {step}");
        mirror.apply(&batch).expect("mirror applies");
        let g = mirror.rebuild();
        let (mate, colors) = (state.matching(), state.coloring());
        check_oracles(&g, mate.mates(), colors.colors(), &format!("step {step}"));
        assert_eq!(mate.mates(), cmg_matching::seq::greedy(&g).mates());
        assert_eq!(twin.matching(), mate);
        assert_eq!(twin.coloring(), colors);
    }
}

/// The point of the serving layer, as one timing gate: on a 64×64 grid
/// the median small batch is absorbed by warm repair at least 10× faster
/// than the median cold pass (a from-scratch `ServeState` on the same
/// grid). The margin is three orders of magnitude; a ratio back under 10
/// means an O(n) term has returned to `ServeState::apply`.
#[test]
fn warm_repair_is_at_least_10x_cheaper_than_a_cold_pass() {
    const SIDE: u32 = 64;
    let g0 = assign_weights(
        &cmg_graph::generators::grid2d(SIDE as usize, SIDE as usize),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        7,
    );
    let median = |mut secs: Vec<f64>| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    let timed_load = || {
        let started = std::time::Instant::now();
        let state = ServeState::new(&g0, ServeConfig::default()).expect("cold pass");
        (started.elapsed().as_secs_f64(), state)
    };
    let cold = median((0..15).map(|_| timed_load().0).collect());

    let mut state = timed_load().1;
    let mut rng = SmallRng::seed_from_u64(0x5E12E);
    let mut warm = Vec::new();
    for _ in 0..301 {
        // 1–3 ops on grid edges and short diagonals, fresh distinct weights.
        let mut batch = MutationBatch::new();
        for _ in 0..rng.random_range(1usize..4) {
            let (r, c) = (rng.random_range(0..SIDE - 1), rng.random_range(0..SIDE - 1));
            let v = r * SIDE + c;
            match rng.random_range(0u32..3) {
                0 => batch.insert(v, v + SIDE + 1, rng.random::<f64>()),
                1 => batch.delete(v, v + 1),
                _ => batch.reweight(v, v + SIDE, rng.random::<f64>()),
            };
        }
        let started = std::time::Instant::now();
        let report = state.apply(&batch).expect("valid batch absorbs");
        warm.push(started.elapsed().as_secs_f64());
        assert_eq!(report.mode, RepairMode::Repair, "{report:?}");
    }
    let warm = median(warm);
    assert!(
        cold >= 10.0 * warm,
        "median warm repair {warm:.2e} s vs median cold pass {cold:.2e} s: under 10x"
    );
}
