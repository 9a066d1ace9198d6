//! One sweep over the paper's configuration space, pinned cell by cell.
//!
//! A *cell* is one run, named `program/graph/p/partitioner/delivery/link/
//! checkpoint/start/engine` (DESIGN.md §15 spells the axes out). Its
//! digest is FNV-1a over the assembled answer and its summary, the
//! programs' own counters, the rounds, every rank's `RankStats` (virtual
//! time by its bits), the per-round trace and, on the simulator, the event
//! stream. Every run is held to `cmg-check`'s oracles, and a failed one
//! names the cell. Relations are assertions between cells: checkpointed ≡
//! `ck0`, restored ≡ fresh and dense ≡ sim on the whole digest; threaded
//! and net ≡ sim on the answer, the rounds and every rank's traffic; a
//! simulated matching, or distance-1 colouring with `superstep_size ≥ n`,
//! ≡ its `arrival` twin on the answer; a second run ≡ the first.
//!
//! Sub-phase supersteps (`superstep_size < n`) are exempt from the answer
//! relation on purpose: a `Bcast` triggers a superstep mid-drain, so the
//! ghost colours a vertex sees follow the merge order. Under every order
//! they keep a proper colouring, per-phase conflicts non-increasing to
//! zero and every rank quiescent: the `d1-neighbor-s4/grid8/p4/tiles`,
//! `d1-neighbor-s1/er32` and `d1-neighbor-s1/er48` groups check it, and
//! so does every `d1-*-s1` / `d1-*-s4` cell under a non-arrival order.
//!
//! The small tier is committed in `tests/golden/sweep.digests`, one line
//! per cell or, for the batteries (every order of `orders`, the token
//! workloads), per group; `UPDATE_GOLDEN=1` rewrites it. The full tier
//! (`cargo test --release --test sweep -- --ignored`) checks every
//! relation on every cell and pins one roll-up per (program, engine).
//! `sweep_harness::owner` splits the small tier among the named tests
//! that predate the sweep, so each cell runs once; this file runs the
//! batteries, the rest and, under `UPDATE_GOLDEN`, all of it.

mod sweep_harness;

use cmg_coloring::CommVariant;
use sweep_harness::*;

fn full_tier() -> Vec<Cell> {
    use Order::*;
    let mut programs = vec![Program::Match, Program::Jp];
    for s in [1, 4, 16, 1000] {
        for comm in [CommVariant::Neighbor, CommVariant::Fiac, CommVariant::Fiab] {
            programs.push(Program::D1(comm, s));
        }
    }
    programs.extend([1, 4, 1000].map(Program::D2));
    let mut placements = Vec::new();
    for graph in 0..graphs().len() {
        for p in [1, 2, 3, 4, 8] {
            placements.extend([(graph, p, Part::Block), (graph, p, Part::Hash)]);
        }
    }
    let mut variants = Vec::new();
    for order in [Arrival, Random(1), Random(2), Reverse, Lifo, Delay(LAST, 2)] {
        for engine in [Engine::Sim, Engine::Dense, Engine::Threaded] {
            for free_link in [false, true] {
                for (k, restored) in [(0, false), (1, false), (0, true)] {
                    variants.push((engine, order, free_link, k, restored));
                }
            }
        }
    }
    let mut all = cells(&programs, &placements, &variants);
    // Net cells on er60, grid8 and the tied circuit at p ∈ {2, 4, 8}: a
    // fleet of processes each.
    placements.retain(|&(graph, p, _)| graph < 3 && p % 2 == 0);
    let net = [0, 1].map(|k| (Engine::Net, Arrival, false, k, false));
    all.extend(cells(&programs, &placements, &net));
    all
}

#[test]
fn small_tier_matches_the_pinned_digests() {
    check_small_tier(REST, os_scheduled);
}

/// The battery shares (`sweep_harness::owner`), named after the checks
/// they replaced: the tiled 8×8 grid under 147 orders (≥ 100 distinct
/// schedules each), `er32` / `er48` under every order in bulk-synchronous
/// and one-vertex supersteps, and the token workloads, scheduled against
/// the dense reference on the Blue Gene/P and the free link.
macro_rules! battery_shares {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            check_small_tier(stringify!($name), os_scheduled);
        }
    )*};
}

battery_shares!(
    matching_oracles_hold_on_over_100_interleavings,
    coloring_oracles_hold_on_over_100_interleavings,
    answers_survive_adversarial_schedules,
    subphase_supersteps_stay_valid_under_adversarial_schedules,
    scheduler_matches_dense_reference,
    equal_arrival_times_keep_delivery_order
);

#[test]
#[ignore = "full tier: ~80,000 cells, each run twice; run it in release"]
fn full_tier_holds_every_relation() {
    let (graphs, cells) = (graphs(), full_tier());
    assert!(cells.len() >= 24_000, "{} cells", cells.len());
    let digests = run_all(&cells, &graphs);
    let pinned = Default::default();
    let mut problems = relations(&cells, &digests, &graphs, &pinned, |_| true);
    let family = |cell: &Cell| {
        let key = cell.key(&graphs);
        let family = key.split(['-', '/']).next().unwrap_or_default();
        Some(format!("{FULL}{family}/{:?}", cell.engine).to_lowercase())
    };
    let groups: Vec<String> = cells.iter().filter_map(family).collect();
    problems.extend(pin_cells(&cells, &digests, &graphs, family, Some(&groups)));
    fail_on(&problems);
}
