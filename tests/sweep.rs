//! One sweep over the paper's configuration space, pinned cell by cell.
//!
//! A *cell* is one run, named `program/graph/p/partitioner/delivery/link/
//! checkpoint/start/engine` (DESIGN.md §15 spells the axes out). Its
//! digest is FNV-1a over the assembled answer and its summary, the
//! programs' own counters, the rounds, every rank's `RankStats` (virtual
//! time by its bits), the per-round trace and, on the simulator, the event
//! stream. Relations are assertions between cells: checkpointed ≡ `ck0`,
//! restored ≡ fresh and dense ≡ sim on the whole digest; threaded and net
//! ≡ sim on the answer, the rounds and every rank's traffic; a second run
//! ≡ the first.
//!
//! The small tier's digests are committed in `tests/golden/sweep.digests`,
//! one `cell digest` line each, and every changed cell is printed with its
//! old and new digest; `UPDATE_GOLDEN=1` rewrites the file. The full tier
//! (`cargo test --release --test sweep -- --ignored`) checks every relation
//! on every cell and pins one roll-up per (program, engine) there too.
//! The harness lives in `sweep_harness/`: its `owner` splits the small
//! tier among the named tests that predate the sweep, so each cell runs
//! once; this file runs the rest and, under `UPDATE_GOLDEN`, all of it.

mod sweep_harness;

use cmg_coloring::CommVariant;
use cmg_obs::Fnv1a;
use std::collections::BTreeMap;
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
            placements.extend([(graph, p, false), (graph, p, true)]);
        }
    }
    let mut variants = Vec::new();
    for order in [Arrival, Random(1), Random(2), Reverse, Lifo, Delay(2)] {
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

#[test]
#[ignore = "full tier: ~80,000 cells, each run twice; run it in release"]
fn full_tier_holds_every_relation() {
    let (graphs, cells) = (graphs(), full_tier());
    assert!(cells.len() >= 24_000, "{} cells", cells.len());
    let digests = run_all(&cells, &graphs);
    let pinned = Default::default();
    let mut problems = relations(&cells, &digests, &graphs, &pinned, |_| true);
    let mut rollups: BTreeMap<String, Fnv1a> = BTreeMap::new();
    for (cell, (full, _)) in cells.iter().zip(digests) {
        let key = cell.key(&graphs);
        let family = key.split(['-', '/']).next().unwrap_or_default();
        let group = format!("{FULL}{family}/{:?}", cell.engine).to_lowercase();
        let h = rollups.entry(group).or_default();
        h.bytes(key.as_bytes());
        h.u64(full);
    }
    let rolled: Vec<_> = rollups.into_iter().map(|(g, h)| (g, h.finish())).collect();
    let groups: Vec<String> = rolled.iter().map(|(g, _)| g.clone()).collect();
    problems.extend(pin(rolled, Some(&groups)));
    fail_on(&problems);
}
