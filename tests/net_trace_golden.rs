//! The merged multi-process trace end to end: a seeded fault-free
//! 2-rank net run must reproduce the committed golden event stream
//! (deterministic modulo wall-clock timestamps, which are normalized
//! away), the critical-path analyzer must segment it into exactly the
//! protocol's rounds, and the supervisor must hand back its clock and
//! health reports.

use cmg::prelude::*;
use cmg_net::{run_task, NetConfig, NetTask};
use cmg_obs::sink::events_to_jsonl;
use cmg_obs::{CollectingRecorder, Event, PhaseName, TimedEvent, TraceReport};
use cmg_partition::simple::block_partition;
use cmg_partition::DistGraph;
use cmg_runtime::EngineConfig;

/// The golden workload: the same 8×8 grid / seed-42 / 2-rank fixture
/// the simulated golden trace uses, run on the multi-process engine.
fn golden_graph() -> cmg_graph::CsrGraph {
    cmg_graph::weights::assign_weights(
        &cmg_graph::generators::grid2d(8, 8),
        cmg_graph::weights::WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        42,
    )
}

fn recorded_net_run() -> (Vec<TimedEvent>, MatchingRun) {
    let g = golden_graph();
    let part = block_partition(g.num_vertices(), 2);
    let (recorder, handle) = CollectingRecorder::shared();
    let cfg = EngineConfig::default().with_recorder(handle);
    let run = cmg::run_matching(&g, &part, &Engine::Net(cfg));
    run.matching.validate(&g).expect("invalid matching");
    (recorder.take(), run)
}

/// Strips the wall-clock content: every timestamp and duration becomes
/// zero, and the stream is put into canonical `(rank, seq)` order (the
/// merged order depends on real inter-rank timing; the per-rank streams
/// do not). What remains — which events, from which rank, in which
/// per-rank order, with which payloads — is fully deterministic.
fn normalize(events: Vec<TimedEvent>) -> Vec<TimedEvent> {
    let mut out: Vec<TimedEvent> = events
        .into_iter()
        .map(|mut e| {
            e.time = 0.0;
            if let Event::Phase { start, dur, .. } = &mut e.event {
                *start = 0.0;
                *dur = 0.0;
            }
            e
        })
        .collect();
    out.sort_by_key(|e| (e.rank, e.seq));
    out
}

#[test]
fn two_rank_net_trace_matches_golden_file() {
    let (events, _) = recorded_net_run();
    let jsonl = events_to_jsonl(&normalize(events));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/net_trace_2rank.jsonl"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &jsonl).expect("write golden");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        jsonl, expected,
        "normalized net trace drifted from tests/golden/net_trace_2rank.jsonl; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn normalized_net_traces_are_identical_across_runs() {
    let (a, run_a) = recorded_net_run();
    let (b, run_b) = recorded_net_run();
    assert_eq!(run_a.matching, run_b.matching);
    assert_eq!(
        events_to_jsonl(&normalize(a)),
        events_to_jsonl(&normalize(b))
    );
}

/// The analyzer's round segmentation is keyed off the one-per-round
/// `done_wave` edge span, so the report must see exactly the engine's
/// round count, blame a real rank, and account a positive fraction of
/// every round's wall time.
#[test]
fn critical_path_report_segments_the_net_trace_into_rounds() {
    let (events, run) = recorded_net_run();
    let report = TraceReport::from_events(&events);
    assert_eq!(report.ranks, vec![0, 1]);
    assert_eq!(report.rounds.len() as u64, run.stats.rounds);
    for r in &report.rounds {
        assert!(report.ranks.contains(&r.straggler), "round {}", r.round);
        assert!(
            r.coverage > 0.0 && r.coverage <= 1.0,
            "round {}: coverage {}",
            r.round,
            r.coverage
        );
        assert!(
            r.split.done_wave_s > 0.0,
            "round {} lost its done-wave span",
            r.round
        );
        // There is no top-of-round wire wait: the wave subsumes it.
        assert_eq!(r.split.wire_wait_s, 0.0, "round {}", r.round);
    }
    assert!(report.overall_straggler().is_some());
    // Fault-free run: nothing ever waited behind a sequence gap.
    let held: f64 = report.rounds.iter().map(|r| r.split.reseq_hold_s).sum();
    assert_eq!(held, 0.0);
}

/// The net-only phase vocabulary stays out of the in-process engines:
/// a simulated run of the same workload must emit none of the wire
/// phases (this is what keeps the sim golden trace byte-identical).
#[test]
fn sim_traces_never_contain_wire_phases() {
    let g = golden_graph();
    let part = block_partition(g.num_vertices(), 2);
    let (recorder, handle) = CollectingRecorder::shared();
    let engine = Engine::Simulated(EngineConfig::default().with_recorder(handle));
    let _ = cmg::run_matching(&g, &part, &engine);
    for e in recorder.take() {
        if let Event::Phase { name, .. } = e.event {
            assert!(
                !matches!(
                    name,
                    PhaseName::WireWait | PhaseName::DoneWave | PhaseName::ReseqHold
                ),
                "sim engine emitted net-only phase {name:?}"
            );
        }
    }
}

/// The supervisor-side telemetry/clock plumbing: every rank gets a
/// clock-report slot, and the health view is either empty (the run
/// finished before a beacon landed) or internally consistent.
#[test]
fn net_outcome_carries_health_and_clock_reports() {
    let g = golden_graph();
    let parts = DistGraph::build_all(&g, &block_partition(g.num_vertices(), 2));
    let out = run_task(parts, NetTask::Matching, &NetConfig::default()).expect("net run");
    assert_eq!(out.clocks.len(), 2);
    for c in &out.clocks {
        assert!(
            c.valid || c.offset_micros == 0,
            "invalid report must be zeroed"
        );
    }
    if out.health.beacons() > 0 {
        let rank = out.health.straggler().expect("beacons imply a straggler");
        assert!(rank < 2);
    }
}
