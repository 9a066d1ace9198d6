//! Observability end-to-end: recorded runs round-trip through the JSONL
//! sinks, a two-rank simulated run reproduces the committed golden
//! Chrome trace byte-for-byte, metrics agree with the engine's own
//! ledgers, and the default no-op recorder neither collects anything
//! nor perturbs results.

use cmg::prelude::*;
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_obs::sink::{chrome_trace, events_from_jsonl, events_to_jsonl};
use cmg_obs::{CollectingRecorder, Event, Json, MetricsRegistry, PhaseName, TimedEvent};
use cmg_partition::simple::block_partition;
use cmg_runtime::EngineConfig;
use proptest::prelude::*;

/// The reference workload: an 8×8 grid with uniform random weights,
/// split across two ranks, matched under the simulated engine. Fully
/// deterministic, so its trace doubles as the golden file.
fn recorded_matching_run() -> (Vec<TimedEvent>, MatchingRun) {
    let g = assign_weights(
        &generators::grid2d(8, 8),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        42,
    );
    let part = block_partition(g.num_vertices(), 2);
    let (recorder, handle) = CollectingRecorder::shared();
    let engine = Engine::Simulated(EngineConfig::default().with_recorder(handle));
    let run = cmg::run_matching(&g, &part, &engine);
    (recorder.take(), run)
}

#[test]
fn two_rank_trace_matches_golden_file() {
    let (events, _) = recorded_matching_run();
    let trace = chrome_trace(&events);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2rank.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &trace).expect("write golden");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        trace, expected,
        "trace drifted from tests/golden/trace_2rank.json; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Acceptance: the same seed and config under the simulated
/// engine must produce byte-identical traces run over run.
#[test]
fn simulated_traces_are_byte_identical_across_runs() {
    let (events_a, run_a) = recorded_matching_run();
    let (events_b, run_b) = recorded_matching_run();
    assert_eq!(events_a, events_b);
    assert_eq!(chrome_trace(&events_a), chrome_trace(&events_b));
    assert_eq!(events_to_jsonl(&events_a), events_to_jsonl(&events_b));
    assert_eq!(run_a.matching, run_b.matching);
}

#[test]
fn run_events_round_trip_through_jsonl() {
    let (events, _) = recorded_matching_run();
    assert!(!events.is_empty());
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.event.kind()).collect();
    for expected in [
        "round_start",
        "round_end",
        "phase",
        "packet_sent",
        "packet_recv",
        "match_round",
    ] {
        assert!(kinds.contains(expected), "no {expected} event recorded");
    }
    let text = events_to_jsonl(&events);
    assert_eq!(events_from_jsonl(&text).as_deref(), Ok(&events[..]));
}

/// The metrics folded from the event stream must agree with the
/// engine's own `RunStats` ledger — the two accountings are
/// independent, so any mismatch means lost or duplicated events.
#[test]
fn metrics_agree_with_run_stats() {
    let (events, run) = recorded_matching_run();
    let mut m = MetricsRegistry::new();
    m.observe_events(&events);
    assert_eq!(m.counter("packets_sent"), run.stats.total_packets());
    assert_eq!(
        m.counter("packets_received"),
        run.stats.total_packets_received()
    );
    assert_eq!(m.counter("bytes_sent"), run.stats.total_bytes());
    assert_eq!(
        m.counter("bytes_received"),
        run.stats.total_bytes_received()
    );
    assert_eq!(m.counter("logical_sent"), run.stats.total_messages());
    assert_eq!(
        m.counter("bytes_sent"),
        m.counter("bytes_received"),
        "conservation"
    );
    assert_eq!(m.gauge("rounds"), Some(run.stats.rounds as f64));
}

#[test]
fn coloring_run_emits_coloring_events() {
    let g = generators::grid2d(10, 10);
    let part = block_partition(g.num_vertices(), 2);
    let (recorder, handle) = CollectingRecorder::shared();
    let engine = Engine::Simulated(EngineConfig::default().with_recorder(handle));
    let run = cmg::run_coloring(&g, &part, ColoringConfig::default(), &engine);
    run.coloring.validate(&g).expect("invalid coloring");
    let events = recorder.take();
    let colors_seen = events
        .iter()
        .filter_map(|e| match e.event {
            Event::ColoringRound { colors_used, .. } => Some(colors_used),
            _ => None,
        })
        .max();
    assert_eq!(colors_seen, Some(run.coloring.num_colors() as u64));
}

/// Acceptance: the no-op recorder path adds no events and no
/// counters, and an uninstrumented run produces the exact same results
/// and statistics as an instrumented one.
#[test]
fn noop_recorder_collects_nothing_and_perturbs_nothing() {
    let handle = cmg_obs::RecorderHandle::noop();
    assert!(!handle.enabled(), "noop handle must report disabled");
    handle.emit(0, 0.0, Event::RoundStart { round: 0 });

    let g = assign_weights(
        &generators::grid2d(8, 8),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        42,
    );
    let part = block_partition(g.num_vertices(), 2);
    // EngineConfig::default() carries the noop recorder.
    let plain = cmg::run_matching(&g, &part, &Engine::Simulated(EngineConfig::default()));
    let (events, recorded) = recorded_matching_run();
    assert!(!events.is_empty());
    assert_eq!(plain.matching, recorded.matching);
    assert_eq!(plain.stats.per_rank, recorded.stats.per_rank);
    assert_eq!(plain.stats.rounds, recorded.stats.rounds);
    assert_eq!(plain.simulated_time, recorded.simulated_time);

    // Folding an empty event stream registers nothing.
    let mut m = MetricsRegistry::new();
    m.observe_events(&[]);
    assert!(m.is_empty());
}

fn phase_of(i: u32) -> PhaseName {
    match i % 6 {
        0 => PhaseName::Delivery,
        1 => PhaseName::Compute,
        2 => PhaseName::Send,
        3 => PhaseName::WireWait,
        4 => PhaseName::DoneWave,
        _ => PhaseName::ReseqHold,
    }
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u8..7,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(tag, a, b, c, d)| match tag {
            0 => Event::RoundStart { round: a },
            1 => Event::RoundEnd {
                round: a,
                active_ranks: b,
            },
            2 => Event::Phase {
                name: phase_of(a),
                start: b as f64 * 1e-3,
                dur: (c % 1_000_000) as f64 * 1e-9,
            },
            3 => Event::PacketSent {
                dst: a,
                bytes: c,
                logical: b,
            },
            4 => Event::PacketRecv {
                src: a,
                bytes: c,
                logical: b,
            },
            5 => Event::MatchRound {
                round: a,
                requests: c,
                succeeded: d,
                failed: c ^ d,
            },
            _ => Event::ColoringRound {
                phase: a,
                conflicts: c,
                colors_used: d,
            },
        })
}

fn arb_timed_event() -> impl Strategy<Value = TimedEvent> {
    (any::<u32>(), any::<u32>(), any::<u64>(), arb_event()).prop_map(|(rank, t, seq, event)| {
        TimedEvent {
            rank,
            time: t as f64 * 1e-6,
            seq,
            event,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any event stream survives JSONL serialization bit-exactly.
    #[test]
    fn arbitrary_events_round_trip_through_jsonl(
        events in proptest::collection::vec(arb_timed_event(), 0..60),
    ) {
        let text = events_to_jsonl(&events);
        prop_assert_eq!(events_from_jsonl(&text), Ok(events));
    }

    /// Every metric JSONL line parses back to the registry's value.
    #[test]
    fn metric_jsonl_lines_round_trip(
        vals in proptest::collection::vec(any::<u64>(), 1..16),
        gauge in any::<u32>(),
    ) {
        let mut m = MetricsRegistry::new();
        for (i, &v) in vals.iter().enumerate() {
            m.inc(&format!("c{i}"), v);
            m.observe("h", v);
        }
        m.set_gauge("g", gauge as f64);
        for line in m.to_jsonl().lines() {
            let v = Json::parse(line).unwrap();
            let name = v.get("metric").unwrap().as_str().unwrap();
            let value = v.get("value").unwrap();
            match v.get("type").unwrap().as_str().unwrap() {
                "counter" => prop_assert_eq!(value.as_u64().unwrap(), m.counter(name)),
                "gauge" => prop_assert_eq!(value.as_f64().unwrap(), m.gauge(name).unwrap()),
                "histogram" => {
                    let h = m.histogram(name).unwrap();
                    prop_assert_eq!(value.get("count").unwrap().as_u64().unwrap(), h.count());
                    prop_assert_eq!(value.get("sum").unwrap().as_u64().unwrap(), h.sum());
                    prop_assert_eq!(value.get("max").unwrap().as_u64().unwrap(), h.max());
                }
                other => prop_assert!(false, "unknown metric type {}", other),
            }
        }
    }

    /// The Chrome trace sink is a pure function of the event list.
    #[test]
    fn chrome_trace_depends_only_on_events(
        events in proptest::collection::vec(arb_timed_event(), 0..30),
    ) {
        prop_assert_eq!(chrome_trace(&events), chrome_trace(&events));
        let parsed = Json::parse(&chrome_trace(&events)).unwrap();
        prop_assert!(parsed.get("traceEvents").unwrap().as_arr().is_some());
    }
}
