//! Protocol-invariant oracles evaluated after every simulated run of the
//! digest sweep (`tests/sweep_harness`) and of the exhaustive explorer.
//!
//! Each oracle returns `Ok(())` or a diagnostic string naming the first
//! violated invariant. They are deliberately *end-state* checks — they
//! inspect assembled results, journaled traffic, and the structured
//! event stream, never the engines' internals — so the same oracles
//! apply to any schedule the exploration layer produces.
//!
//! The invariants come straight from the paper's protocol arguments:
//!
//! * A locally-dominant matching is valid, maximal, and ½-approximate;
//!   the certificate below checks local dominance edge-by-edge.
//! * The matching message protocol answers or retracts every proposal:
//!   a `REQUEST(a→b)` is either consummated (`mate(b) = a`), answered by
//!   exactly one `SUCCEEDED`/`FAILED(b→a)`, or retracted by `a`'s own
//!   `SUCCEEDED`/`FAILED(a→b)` crossing it on the wire.
//! * Speculative coloring converges: each phase recolors only the
//!   previous phase's conflict set, so global per-phase conflict counts
//!   are non-increasing and end at zero.
//! * The simulated network neither drops nor duplicates packets.

use crate::observed::ObservedMatching;
use cmg_coloring::dist::ConflictScope;
use cmg_coloring::{Coloring, DistColoring};
use cmg_graph::{CsrGraph, VertexId};
use cmg_matching::{MatchMsg, Matching};
use cmg_obs::{Event, TimedEvent};
use cmg_runtime::RunStats;
use std::collections::{BTreeMap, HashMap};

/// The matching is well-formed on `g` (symmetric mates along real edges).
pub fn valid_matching(g: &CsrGraph, m: &Matching) -> Result<(), String> {
    m.validate(g)
}

/// Local-dominance certificate: every edge of `g` has an incident
/// matched edge of at least its weight.
///
/// This is the witness structure behind the ½-approximation proof — if
/// it holds, charging each optimal edge to the dominating matched edge
/// at one of its endpoints shows `w(M) ≥ ½·w(M*)`, and maximality
/// follows (an unmatched-both-ends edge would dominate itself).
pub fn half_approx_certificate(g: &CsrGraph, m: &Matching) -> Result<(), String> {
    let mut best = vec![0.0f64; g.num_vertices()];
    for (u, v) in m.edges() {
        let w = g
            .edge_weight(u, v)
            .ok_or_else(|| format!("matched edge ({u},{v}) is not an edge of the graph"))?;
        best[u as usize] = w;
        best[v as usize] = w;
    }
    for (u, v, w) in g.edges() {
        if best[u as usize] < w && best[v as usize] < w {
            return Err(format!(
                "edge ({u},{v}) of weight {w} dominates the matched edges at both \
                 endpoints ({} and {}) — matching is not locally dominant",
                best[u as usize], best[v as usize]
            ));
        }
    }
    Ok(())
}

/// The coloring assigns every vertex a color and no edge is monochrome.
pub fn proper_coloring(g: &CsrGraph, c: &Coloring) -> Result<(), String> {
    if !c.is_complete() {
        return Err("coloring is incomplete: some vertex is uncolored".to_string());
    }
    c.validate(g)
}

/// Per-phase global conflict counts (summed from each rank's
/// `ColoringRound` event) are non-increasing and reach zero.
///
/// Structural argument: phase `k+1` colors exactly the vertices that
/// conflicted in phase `k`, and a vertex can only re-conflict if it was
/// just recolored — so the global count can never grow, and the
/// protocol stops at the first all-zero phase.
pub fn conflicts_monotone(events: &[TimedEvent]) -> Result<(), String> {
    let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        if let Event::ColoringRound {
            phase, conflicts, ..
        } = e.event
        {
            *sums.entry(phase).or_insert(0) += conflicts;
        }
    }
    if sums.is_empty() {
        return Err("no ColoringRound events — was the run recorded?".to_string());
    }
    let mut prev: Option<(u32, u64)> = None;
    for (&phase, &sum) in &sums {
        if let Some((prev_phase, prev_sum)) = prev {
            if phase != prev_phase + 1 {
                return Err(format!(
                    "phase gap: saw phase {prev_phase} then {phase} — a rank skipped a phase"
                ));
            }
            if sum > prev_sum {
                return Err(format!(
                    "conflicts grew from {prev_sum} (phase {prev_phase}) to {sum} (phase {phase})"
                ));
            }
        }
        prev = Some((phase, sum));
    }
    match prev {
        Some((_, 0)) => Ok(()),
        Some((phase, sum)) => Err(format!(
            "final phase {phase} still had {sum} conflicts — coloring never converged"
        )),
        None => Err("unreachable: sums checked non-empty".to_string()),
    }
}

/// Wire-level conservation: the engine's per-rank counters balance and
/// the event stream saw exactly as many packet receives as sends.
pub fn message_conservation(stats: &RunStats, events: &[TimedEvent]) -> Result<(), String> {
    if let Some(violation) = stats.conservation_violation() {
        return Err(violation);
    }
    let (mut sent, mut sent_bytes, mut sent_logical) = (0u64, 0u64, 0u64);
    let (mut recv, mut recv_bytes, mut recv_logical) = (0u64, 0u64, 0u64);
    for e in events {
        match e.event {
            Event::PacketSent { bytes, logical, .. } => {
                sent += 1;
                sent_bytes += bytes;
                sent_logical += logical as u64;
            }
            Event::PacketRecv { bytes, logical, .. } => {
                recv += 1;
                recv_bytes += bytes;
                recv_logical += logical as u64;
            }
            _ => {}
        }
    }
    if (sent, sent_bytes, sent_logical) != (recv, recv_bytes, recv_logical) {
        return Err(format!(
            "event stream unbalanced: sent {sent} packets / {sent_bytes} B / {sent_logical} msgs \
             vs received {recv} / {recv_bytes} B / {recv_logical}"
        ));
    }
    Ok(())
}

/// REQUEST/SUCCEEDED/FAILED ledger over the journaled traffic of all
/// ranks, checked against the assembled matching.
///
/// Invariants (per directed vertex pair):
/// 1. at most one `REQUEST(a→b)` is ever sent;
/// 2. at most one `SUCCEEDED`/`FAILED(b→a)` is ever sent (a vertex
///    leaves the free state exactly once);
/// 3. every `REQUEST(a→b)` is *resolved*: consummated (`mate(b) = a`,
///    in which case neither side sends S/F across the edge), answered
///    by `SUCCEEDED`/`FAILED(b→a)`, or retracted by `a`'s own
///    `SUCCEEDED`/`FAILED(a→b)` that crossed the request on the wire.
pub fn request_ledger(programs: &[ObservedMatching], m: &Matching) -> Result<(), String> {
    let mut requests: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    let mut answers: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    for p in programs {
        for (_, msg) in &p.received {
            match *msg {
                MatchMsg::Request { from, to } => *requests.entry((from, to)).or_insert(0) += 1,
                MatchMsg::Succeeded { from, to } | MatchMsg::Failed { from, to } => {
                    *answers.entry((from, to)).or_insert(0) += 1
                }
            }
        }
    }
    for (&(a, b), &n) in &requests {
        if n > 1 {
            return Err(format!("REQUEST({a}→{b}) sent {n} times"));
        }
    }
    for (&(a, b), &n) in &answers {
        if n > 1 {
            return Err(format!(
                "{n} SUCCEEDED/FAILED({a}→{b}) — vertex {a} left the free state twice"
            ));
        }
    }
    for &(a, b) in requests.keys() {
        if m.mate(b) == a {
            if answers.contains_key(&(b, a)) || answers.contains_key(&(a, b)) {
                return Err(format!(
                    "REQUEST({a}→{b}) was consummated (mate({b}) = {a}) yet a \
                     SUCCEEDED/FAILED also crossed the edge"
                ));
            }
        } else if !answers.contains_key(&(b, a)) && !answers.contains_key(&(a, b)) {
            return Err(format!(
                "REQUEST({a}→{b}) dangles: not consummated (mate({b}) = {}), never \
                 answered by {b}, never retracted by {a}",
                m.mate(b)
            ));
        }
    }
    Ok(())
}

/// Termination: the run quiesced (did not hit the round cap) and every
/// rank resolved all of its owned vertices.
pub fn matching_quiescence(
    programs: &[ObservedMatching],
    hit_round_cap: bool,
) -> Result<(), String> {
    if hit_round_cap {
        return Err("run hit the round cap instead of quiescing".to_string());
    }
    for p in programs {
        if !p.inner.is_resolved() {
            return Err(format!(
                "rank {} went quiet with free vertices outstanding",
                p.inner.dist_graph().rank
            ));
        }
    }
    Ok(())
}

/// Termination for coloring: quiesced with every rank in its final state.
pub fn coloring_quiescence<S: ConflictScope>(
    programs: &[DistColoring<S>],
    hit_round_cap: bool,
) -> Result<(), String> {
    if hit_round_cap {
        return Err("run hit the round cap instead of quiescing".to_string());
    }
    for p in programs {
        if !p.is_finished() {
            return Err(format!(
                "rank {} went quiet before reaching the Finished state",
                p.dist_graph().rank
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::{generators, GraphBuilder, NO_VERTEX};

    fn weighted_grid() -> CsrGraph {
        assign_weights(
            &generators::grid2d(6, 6),
            WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
            7,
        )
    }

    #[test]
    fn certificate_accepts_locally_dominant_matching() {
        let g = weighted_grid();
        let m = cmg_matching::seq::local_dominant(&g);
        valid_matching(&g, &m).unwrap();
        half_approx_certificate(&g, &m).unwrap();
    }

    #[test]
    fn certificate_rejects_dominated_matching() {
        // Path 0-1-2-3 with the heavy edge in the middle: matching the
        // two light outer edges is maximal but not locally dominant.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 5.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let m = Matching::from_mates(vec![1, 0, 3, 2]);
        valid_matching(&g, &m).unwrap();
        let err = half_approx_certificate(&g, &m).unwrap_err();
        assert!(err.contains("not locally dominant"), "{err}");
    }

    #[test]
    fn certificate_rejects_non_maximal_matching() {
        // An empty matching on a non-empty graph: the edge dominates
        // both (unmatched) endpoints.
        let g = weighted_grid();
        let m = Matching::from_mates(vec![NO_VERTEX; g.num_vertices()]);
        assert!(half_approx_certificate(&g, &m).is_err());
    }

    #[test]
    fn monotone_accepts_decreasing_and_rejects_growth() {
        let mk = |phase, conflicts| TimedEvent {
            rank: 0,
            time: 0.0,
            seq: phase as u64,
            event: Event::ColoringRound {
                phase,
                conflicts,
                colors_used: 3,
            },
        };
        conflicts_monotone(&[mk(0, 4), mk(1, 2), mk(2, 0)]).unwrap();
        assert!(conflicts_monotone(&[mk(0, 2), mk(1, 4), mk(2, 0)]).is_err());
        assert!(
            conflicts_monotone(&[mk(0, 2), mk(1, 1)]).is_err(),
            "must end at zero"
        );
        assert!(
            conflicts_monotone(&[mk(0, 2), mk(2, 0)]).is_err(),
            "phase gap"
        );
        assert!(conflicts_monotone(&[]).is_err(), "unrecorded run");
    }

    #[test]
    fn conservation_catches_unbalanced_event_stream() {
        let stats = RunStats::default();
        let sent = TimedEvent {
            rank: 0,
            time: 0.0,
            seq: 0,
            event: Event::PacketSent {
                dst: 1,
                bytes: 9,
                logical: 1,
            },
        };
        assert!(message_conservation(&stats, &[sent]).is_err());
        message_conservation(&stats, &[]).unwrap();
    }

    #[test]
    fn ledger_flags_dangling_request() {
        // A lone unanswered REQUEST against an empty matching.
        let g = {
            let mut b = GraphBuilder::new(2);
            b.add_edge(0, 1, 1.0);
            b.build()
        };
        let p = cmg_partition::Partition::new(vec![0, 1], 2);
        let parts = cmg_partition::DistGraph::build_all(&g, &p);
        let mut programs: Vec<ObservedMatching> = parts
            .into_iter()
            .map(|dg| ObservedMatching::new(cmg_matching::DistMatching::new(dg)))
            .collect();
        programs[1]
            .received
            .push((0, MatchMsg::Request { from: 0, to: 1 }));
        let m = Matching::from_mates(vec![NO_VERTEX, NO_VERTEX]);
        let err = request_ledger(&programs, &m).unwrap_err();
        assert!(err.contains("dangles"), "{err}");
    }
}
