//! Bounded-exhaustive schedule exploration: re-run the matching program
//! under *every* delivery interleaving of a tiny configuration and hold
//! each run to the same oracles.
//!
//! [`explore_matching_exhaustive`] drives a [`ScriptBook`] through a
//! depth-first enumeration of the delivery choice tree, pruning commuting
//! choices (two mailbox heads with byte-identical payloads lead to the
//! same successor state — a sleep-set-style reduction). The search is
//! budget-capped; the returned [`Exploration`] says whether the tree was
//! fully drained. Named delivery policies (arrival, reverse, LIFO,
//! per-rank holds, seeded random merges) are the digest sweep's delivery
//! axis (`tests/sweep_harness`), which runs this module's oracles and
//! [`schedule_fingerprint`] on every simulated cell.

use crate::observed::ObservedMatching;
use crate::oracles;
use cmg_graph::CsrGraph;
use cmg_matching::{assemble_mates, DistMatching, Matching};
use cmg_obs::{CollectingRecorder, Event, Fnv1a, TimedEvent};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{
    CostModel, DeliveryKey, DeliveryPolicy, DeliveryScript, EngineConfig, Rank, SimEngine,
};
use std::sync::Arc;

/// Outcome of one exploration campaign.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Schedules run.
    pub runs: u64,
    /// One diagnostic per violated check, labeled with the schedule that
    /// produced it.
    pub failures: Vec<String>,
    /// `true` when the whole (pruned) choice tree was enumerated within
    /// budget.
    pub exhausted: bool,
}

impl Exploration {
    /// `true` when every oracle held on every explored schedule.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records one oracle result.
    fn check(&mut self, result: Result<(), String>, schedule: &str, oracle: &str) {
        if let Err(why) = result {
            self.failures.push(format!("[{schedule}] {oracle}: {why}"));
        }
    }
}

/// Fingerprint of the interleaving a run actually exhibited: an FNV-1a
/// fold of every rank's packet-receive sequence `(rank, src, bytes,
/// logical)` in deterministic `(rank, seq)` order. Two runs with equal
/// fingerprints delivered the same packets in the same per-rank order.
pub fn schedule_fingerprint(events: &[TimedEvent]) -> u64 {
    let mut h = Fnv1a::new();
    for e in events {
        if let Event::PacketRecv {
            src,
            bytes,
            logical,
        } = e.event
        {
            h.u64(e.rank as u64);
            h.u64(src as u64);
            h.u64(bytes);
            h.u64(logical as u64);
        }
    }
    h.finish()
}

/// One matching run under `policy`, with one wire packet per logical
/// message (bundling would collapse a round's traffic to one packet per
/// source, leaving the script almost nothing to permute), held to the
/// matching oracles. Returns the assembled matching, if the ranks agree.
fn run_matching_once(
    g: &CsrGraph,
    partition: &Partition,
    policy: DeliveryPolicy,
    out: &mut Exploration,
) -> Option<Matching> {
    let schedule = format!("{policy:?}");
    let programs: Vec<ObservedMatching> = DistGraph::build_all(g, partition)
        .into_iter()
        .map(|dg| ObservedMatching::new(DistMatching::new(dg)))
        .collect();
    let (recorder, handle) = CollectingRecorder::shared();
    let cfg = EngineConfig {
        cost: CostModel::compute_only(),
        delivery: policy,
        recorder: handle,
        bundling: false,
        ..Default::default()
    };
    let result = SimEngine::new(programs, cfg).run();
    let events = recorder.take();
    out.runs += 1;

    out.check(
        oracles::matching_quiescence(&result.programs, result.hit_round_cap),
        &schedule,
        "quiescence",
    );
    out.check(
        oracles::message_conservation(&result.stats, &events),
        &schedule,
        "conservation",
    );
    let shares = result.programs.iter().map(|p| p.inner.local_mates());
    let m = match assemble_mates(g.num_vertices(), shares) {
        Ok(mates) => Matching::from_mates(mates),
        Err(why) => {
            out.check(Err(why), &schedule, "cross-rank-agreement");
            return None;
        }
    };
    out.check(oracles::valid_matching(g, &m), &schedule, "valid-matching");
    out.check(
        oracles::half_approx_certificate(g, &m),
        &schedule,
        "half-approx-certificate",
    );
    out.check(
        oracles::request_ledger(&result.programs, &m),
        &schedule,
        "request-ledger",
    );
    Some(m)
}

/// Interior state of a [`ScriptBook`]: the replay prefix and the
/// decisions actually taken this run.
#[derive(Debug, Default)]
struct BookState {
    /// Choices to replay, in decision order; past its end the script
    /// picks the first (canonical) alternative.
    stream: Vec<usize>,
    /// `(choice, arity)` of every decision point consumed this run.
    taken: Vec<(usize, usize)>,
}

/// A [`DeliveryScript`] that turns delivery ordering into an explicit
/// choice tree for depth-first enumeration.
///
/// Each delivery is built as a FIFO merge of the per-source queues; at
/// every merge step the candidate set is the distinct mailbox heads
/// (deduplicated by payload hash — byte-identical heads commute, since
/// handlers never consult the source rank, so exploring one of them
/// covers both). A candidate set of size > 1 consumes one decision from
/// the replay stream and journals its arity, which is exactly what
/// [`ScriptSearch::advance`] needs to backtrack.
///
/// Scripted policies force the serial engine, so the interior `Mutex` is
/// uncontended; it exists to satisfy `DeliveryScript: Send + Sync`.
#[expect(clippy::disallowed_types, reason = "calls hold it one at a time")]
pub struct ScriptBook {
    state: std::sync::Mutex<BookState>,
}

impl ScriptBook {
    /// A book replaying `stream`, then canonical-first past its end.
    pub fn new(stream: Vec<usize>) -> Arc<Self> {
        Arc::new(ScriptBook {
            state: BookState {
                stream,
                taken: Vec::new(),
            }
            .into(),
        })
    }

    /// The `(choice, arity)` journal of the last run.
    pub fn taken(&self) -> Vec<(usize, usize)> {
        self.lock().taken.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BookState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl DeliveryScript for ScriptBook {
    fn choose(&self, _rank: Rank, _round: u64, keys: &[DeliveryKey]) -> Option<Vec<usize>> {
        if keys.len() <= 1 {
            return None;
        }
        let mut st = self.lock();
        // Per-source (next, end) cursors over the canonical order.
        let mut cursors: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=keys.len() {
            if i == keys.len() || keys[i].src != keys[start].src {
                cursors.push((start, i));
                start = i;
            }
        }
        let mut perm = Vec::with_capacity(keys.len());
        while perm.len() < keys.len() {
            // Candidate heads, pruned to one representative per payload
            // hash (commuting deliveries).
            let mut candidates: Vec<usize> = Vec::new();
            let mut seen_hashes: Vec<u64> = Vec::new();
            for (ci, &(next, end)) in cursors.iter().enumerate() {
                if next < end && !seen_hashes.contains(&keys[next].payload_hash) {
                    seen_hashes.push(keys[next].payload_hash);
                    candidates.push(ci);
                }
            }
            let pick = if candidates.len() <= 1 {
                0
            } else {
                let pos = st.taken.len();
                let choice = st
                    .stream
                    .get(pos)
                    .copied()
                    .unwrap_or(0)
                    .min(candidates.len() - 1);
                st.taken.push((choice, candidates.len()));
                choice
            };
            let ci = candidates[pick];
            perm.push(cursors[ci].0);
            cursors[ci].0 += 1;
        }
        Some(perm)
    }
}

/// Depth-first driver over [`ScriptBook`] choice trees, capped at
/// `budget` runs.
#[derive(Debug)]
pub struct ScriptSearch {
    next_stream: Option<Vec<usize>>,
    /// Runs dispatched so far.
    pub runs: u64,
    /// Maximum runs before the search reports non-exhaustion.
    pub budget: u64,
}

impl ScriptSearch {
    /// A fresh search starting at the canonical-first schedule.
    pub fn new(budget: u64) -> Self {
        ScriptSearch {
            next_stream: Some(Vec::new()),
            runs: 0,
            budget,
        }
    }

    /// The next schedule to run, or `None` when the tree is drained or
    /// the budget is spent.
    pub fn next_book(&mut self) -> Option<Arc<ScriptBook>> {
        if self.runs >= self.budget {
            return None;
        }
        let stream = self.next_stream.take()?;
        self.runs += 1;
        Some(ScriptBook::new(stream))
    }

    /// Consumes a finished run's journal and computes the next schedule:
    /// the deepest decision with an untried alternative is incremented
    /// and everything below it reset. Returns `false` when the tree is
    /// fully enumerated.
    pub fn advance(&mut self, book: &ScriptBook) -> bool {
        let taken = book.taken();
        for i in (0..taken.len()).rev() {
            let (choice, arity) = taken[i];
            if choice + 1 < arity {
                let mut next: Vec<usize> = taken[..i].iter().map(|&(c, _)| c).collect();
                next.push(choice + 1);
                self.next_stream = Some(next);
                return true;
            }
        }
        self.next_stream = None;
        false
    }

    /// `true` when every schedule in the (pruned) tree was run.
    fn drained(&self) -> bool {
        self.next_stream.is_none()
    }
}

/// Bounded-exhaustive matching exploration: enumerates the delivery
/// choice tree of a tiny configuration depth-first (with commuting-head
/// pruning) up to `budget` runs, holding every run to the matching
/// oracles and to schedule-invariance of the assembled matching.
pub fn explore_matching_exhaustive(
    g: &CsrGraph,
    partition: &Partition,
    budget: u64,
) -> Exploration {
    let mut out = Exploration::default();
    let mut baseline: Option<Matching> = None;
    let mut search = ScriptSearch::new(budget);
    while let Some(book) = search.next_book() {
        let policy = DeliveryPolicy::Scripted(book.clone());
        if let Some(m) = run_matching_once(g, partition, policy, &mut out) {
            let schedule = format!("Scripted run {}", search.runs);
            match &baseline {
                None => baseline = Some(m),
                Some(base) => out.check(
                    if &m == base {
                        Ok(())
                    } else {
                        Err("matching differs from the canonical-schedule baseline".to_string())
                    },
                    &schedule,
                    "schedule-invariance",
                ),
            }
        }
        if !search.advance(&book) {
            break;
        }
    }
    out.exhausted = search.drained();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn script_book_merges_are_fifo_and_backtrackable() {
        let mk = |src: Rank, seq: u32, hash: u64| DeliveryKey {
            src,
            arrival: seq as f64,
            seq,
            bytes: 8,
            payload_hash: hash,
        };
        // Two sources × two packets, all payloads distinct: the merge
        // tree has C(4,2) = 6 leaves.
        let keys = vec![mk(0, 0, 1), mk(0, 1, 2), mk(1, 2, 3), mk(1, 3, 4)];
        let mut search = ScriptSearch::new(100);
        let mut perms = std::collections::BTreeSet::new();
        while let Some(book) = search.next_book() {
            let perm = book.choose(0, 1, &keys).expect("permutes > 1 packet");
            assert!(cmg_runtime::delivery::preserves_source_fifo(&keys, &perm));
            perms.insert(perm);
            if !search.advance(&book) {
                break;
            }
        }
        assert!(search.drained());
        assert_eq!(perms.len(), 6, "all FIFO merges of 2×2 enumerated");
    }

    #[test]
    fn script_book_prunes_commuting_heads() {
        let mk = |src: Rank, seq: u32, hash: u64| DeliveryKey {
            src,
            arrival: seq as f64,
            seq,
            bytes: 8,
            payload_hash: hash,
        };
        // Identical single-packet payloads from both sources: delivery
        // order commutes, so the pruned tree has exactly one schedule.
        let keys = vec![mk(0, 0, 7), mk(1, 1, 7)];
        let mut search = ScriptSearch::new(100);
        let mut runs = 0;
        while let Some(book) = search.next_book() {
            book.choose(0, 1, &keys);
            runs += 1;
            if !search.advance(&book) {
                break;
            }
        }
        assert_eq!(runs, 1, "commuting heads must not branch");
    }

    #[test]
    fn exhaustive_exploration_drains_a_tiny_triangle() {
        // The paper's 3-vertex, one-vertex-per-rank example: small
        // enough to enumerate completely.
        let mut b = cmg_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let p = Partition::new(vec![0, 1, 2], 3);
        let ex = explore_matching_exhaustive(&g, &p, 500);
        assert!(ex.ok(), "failures: {:#?}", ex.failures);
        assert!(ex.exhausted, "tiny config must drain within budget");
        assert!(ex.runs >= 1);
    }
}
