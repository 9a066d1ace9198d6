//! The schedule-exploration harness: re-run a distributed program under
//! many delivery schedules and hold every run to the same oracles.
//!
//! Two exploration modes share the oracle plumbing:
//!
//! * [`explore_matching`] / [`explore_coloring`] sweep a list of
//!   [`DeliveryPolicy`] values — typically [`standard_policies`]: the
//!   canonical order, its reverse, LIFO, per-rank withholding, and a
//!   battery of seeded random FIFO merges. Every policy is a pure
//!   function of `(rank, round, mailbox)`, so any failure replays from
//!   the policy value alone.
//! * [`explore_matching_exhaustive`] drives a [`ScriptBook`] through a
//!   depth-first enumeration of *all* delivery interleavings of a tiny
//!   configuration, pruning commuting choices (two mailbox heads with
//!   byte-identical payloads lead to the same successor state — a
//!   sleep-set-style reduction). The search is budget-capped; the
//!   returned [`Exploration`] says whether the choice tree was fully
//!   drained.
//!
//! Runs are fingerprinted by their per-rank packet-receive sequences
//! ([`schedule_fingerprint`]); [`OracleCounters::distinct_schedules`]
//! counts observationally distinct interleavings, which is what the
//! acceptance suite thresholds.

use crate::observed::ObservedMatching;
use crate::oracles;
use cmg_coloring::{assemble_coloring, Coloring, ColoringConfig, DistColoring};
use cmg_graph::CsrGraph;
use cmg_matching::{assemble_mates, DistMatching, Matching};
use cmg_obs::{CollectingRecorder, Event, Fnv1a, OracleCounters, TimedEvent};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{
    CostModel, DeliveryKey, DeliveryPolicy, DeliveryScript, EngineConfig, Rank, SimEngine,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Outcome of one exploration campaign.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Run/check/violation tallies (see [`OracleCounters`]).
    pub counters: OracleCounters,
    /// One diagnostic per violated check, labeled with the schedule that
    /// produced it.
    pub failures: Vec<String>,
    /// For exhaustive mode: `true` when the whole (pruned) choice tree
    /// was enumerated within budget.
    pub exhausted: bool,
}

impl Exploration {
    /// `true` when every oracle held on every explored schedule.
    pub fn ok(&self) -> bool {
        self.counters.all_held() && self.failures.is_empty()
    }

    /// Folds one oracle result into the tally.
    fn check(&mut self, result: Result<(), String>, schedule: &str, oracle: &str) {
        match result {
            Ok(()) => self.counters.record(true),
            Err(why) => {
                self.counters.record(false);
                self.failures.push(format!("[{schedule}] {oracle}: {why}"));
            }
        }
    }
}

/// The standard adversarial battery for a `num_ranks`-rank run:
/// canonical order, reverse-rank, LIFO, a 2-round withholding of each
/// rank in turn, and `random_seeds` seeded random FIFO merges.
pub fn standard_policies(num_ranks: Rank, random_seeds: u64) -> Vec<DeliveryPolicy> {
    let mut policies = vec![
        DeliveryPolicy::Arrival,
        DeliveryPolicy::ReverseRank,
        DeliveryPolicy::Lifo,
    ];
    for src in 0..num_ranks {
        policies.push(DeliveryPolicy::DelayRank { src, rounds: 2 });
    }
    for i in 0..random_seeds {
        // Weyl-sequence seeds: well spread without needing an RNG here.
        policies.push(DeliveryPolicy::RandomPermutation {
            seed: (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
    }
    policies
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

/// Free-compute engine config routing events to `recorder`, delivering
/// per `policy`.
fn harness_config(policy: DeliveryPolicy, recorder: cmg_obs::RecorderHandle) -> EngineConfig {
    EngineConfig {
        cost: CostModel::compute_only(),
        delivery: policy,
        recorder,
        // One wire packet per logical message: bundling would collapse a
        // round's traffic to one packet per source, leaving the delivery
        // policies almost nothing to permute. Unbundled, the per-source
        // FIFO merge has factorially many realizable interleavings, which
        // is the whole point of the exploration harness.
        bundling: false,
        ..Default::default()
    }
}

/// One matching run under `policy`; evaluates the full oracle suite and
/// returns the assembled matching (when assembly succeeded) plus the
/// schedule fingerprint.
fn run_matching_once(
    g: &CsrGraph,
    partition: &Partition,
    policy: DeliveryPolicy,
    out: &mut Exploration,
) -> (Option<Matching>, u64) {
    let schedule = format!("{policy:?}");
    let programs: Vec<ObservedMatching> = DistGraph::build_all(g, partition)
        .into_iter()
        .map(|dg| ObservedMatching::new(DistMatching::new(dg)))
        .collect();
    let (recorder, handle) = CollectingRecorder::shared();
    let result = SimEngine::new(programs, harness_config(policy, handle)).run();
    let events = recorder.take();
    out.counters.runs += 1;

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
    let assembled = assemble_mates(g.num_vertices(), shares).map(Matching::from_mates);
    let matching = match assembled {
        Ok(m) => {
            out.counters.record(true);
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
        Err(why) => {
            out.counters.record(false);
            out.failures
                .push(format!("[{schedule}] cross-rank-agreement: {why}"));
            None
        }
    };
    (matching, schedule_fingerprint(&events))
}

/// Sweeps the matching program over `policies`, holding every run to the
/// oracles *and* to schedule-invariance: the locally-dominant matching
/// is unique given the weight/id tie-break order, so every schedule must
/// assemble the exact same matching.
pub fn explore_matching(
    g: &CsrGraph,
    partition: &Partition,
    policies: &[DeliveryPolicy],
) -> Exploration {
    let mut out = Exploration {
        exhausted: true,
        ..Default::default()
    };
    let mut fingerprints = HashSet::new();
    let mut baseline: Option<(String, Matching)> = None;
    for policy in policies {
        let schedule = format!("{policy:?}");
        let (matching, fp) = run_matching_once(g, partition, policy.clone(), &mut out);
        fingerprints.insert(fp);
        if let Some(m) = matching {
            match &baseline {
                None => baseline = Some((schedule, m)),
                Some((base_schedule, base)) => out.check(
                    if &m == base {
                        Ok(())
                    } else {
                        Err(format!(
                            "matching differs from the one under {base_schedule} \
                             (weights {} vs {})",
                            m.weight(g),
                            base.weight(g)
                        ))
                    },
                    &schedule,
                    "schedule-invariance",
                ),
            }
        }
    }
    out.counters.distinct_schedules = fingerprints.len() as u64;
    out
}

/// One coloring run under `policy`, held to the coloring oracle suite.
/// Returns the assembled coloring and the schedule fingerprint.
///
/// Unlike matching, the *result* is schedule-dependent (which ghost
/// colors a rank has seen when it picks a color legitimately varies with
/// delivery order), so there is no invariance oracle — every schedule
/// must merely produce a proper complete coloring by a converging
/// protocol.
fn run_coloring_once(
    g: &CsrGraph,
    partition: &Partition,
    cfg: &ColoringConfig,
    policy: DeliveryPolicy,
    out: &mut Exploration,
) -> (Option<Coloring>, u64) {
    let schedule = format!("{policy:?}");
    let programs: Vec<DistColoring> = DistGraph::build_all(g, partition)
        .into_iter()
        .map(|dg| DistColoring::new(dg, *cfg))
        .collect();
    let (recorder, handle) = CollectingRecorder::shared();
    let result = SimEngine::new(programs, harness_config(policy, handle)).run();
    let events = recorder.take();
    out.counters.runs += 1;

    out.check(
        oracles::coloring_quiescence(&result.programs, result.hit_round_cap),
        &schedule,
        "quiescence",
    );
    out.check(
        oracles::message_conservation(&result.stats, &events),
        &schedule,
        "conservation",
    );
    out.check(
        oracles::conflicts_monotone(&events),
        &schedule,
        "conflicts-monotone",
    );
    let coloring = assemble_coloring(&result.programs, g.num_vertices());
    out.check(
        oracles::proper_coloring(g, &coloring),
        &schedule,
        "proper-coloring",
    );
    (Some(coloring), schedule_fingerprint(&events))
}

/// Sweeps the coloring program over `policies` with the given protocol
/// config, holding every run to the coloring oracles.
pub fn explore_coloring(
    g: &CsrGraph,
    partition: &Partition,
    cfg: &ColoringConfig,
    policies: &[DeliveryPolicy],
) -> Exploration {
    let mut out = Exploration {
        exhausted: true,
        ..Default::default()
    };
    let mut fingerprints = HashSet::new();
    for policy in policies {
        let (_, fp) = run_coloring_once(g, partition, cfg, policy.clone(), &mut out);
        fingerprints.insert(fp);
    }
    out.counters.distinct_schedules = fingerprints.len() as u64;
    out
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
pub struct ScriptBook {
    state: Mutex<BookState>,
}

impl ScriptBook {
    /// A book replaying `stream`, then canonical-first past its end.
    pub fn new(stream: Vec<usize>) -> Arc<Self> {
        Arc::new(ScriptBook {
            state: Mutex::new(BookState {
                stream,
                taken: Vec::new(),
            }),
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
/// pruning) up to `budget` runs, holding every run to the full oracle
/// suite and to schedule-invariance of the assembled matching.
pub fn explore_matching_exhaustive(
    g: &CsrGraph,
    partition: &Partition,
    budget: u64,
) -> Exploration {
    let mut out = Exploration::default();
    let mut fingerprints = HashSet::new();
    let mut baseline: Option<Matching> = None;
    let mut search = ScriptSearch::new(budget);
    while let Some(book) = search.next_book() {
        let run_idx = search.runs;
        let (matching, fp) = run_matching_once(
            g,
            partition,
            DeliveryPolicy::Scripted(book.clone()),
            &mut out,
        );
        fingerprints.insert(fp);
        if let Some(m) = matching {
            match &baseline {
                None => baseline = Some(m),
                Some(base) => out.check(
                    if &m == base {
                        Ok(())
                    } else {
                        Err("matching differs from the canonical-schedule baseline".to_string())
                    },
                    &format!("Scripted run {run_idx}"),
                    "schedule-invariance",
                ),
            }
        }
        if !search.advance(&book) {
            break;
        }
    }
    out.exhausted = search.drained();
    out.counters.distinct_schedules = fingerprints.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::grid2d;
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_partition::simple::block_partition;

    fn small_instance() -> (CsrGraph, Partition) {
        let g = assign_weights(&grid2d(4, 4), WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, 3);
        let p = block_partition(g.num_vertices(), 4);
        (g, p)
    }

    #[test]
    fn standard_battery_holds_on_small_grid() {
        let (g, p) = small_instance();
        let ex = explore_matching(&g, &p, &standard_policies(4, 8));
        assert!(ex.ok(), "failures: {:#?}", ex.failures);
        assert_eq!(ex.counters.runs, 3 + 4 + 8);
        assert!(ex.counters.distinct_schedules > 1);
    }

    #[test]
    fn coloring_battery_holds_on_small_grid() {
        let (g, p) = small_instance();
        let ex = explore_coloring(&g, &p, &ColoringConfig::default(), &standard_policies(4, 4));
        assert!(ex.ok(), "failures: {:#?}", ex.failures);
        assert!(ex.counters.checks >= ex.counters.runs * 4);
    }

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
        assert!(ex.counters.runs >= 1);
    }
}
