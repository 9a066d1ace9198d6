//! Pluggable delivery-order policies for the simulation engine.
//!
//! The paper's correctness argument rests on order-insensitivity: the
//! matching and coloring protocols must converge to valid results under
//! *any* interleaving of message deliveries. The engines, however, are
//! deliberately deterministic — every mailbox is drained in the canonical
//! `(src, arrival, seq)` order. A [`DeliveryPolicy`] perturbs exactly that
//! sort point, letting a checker (see the `cmg-check` crate) re-run the
//! same program under hundreds of adversarial interleavings.
//!
//! # Faithfulness: per-source FIFO
//!
//! MPI guarantees *non-overtaking*: two messages from the same sender to
//! the same receiver are received in send order. The protocols rely on
//! this (e.g. a rank's phase-`k` colors must land before its phase-`k`
//! DONE). Every policy therefore only reorders packets **across**
//! sources and may *delay* a source, but never reorders two packets from
//! the same source. The engine debug-asserts this on every permutation a
//! policy returns.
//!
//! All policies are deterministic functions of `(rank, round, mailbox)`
//! — a given policy replays the exact same schedule, so any failure an
//! exploration finds is reproducible from its seed.

use crate::program::Rank;
use std::fmt;
use std::sync::Arc;

/// Delivery-relevant fingerprint of one in-flight packet, in canonical
/// `(src, arrival, seq)` order. Handed to [`DeliveryScript::choose`] so
/// external explorers can enumerate schedules without seeing payloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeliveryKey {
    /// Sending rank.
    pub src: Rank,
    /// Simulated arrival time.
    pub arrival: f64,
    /// Mailbox insertion index (tie-break of the canonical order).
    pub seq: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// FNV-1a hash of the payload — lets explorers prune permutations
    /// that swap byte-identical packets (which commute).
    pub payload_hash: u64,
}

/// An externally driven delivery order: consulted once per (rank, round)
/// with the canonically ordered mailbox keys, it returns the delivery
/// permutation (indices into `keys`), or `None` for canonical order.
///
/// Returned permutations must preserve per-source FIFO order (see the
/// module docs); the engine debug-asserts this. Scripts may keep interior
/// state (e.g. behind a `Mutex`) to enumerate schedules across runs, but
/// stateful scripts require a serial engine: under `parallel_sim` the
/// consultation order across ranks is nondeterministic, so the engine
/// falls back to the serial path whenever a scripted policy is installed.
pub trait DeliveryScript: Send + Sync {
    /// Chooses the delivery permutation for one mailbox.
    fn choose(&self, rank: Rank, round: u64, keys: &[DeliveryKey]) -> Option<Vec<usize>>;
}

/// How a rank's mailbox is ordered (and possibly delayed) before
/// delivery. `Arrival` is the engine default and is bit-identical to the
/// historical behavior; every other variant is an adversarial schedule
/// for correctness checking and costs one extra sort + key pass per
/// delivery.
#[derive(Clone, Default)]
pub enum DeliveryPolicy {
    /// Canonical `(src, arrival, seq)` order — the deterministic default.
    #[default]
    Arrival,
    /// Seeded random interleaving of the per-source FIFO queues,
    /// re-derived from `(seed, rank, round)` — stateless, so it is safe
    /// under `parallel_sim` and replays exactly.
    RandomPermutation {
        /// Seed selecting the schedule.
        seed: u64,
    },
    /// Sources delivered in descending rank order (within a source:
    /// FIFO). Adversarial mirror image of the canonical order.
    ReverseRank,
    /// Newest-first: sources ordered by descending arrival time of their
    /// most recent packet (within a source: FIFO).
    Lifo,
    /// Adversarial lag: every packet *from* `src` is withheld for
    /// `rounds` engine rounds at each receiver before entering the
    /// mailbox, modelling one slow rank / congested link. FIFO from the
    /// delayed source is preserved (all its traffic shifts uniformly).
    DelayRank {
        /// The rank whose outgoing traffic is delayed.
        src: Rank,
        /// How many rounds each packet is withheld (≥ 1 to delay).
        rounds: u64,
    },
    /// Delivery order chosen by an external script — the hook the
    /// bounded-exhaustive explorer in `cmg-check` drives.
    Scripted(Arc<dyn DeliveryScript>),
}

impl fmt::Debug for DeliveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryPolicy::Arrival => write!(f, "Arrival"),
            DeliveryPolicy::RandomPermutation { seed } => {
                write!(f, "RandomPermutation {{ seed: {seed} }}")
            }
            DeliveryPolicy::ReverseRank => write!(f, "ReverseRank"),
            DeliveryPolicy::Lifo => write!(f, "Lifo"),
            DeliveryPolicy::DelayRank { src, rounds } => {
                write!(f, "DelayRank {{ src: {src}, rounds: {rounds} }}")
            }
            DeliveryPolicy::Scripted(_) => write!(f, "Scripted(..)"),
        }
    }
}

impl DeliveryPolicy {
    /// `true` for the zero-cost canonical policy.
    pub(crate) fn is_default(&self) -> bool {
        matches!(self, DeliveryPolicy::Arrival)
    }

    /// `true` when the policy needs an engine that consults it serially.
    pub(crate) fn requires_serial(&self) -> bool {
        matches!(self, DeliveryPolicy::Scripted(_))
    }

    /// `true` when the policy computes payload hashes for its keys.
    pub(crate) fn wants_payload_hash(&self) -> bool {
        matches!(self, DeliveryPolicy::Scripted(_))
    }

    /// Rounds a packet from `src` arriving at `rank` now is withheld
    /// before it may be delivered (0 = deliver this round).
    pub(crate) fn hold_rounds(&self, _rank: Rank, _round: u64, src: Rank) -> u64 {
        match self {
            DeliveryPolicy::DelayRank { src: slow, rounds } if *slow == src => *rounds,
            _ => 0,
        }
    }

    /// The delivery permutation for a canonically ordered mailbox, or
    /// `None` to keep canonical order. Always preserves per-source FIFO.
    pub(crate) fn permutation(
        &self,
        rank: Rank,
        round: u64,
        keys: &[DeliveryKey],
    ) -> Option<Vec<usize>> {
        if keys.len() <= 1 {
            return None;
        }
        match self {
            DeliveryPolicy::Arrival | DeliveryPolicy::DelayRank { .. } => None,
            DeliveryPolicy::RandomPermutation { seed } => {
                Some(random_fifo_merge(*seed, rank, round, keys))
            }
            DeliveryPolicy::ReverseRank => {
                let runs = source_runs(keys);
                let mut perm = Vec::with_capacity(keys.len());
                for &(start, end) in runs.iter().rev() {
                    perm.extend(start..end);
                }
                Some(perm)
            }
            DeliveryPolicy::Lifo => {
                // Sources ordered newest-first by the arrival of their
                // latest packet (ties: higher src first), FIFO inside.
                let mut runs = source_runs(keys);
                runs.sort_by(|a, b| {
                    let (ka, kb) = (&keys[a.1 - 1], &keys[b.1 - 1]);
                    kb.arrival.total_cmp(&ka.arrival).then(kb.src.cmp(&ka.src))
                });
                let mut perm = Vec::with_capacity(keys.len());
                for (start, end) in runs {
                    perm.extend(start..end);
                }
                Some(perm)
            }
            DeliveryPolicy::Scripted(script) => script.choose(rank, round, keys),
        }
    }
}

/// Contiguous per-source runs `[start, end)` of a canonically ordered
/// key slice.
fn source_runs(keys: &[DeliveryKey]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=keys.len() {
        if i == keys.len() || keys[i].src != keys[start].src {
            runs.push((start, i));
            start = i;
        }
    }
    runs
}

/// `true` iff `perm` is a permutation of `0..keys.len()` that keeps every
/// source's packets in their canonical relative order.
pub fn preserves_source_fifo(keys: &[DeliveryKey], perm: &[usize]) -> bool {
    if perm.len() != keys.len() {
        return false;
    }
    let mut seen = vec![false; keys.len()];
    // Last canonical index delivered so far, per source (canonical order
    // within one source is ascending index).
    let mut last: Vec<(Rank, usize)> = Vec::new();
    for &i in perm {
        if i >= keys.len() || seen[i] {
            return false;
        }
        seen[i] = true;
        let src = keys[i].src;
        match last.iter_mut().find(|(s, _)| *s == src) {
            Some((_, prev)) => {
                if *prev > i {
                    return false;
                }
                *prev = i;
            }
            None => last.push((src, i)),
        }
    }
    true
}

/// Deterministic random interleaving of per-source FIFO queues: at each
/// step one non-exhausted source is drawn uniformly and its head packet
/// is delivered next.
fn random_fifo_merge(seed: u64, rank: Rank, round: u64, keys: &[DeliveryKey]) -> Vec<usize> {
    let mut state = mix64(
        seed ^ mix64((rank as u64).wrapping_add(0x9e37_79b9_7f4a_7c15))
            ^ mix64(round.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1)),
    );
    // (next, end) cursor per source run.
    let mut cursors: Vec<(usize, usize)> = source_runs(keys);
    let mut perm = Vec::with_capacity(keys.len());
    while !cursors.is_empty() {
        state = mix64(state);
        let pick = (state % cursors.len() as u64) as usize;
        let (next, end) = &mut cursors[pick];
        perm.push(*next);
        *next += 1;
        if next == end {
            cursors.swap_remove(pick);
        }
    }
    perm
}

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a payload — the packet fingerprint in [`DeliveryKey`].
pub(crate) fn payload_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(srcs: &[(Rank, f64)]) -> Vec<DeliveryKey> {
        srcs.iter()
            .enumerate()
            .map(|(i, &(src, arrival))| DeliveryKey {
                src,
                arrival,
                seq: i as u32,
                bytes: 8,
                payload_hash: 0,
            })
            .collect()
    }

    #[test]
    fn default_policy_keeps_canonical_order() {
        let k = keys(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert!(DeliveryPolicy::Arrival.permutation(0, 1, &k).is_none());
        assert!(DeliveryPolicy::Arrival.is_default());
        assert!(!DeliveryPolicy::ReverseRank.is_default());
    }

    #[test]
    fn reverse_rank_reverses_runs_not_packets() {
        let k = keys(&[(0, 1.0), (0, 2.0), (2, 1.5), (5, 0.5)]);
        let perm = DeliveryPolicy::ReverseRank.permutation(0, 1, &k).unwrap();
        assert_eq!(perm, vec![3, 2, 0, 1]);
        assert!(preserves_source_fifo(&k, &perm));
    }

    #[test]
    fn lifo_orders_sources_newest_first() {
        let k = keys(&[(0, 5.0), (1, 1.0), (1, 2.0), (3, 4.0)]);
        let perm = DeliveryPolicy::Lifo.permutation(0, 1, &k).unwrap();
        // Source 0's newest is 5.0, source 3's is 4.0, source 1's is 2.0.
        assert_eq!(perm, vec![0, 3, 1, 2]);
        assert!(preserves_source_fifo(&k, &perm));
    }

    #[test]
    fn random_permutations_are_fifo_preserving_and_replayable() {
        let k = keys(&[(0, 1.0), (0, 2.0), (1, 1.0), (2, 1.0), (2, 2.0)]);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let pol = DeliveryPolicy::RandomPermutation { seed };
            let perm = pol.permutation(3, 7, &k).unwrap();
            assert!(preserves_source_fifo(&k, &perm), "seed {seed}: {perm:?}");
            assert_eq!(pol.permutation(3, 7, &k).unwrap(), perm, "must replay");
            seen.insert(perm);
        }
        // 5 packets over sources sized (2,1,2): 30 FIFO merges exist;
        // 64 seeds must hit a healthy variety of them.
        assert!(seen.len() > 10, "only {} distinct merges", seen.len());
    }

    #[test]
    fn delay_rank_holds_only_the_slow_source() {
        let pol = DeliveryPolicy::DelayRank { src: 2, rounds: 3 };
        assert_eq!(pol.hold_rounds(0, 5, 2), 3);
        assert_eq!(pol.hold_rounds(0, 5, 1), 0);
        assert!(pol
            .permutation(0, 5, &keys(&[(0, 1.0), (1, 1.0)]))
            .is_none());
    }

    #[test]
    fn fifo_checker_rejects_reordered_source() {
        let k = keys(&[(0, 1.0), (0, 2.0), (1, 1.0)]);
        assert!(preserves_source_fifo(&k, &[2, 0, 1]));
        assert!(!preserves_source_fifo(&k, &[1, 0, 2]), "0's packets swap");
        assert!(!preserves_source_fifo(&k, &[0, 1]), "wrong length");
        assert!(!preserves_source_fifo(&k, &[0, 0, 1]), "duplicate index");
    }

    #[test]
    fn payload_fingerprint_distinguishes_payloads() {
        assert_eq!(payload_fingerprint(b"abc"), payload_fingerprint(b"abc"));
        assert_ne!(payload_fingerprint(b"abc"), payload_fingerprint(b"abd"));
    }
}
