//! Typed collective protocol pieces layered on [`RankCtx`].
//!
//! The paper's two algorithms (and every variant of them in this
//! workspace) share one communication skeleton: a boundary fan-out per
//! superstep, a DONE wave ("wait until all incoming messages are
//! successfully received"), and a k-ary tree allreduce for the global
//! termination test. Before this module each rank program hand-rolled
//! that skeleton; now the pieces live here once, as small composable
//! state machines that *drive* a `RankCtx` but leave message types,
//! charging, and event emission to the algorithm:
//!
//! * [`NeighborExchange`] — per-superstep fan-out under the paper's
//!   three communication schemes (FIAB / FIAC / neighbor-customized),
//!   including the per-neighbour dedup stamps, FIAC's empty-marker
//!   bookkeeping and the rank's DONE scope.
//! * [`DoneWave`] — counts per-phase DONE announcements from a rank
//!   scope.
//! * [`TreeAllreduce`] — a k-ary reduction tree over a [`Monoid`],
//!   replacing the 8-ary trees previously copied into both coloring
//!   programs.
//! * [`fan_out`] — the trivial "same message to each rank in scope"
//!   primitive.
//!
//! None of these pieces send messages on their own timetable: the
//! algorithm decides *when* (preserving bit-identical traces), the
//! collective decides *whether* and *to whom*.

use crate::message::WireMessage;
use crate::program::{Rank, RankCtx};

/// A commutative, associative combine with an identity — the reduction
/// operator of a [`TreeAllreduce`].
pub trait Monoid: Copy {
    /// The neutral element (`identity.combine(x) == x`).
    fn identity() -> Self;
    /// The combine operator.
    fn combine(self, other: Self) -> Self;
}

/// u64 under addition — the "total remaining work" reduction both
/// coloring programs use for their termination test.
impl Monoid for u64 {
    #[inline]
    fn identity() -> Self {
        0
    }

    #[inline]
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

/// Sends `msg` to each rank `to` yields, in order. The caller controls
/// the scope (and thereby the send order), so ports of existing
/// programs stay byte-identical.
pub fn fan_out<M: WireMessage>(ctx: &mut RankCtx<M>, to: impl IntoIterator<Item = Rank>, msg: &M) {
    for r in to {
        ctx.send(r, msg);
    }
}

/// What completing one level of a [`TreeAllreduce`] asks the caller to
/// do with the combined value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOutcome<T> {
    /// Interior/leaf rank: forward `value` to `parent`.
    ToParent {
        /// This rank's parent in the reduction tree.
        parent: Rank,
        /// Own contribution combined with all children's.
        value: T,
    },
    /// Root rank: `value` is the global reduction; act on it (typically
    /// broadcast a decision back down the same tree).
    Root {
        /// The global combined value.
        value: T,
    },
}

/// A k-ary tree reduction over a [`Monoid`], keyed by phase so
/// contributions from different phases never mix even when messages
/// from consecutive phases overlap in flight.
///
/// The tree is the classic implicit heap layout: rank `r`'s children
/// are `k*r + 1 ..= k*r + k` (those `< num_ranks`) and its parent is
/// `(r - 1) / k`. The caller owns the message format: it calls
/// [`TreeAllreduce::absorb_child`] when a child's contribution arrives
/// and [`TreeAllreduce::try_complete`] once its own contribution is
/// ready, then sends the resulting value itself.
#[derive(Clone, Debug)]
pub struct TreeAllreduce<T: Monoid> {
    rank: Rank,
    num_children: usize,
    parent: Option<Rank>,
    children: Vec<Rank>,
    /// Per-phase partial sums: (phase, children heard from, accumulated
    /// value). Tiny (≤ a couple of in-flight phases), so a flat vec
    /// beats a map.
    acc: Vec<(u32, usize, T)>,
}

impl<T: Monoid> TreeAllreduce<T> {
    /// A reduction tree of the given arity over ranks `0..num_ranks`,
    /// rooted at rank 0.
    pub fn new(rank: Rank, num_ranks: Rank, arity: u32) -> Self {
        assert!(arity >= 1, "reduction tree arity must be at least 1");
        let children: Vec<Rank> = (1..=arity)
            .map(|i| arity * rank + i)
            .filter(|&c| c < num_ranks)
            .collect();
        TreeAllreduce {
            rank,
            num_children: children.len(),
            parent: (rank > 0).then(|| (rank - 1) / arity),
            children,
            acc: Vec::new(),
        }
    }

    /// This rank's children in the tree, ascending.
    #[inline]
    pub fn children(&self) -> &[Rank] {
        &self.children
    }

    /// Records a child's contribution for `phase`.
    pub fn absorb_child(&mut self, phase: u32, value: T) {
        match self.acc.iter_mut().find(|e| e.0 == phase) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 = entry.2.combine(value);
            }
            None => self.acc.push((phase, 1, value)),
        }
    }

    /// Snapshot accessor: the in-flight per-phase partial sums as
    /// `(phase, children heard, accumulated value)` triples. In-flight
    /// reductions are algorithm state — a checkpoint that omits them
    /// restores a rank that waits forever for contributions its peers
    /// already sent.
    pub fn in_flight(&self) -> &[(u32, usize, T)] {
        &self.acc
    }

    /// Restore accessor: reinstates partial sums captured by
    /// [`TreeAllreduce::in_flight`] into a freshly built tree.
    pub fn restore_in_flight(&mut self, acc: Vec<(u32, usize, T)>) {
        self.acc = acc;
    }

    /// Once every child of `phase` has been absorbed, combines in this
    /// rank's own contribution and says what to do with the result;
    /// `None` while contributions are still outstanding. Completing a
    /// phase clears its slot, so the tree is reusable across phases.
    pub fn try_complete(&mut self, phase: u32, own: T) -> Option<ReduceOutcome<T>> {
        let pos = self.acc.iter().position(|e| e.0 == phase);
        let got = pos.map_or(0, |i| self.acc[i].1);
        if got < self.num_children {
            return None;
        }
        let value = match pos {
            Some(i) => self.acc.swap_remove(i).2.combine(own),
            None => own,
        };
        Some(match self.parent {
            Some(parent) => ReduceOutcome::ToParent { parent, value },
            None => {
                debug_assert_eq!(self.rank, 0, "parentless rank must be the root");
                ReduceOutcome::Root { value }
            }
        })
    }
}

/// Counts per-phase DONE announcements — the paper's "wait until all
/// incoming messages are successfully received" wave, generalized to
/// any rank scope.
///
/// The caller records one announcement per sender via
/// [`DoneWave::record`] and polls [`DoneWave::ready`] against the
/// expected scope size. Phases are independent, so a fast neighbor's
/// next-phase DONE arriving early doesn't corrupt the current wave.
#[derive(Clone, Debug, Default)]
pub struct DoneWave {
    /// (phase, announcements heard). Flat vec for the same reason as
    /// [`TreeAllreduce::acc`].
    counts: Vec<(u32, usize)>,
}

impl DoneWave {
    /// An empty wave counter.
    pub fn new() -> Self {
        DoneWave::default()
    }

    /// Records one DONE announcement for `phase`.
    pub fn record(&mut self, phase: u32) {
        match self.counts.iter_mut().find(|e| e.0 == phase) {
            Some(entry) => entry.1 += 1,
            None => self.counts.push((phase, 1)),
        }
    }

    /// Announcements heard so far for `phase`.
    pub fn count(&self, phase: u32) -> usize {
        self.counts.iter().find(|e| e.0 == phase).map_or(0, |e| e.1)
    }

    /// Whether all `expected` announcements for `phase` have arrived.
    /// (With `expected == 0` the wave is trivially ready.)
    pub fn ready(&self, phase: u32, expected: usize) -> bool {
        self.count(phase) >= expected
    }

    /// Drops the counter for a completed `phase`, keeping the vec tiny.
    pub fn clear(&mut self, phase: u32) {
        if let Some(i) = self.counts.iter().position(|e| e.0 == phase) {
            self.counts.swap_remove(i);
        }
    }

    /// Snapshot accessor: the in-flight `(phase, announcements heard)`
    /// counters. Like [`TreeAllreduce::in_flight`], these are algorithm
    /// state: DONE announcements consumed before a checkpoint are never
    /// re-sent, so dropping the counters deadlocks the restored wave.
    pub fn in_flight(&self) -> &[(u32, usize)] {
        &self.counts
    }

    /// Restore accessor: reinstates counters captured by
    /// [`DoneWave::in_flight`].
    pub fn restore_in_flight(&mut self, counts: Vec<(u32, usize)>) {
        self.counts = counts;
    }
}

/// The paper's three communication schemes for publishing boundary
/// information (§ "communication customization").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FanoutScheme {
    /// "First In All Broadcast": every publish goes to every other
    /// rank, no dedup.
    Fiab,
    /// "First In All Customized": publish to every other rank at most
    /// once per superstep; ranks that received no content get an
    /// explicit empty marker at superstep end so they can count
    /// arrivals.
    Fiac,
    /// Neighbor-customized, the paper's NEW scheme: publish only to
    /// ranks owning a ghost copy, at most once per superstep.
    Neighbor,
}

/// Per-superstep boundary fan-out under a [`FanoutScheme`].
///
/// Sizes its dedup state by the rank's neighbour ranks, not by the rank
/// count — a stamped `dest_seen` slot per neighbour (no clearing loop)
/// and, under FIAC only, a content marker per neighbour — and names the
/// rank's DONE scope. Leaves everything else (what to send, when, what
/// it costs) to the algorithm.
#[derive(Clone, Debug)]
pub struct NeighborExchange {
    scheme: FanoutScheme,
    rank: Rank,
    num_ranks: Rank,
    /// The partition's neighbour ranks, ascending (empty under FIAB):
    /// every owner a customized publish names is one of them.
    neighbors: Vec<Rank>,
    /// Stamp-based dedup (empty under FIAB): `dest_seen[i] ==
    /// dest_stamp` ⇔ this publish already sent to `neighbors[i]`.
    dest_seen: Vec<u32>,
    dest_stamp: u32,
    /// FIAC only (else empty): the neighbours that got content this
    /// superstep, which [`NeighborExchange::finish_superstep`] skips.
    content_sent: Vec<bool>,
}

impl NeighborExchange {
    /// A fan-out helper for one rank of `num_ranks` under `scheme`, over
    /// the rank's sorted, distinct `neighbor_ranks`.
    pub fn new(scheme: FanoutScheme, rank: Rank, num_ranks: Rank, neighbor_ranks: &[Rank]) -> Self {
        let slots = |on: bool| if on { neighbor_ranks.len() } else { 0 };
        NeighborExchange {
            scheme,
            rank,
            num_ranks,
            neighbors: neighbor_ranks[..slots(scheme != FanoutScheme::Fiab)].to_vec(),
            dest_seen: vec![0; slots(scheme != FanoutScheme::Fiab)],
            dest_stamp: 0,
            content_sent: vec![false; slots(scheme == FanoutScheme::Fiac)],
        }
    }

    /// The ranks this rank sends DONE to and hears DONE from, ascending:
    /// its neighbour ranks under [`FanoutScheme::Neighbor`], every other
    /// rank under the FIA* schemes (iterated, not stored).
    pub fn peers(&self) -> impl Iterator<Item = Rank> + '_ {
        let (all, neighbors) = match self.scheme {
            FanoutScheme::Neighbor => (0..0, &self.neighbors[..]),
            FanoutScheme::Fiab | FanoutScheme::Fiac => (0..self.num_ranks, &[][..]),
        };
        all.filter(move |&r| r != self.rank)
            .chain(neighbors.iter().copied())
    }

    /// How many ranks [`NeighborExchange::peers`] yields.
    pub fn peer_count(&self) -> usize {
        match self.scheme {
            FanoutScheme::Neighbor => self.neighbors.len(),
            FanoutScheme::Fiab | FanoutScheme::Fiac => self.num_ranks.saturating_sub(1) as usize,
        }
    }

    /// Resets per-superstep state (FIAC's content markers). Call once at
    /// the top of every superstep, before any
    /// [`NeighborExchange::publish`].
    pub fn begin_superstep(&mut self) {
        self.content_sent.fill(false);
    }

    /// Publishes one boundary datum: under FIAB it goes to every other
    /// rank; under FIAC/Neighbor it goes to each rank in `ghost_owners`
    /// (the owners of this vertex's ghost copies, with repeats, each a
    /// neighbour rank) exactly once — the dedup stamp is per publish
    /// call, so successive publishes to the same owner each get their
    /// own message. `ghost_owners` is an iterator, not a `DistGraph`, so
    /// the runtime stays free of partition-crate types.
    pub fn publish<M: WireMessage>(
        &mut self,
        ctx: &mut RankCtx<M>,
        ghost_owners: impl Iterator<Item = Rank>,
        msg: &M,
    ) {
        match self.scheme {
            FanoutScheme::Fiab => fan_out(ctx, self.peers(), msg),
            FanoutScheme::Fiac | FanoutScheme::Neighbor => {
                self.dest_stamp += 1;
                for owner in ghost_owners {
                    let slot = self.neighbors.partition_point(|&r| r < owner);
                    debug_assert_eq!(self.neighbors.get(slot), Some(&owner), "not a neighbour");
                    if self.dest_seen[slot] != self.dest_stamp {
                        self.dest_seen[slot] = self.dest_stamp;
                        ctx.send(owner, msg);
                        if let Some(sent) = self.content_sent.get_mut(slot) {
                            *sent = true;
                        }
                    }
                }
            }
        }
    }

    /// FIAC superstep end: sends `empty_msg`, in ascending order, to every
    /// other rank that received no content this superstep, so receivers
    /// count one arrival per sender per superstep. No-op otherwise.
    pub fn finish_superstep<M: WireMessage>(&mut self, ctx: &mut RankCtx<M>, empty_msg: &M) {
        if self.scheme != FanoutScheme::Fiac {
            return;
        }
        // Walk all ranks beside the neighbours, who alone got content.
        let mut slot = 0;
        for r in 0..self.num_ranks {
            let is_neighbor = self.neighbors.get(slot) == Some(&r);
            let got_content = is_neighbor && self.content_sent[slot];
            slot += usize::from(is_neighbor);
            if r != self.rank && !got_content {
                ctx.send(r, empty_msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rank: Rank, n: Rank) -> RankCtx<u32> {
        RankCtx::new(rank, n, true, cmg_obs::RecorderHandle::noop())
    }

    fn sent_dests(ctx: &mut RankCtx<u32>) -> Vec<Rank> {
        let (_, parcels) = ctx.end_round();
        parcels.iter().map(|p| p.dst).collect()
    }

    #[test]
    fn tree_shape_matches_implicit_heap() {
        let t: TreeAllreduce<u64> = TreeAllreduce::new(0, 20, 8);
        assert_eq!(t.parent, None);
        assert_eq!(t.children(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let t: TreeAllreduce<u64> = TreeAllreduce::new(2, 20, 8);
        assert_eq!(t.parent, Some(0));
        assert_eq!(t.children(), &[17, 18, 19]);
        let t: TreeAllreduce<u64> = TreeAllreduce::new(9, 20, 8);
        assert_eq!(t.parent, Some(1));
        assert!(t.children().is_empty());
        // Binary tree, for arity generality.
        let t: TreeAllreduce<u64> = TreeAllreduce::new(1, 7, 2);
        assert_eq!(t.parent, Some(0));
        assert_eq!(t.children(), &[3, 4]);
    }

    #[test]
    fn reduce_combines_children_then_own() {
        let mut t: TreeAllreduce<u64> = TreeAllreduce::new(0, 3, 8);
        assert_eq!(t.try_complete(0, 5), None);
        t.absorb_child(0, 10);
        assert_eq!(t.try_complete(0, 5), None);
        t.absorb_child(0, 100);
        assert_eq!(
            t.try_complete(0, 5),
            Some(ReduceOutcome::Root { value: 115 })
        );
        // The slot was cleared: the next phase starts fresh.
        t.absorb_child(1, 1);
        t.absorb_child(1, 2);
        assert_eq!(t.try_complete(1, 0), Some(ReduceOutcome::Root { value: 3 }));
    }

    #[test]
    fn reduce_interleaved_phases_stay_separate() {
        let mut t: TreeAllreduce<u64> = TreeAllreduce::new(1, 20, 8);
        // Rank 1's children are 9..=16 (8 of them).
        for v in 0..8u64 {
            t.absorb_child(7, v);
            if v < 4 {
                t.absorb_child(8, 100 + v);
            }
        }
        assert_eq!(
            t.try_complete(7, 1000),
            Some(ReduceOutcome::ToParent {
                parent: 0,
                value: 1028
            })
        );
        assert_eq!(t.try_complete(8, 0), None);
        for v in 4..8u64 {
            t.absorb_child(8, 100 + v);
        }
        assert_eq!(
            t.try_complete(8, 0),
            Some(ReduceOutcome::ToParent {
                parent: 0,
                value: 828
            })
        );
    }

    #[test]
    fn leaf_completes_immediately() {
        let mut t: TreeAllreduce<u64> = TreeAllreduce::new(9, 10, 8);
        assert_eq!(
            t.try_complete(0, 42),
            Some(ReduceOutcome::ToParent {
                parent: 1,
                value: 42
            })
        );
    }

    #[test]
    fn done_wave_counts_per_phase() {
        let mut w = DoneWave::new();
        assert!(w.ready(0, 0));
        assert!(!w.ready(0, 2));
        w.record(0);
        w.record(1);
        w.record(0);
        assert_eq!(w.count(0), 2);
        assert_eq!(w.count(1), 1);
        assert!(w.ready(0, 2));
        assert!(!w.ready(1, 2));
        w.clear(0);
        assert_eq!(w.count(0), 0);
        assert_eq!(w.count(1), 1);
    }

    /// Each parcel of the round as `(destination, its messages)`.
    fn sent(ctx: &mut RankCtx<u32>) -> Vec<(Rank, Vec<u32>)> {
        let (_, parcels) = ctx.end_round();
        parcels.into_iter().map(|p| (p.dst, p.msgs)).collect()
    }

    #[test]
    fn fiab_publishes_to_everyone() {
        let mut x = NeighborExchange::new(FanoutScheme::Fiab, 1, 4, &[3]);
        let mut c = ctx(1, 4);
        x.begin_superstep();
        x.publish(&mut c, [3u32].into_iter(), &7);
        let dests = sent_dests(&mut c);
        assert_eq!(dests, vec![0, 2, 3]);
        let mut c = ctx(1, 4);
        x.finish_superstep(&mut c, &0);
        assert!(sent_dests(&mut c).is_empty());
        // No neighbour list, no dedup table.
        assert!(x.neighbors.is_empty() && x.dest_seen.is_empty() && x.content_sent.is_empty());
    }

    #[test]
    fn fiac_dedups_per_publish_and_sends_empties() {
        let mut x = NeighborExchange::new(FanoutScheme::Fiac, 1, 4, &[0, 3]);
        let mut c = ctx(1, 4);
        x.begin_superstep();
        // Repeated owners within one publish collapse to one send…
        x.publish(&mut c, [3u32, 3].into_iter(), &7);
        // …but a second publish (a different datum) sends again.
        x.publish(&mut c, [3u32].into_iter(), &8);
        x.finish_superstep(&mut c, &0);
        let (_, parcels) = c.end_round();
        // Content to 3 (twice, bundled into one parcel); empties to 0, 2.
        let dests: Vec<Rank> = parcels.iter().map(|p| p.dst).collect();
        assert_eq!(dests, vec![0, 2, 3]);
        let logical: Vec<u32> = parcels.iter().map(|p| p.logical()).collect();
        assert_eq!(logical, vec![1, 1, 2]);
        // Next superstep resets content markers: 3 gets an empty now.
        let mut c = ctx(1, 4);
        x.begin_superstep();
        x.publish(&mut c, [0u32].into_iter(), &9);
        x.finish_superstep(&mut c, &0);
        assert_eq!(sent(&mut c), vec![(0, vec![9]), (2, vec![0]), (3, vec![0])]);
    }

    #[test]
    fn fiac_sends_content_to_neighbours_and_empties_to_the_rest() {
        // Rank 2 of 7 borders ranks 1, 4 and 6 only.
        let mut x = NeighborExchange::new(FanoutScheme::Fiac, 2, 7, &[1, 4, 6]);
        assert_eq!((x.dest_seen.len(), x.content_sent.len()), (3, 3));
        let mut c = ctx(2, 7);
        x.begin_superstep();
        x.publish(&mut c, [4u32, 4, 6].into_iter(), &7);
        x.finish_superstep(&mut c, &0);
        // Content to neighbours 4 and 6 and no empty beside it; one empty
        // to every other rank, non-neighbours 0, 3, 5 included, ascending.
        assert_eq!(
            sent(&mut c),
            vec![
                (0, vec![0]),
                (1, vec![0]),
                (3, vec![0]),
                (4, vec![7]),
                (5, vec![0]),
                (6, vec![7]),
            ]
        );
    }

    #[test]
    fn neighbor_scheme_dedups_without_empties() {
        let mut x = NeighborExchange::new(FanoutScheme::Neighbor, 0, 4, &[1, 2]);
        assert!(x.content_sent.is_empty());
        let mut c = ctx(0, 4);
        x.begin_superstep();
        x.publish(&mut c, [2u32, 1, 2].into_iter(), &7);
        // The stamp is per publish: the same owners, repeated again, each
        // get the second datum once.
        x.publish(&mut c, [1u32, 2, 1, 1].into_iter(), &8);
        x.finish_superstep(&mut c, &0);
        assert_eq!(sent(&mut c), vec![(1, vec![7, 8]), (2, vec![7, 8])]);
    }

    #[test]
    fn peers_by_scheme() {
        let neighbors = [0, 2];
        let x = NeighborExchange::new(FanoutScheme::Neighbor, 1, 4, &neighbors);
        assert_eq!(x.peers().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(x.peer_count(), 2);
        let x = NeighborExchange::new(FanoutScheme::Fiab, 1, 4, &neighbors);
        assert_eq!(x.peers().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(x.peer_count(), 3);
        let x = NeighborExchange::new(FanoutScheme::Fiac, 1, 4, &neighbors);
        assert_eq!(x.peers().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(x.peer_count(), 3);
        // Over no ranks (a program whose index is not built yet).
        let x = NeighborExchange::new(FanoutScheme::Fiac, 0, 0, &[]);
        assert_eq!((x.peers().count(), x.peer_count()), (0, 0));
    }

    #[test]
    fn fan_out_sends_in_scope_order() {
        let mut c = ctx(0, 4);
        fan_out(&mut c, [3, 1, 2], &5);
        assert_eq!(sent_dests(&mut c), vec![1, 2, 3]);
    }
}
