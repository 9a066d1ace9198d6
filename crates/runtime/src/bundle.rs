//! Per-destination message aggregation ("aggressive message bundling",
//! §3.3 of the paper — the feature that distinguishes the algorithm from
//! previous ones and lets it scale to tens of thousands of processors).
//!
//! A bundle is a typed vector of the messages bound for one destination,
//! plus the size its encoding would have. In-process engines move the
//! vector to the receiver as is; only a transport that puts the bundle on
//! a wire (`cmg-net`) encodes it, into exactly `bytes` bytes.

use crate::message::WireMessage;
use crate::program::Rank;

/// A wire packet: what actually crosses the (simulated) network. With
/// bundling enabled a parcel carries every message its sender produced
/// for `dst` this round; with bundling disabled each logical message
/// rides its own parcel and pays its own latency.
#[derive(Clone, Debug, PartialEq)]
pub struct Parcel<M> {
    /// Destination rank.
    pub dst: Rank,
    /// The messages, in send order.
    pub msgs: Vec<M>,
    /// Encoded size: Σ [`WireMessage::encoded_len`] over `msgs`, the
    /// payload the cost model charges and a wire carries.
    pub bytes: usize,
}

impl<M> Parcel<M> {
    /// Number of logical messages inside.
    pub fn logical(&self) -> u32 {
        self.msgs.len() as u32
    }
}

/// Open-bundle count at which [`OutBox::push`] switches from linear
/// search to the dense `dst → bundle index` table. Below this, the scan
/// touches at most one cache line of bundle headers and beats the
/// table's extra indirection.
const DENSE_LOOKUP_THRESHOLD: usize = 16;

/// Sentinel in the dense lookup table: "no open bundle for this rank".
const NO_BUNDLE: u32 = u32::MAX;

/// Messages an open bundle has room for before its first growth.
const BUNDLE_CAPACITY: usize = 8;

/// Outgoing-message buffer for one rank and one round.
#[derive(Debug)]
pub struct OutBox<M: WireMessage> {
    bundling: bool,
    /// One open bundle per destination. A rank usually talks to few
    /// neighbors, so linear search is the fast path; once the open-bundle
    /// count crosses [`DENSE_LOOKUP_THRESHOLD`] (the FIAC/FIAB comm
    /// variants fan out to O(p) destinations) `dst_index` takes over.
    /// Without bundling every message is a closed parcel of its own.
    bundles: Vec<Parcel<M>>,
    /// Lazily built `dst → index into bundles` table (`NO_BUNDLE` =
    /// none). Empty until the threshold is first crossed; kept allocated
    /// across rounds afterwards, with entries reset in `finish_into`. Its
    /// O(p) size under FIAC / FIAB is inherent: those schemes really do
    /// send to p − 1 ranks every superstep.
    dst_index: Vec<u32>,
    /// Total ranks in the run; 0 disables the dense table.
    num_ranks: Rank,
}

impl<M: WireMessage> OutBox<M> {
    /// An empty outbox that knows the run's rank count, enabling the
    /// dense destination table for wide fan-out rounds. `bundling` selects
    /// aggregation vs one-packet-per-message behavior.
    pub(crate) fn for_ranks(bundling: bool, num_ranks: Rank) -> Self {
        OutBox {
            bundling,
            bundles: Vec::new(),
            dst_index: Vec::new(),
            num_ranks,
        }
    }

    /// Index of the open bundle for `dst`, or `None`. O(1) once the
    /// dense table is live, linear over the (few) open bundles before.
    #[inline]
    fn bundle_index(&mut self, dst: Rank) -> Option<usize> {
        if !self.dst_index.is_empty() {
            let i = self.dst_index[dst as usize];
            return (i != NO_BUNDLE).then_some(i as usize);
        }
        if self.num_ranks > 0 && self.bundles.len() >= DENSE_LOOKUP_THRESHOLD {
            // Crossing the threshold for the first time: build the table
            // and answer from it; stays live for the outbox's lifetime.
            self.dst_index = vec![NO_BUNDLE; self.num_ranks as usize];
            for (i, b) in self.bundles.iter().enumerate() {
                self.dst_index[b.dst as usize] = i as u32;
            }
            let i = self.dst_index[dst as usize];
            return (i != NO_BUNDLE).then_some(i as usize);
        }
        self.bundles.iter().position(|b| b.dst == dst)
    }

    /// Queues `msg` for delivery to `dst` next round.
    pub fn push(&mut self, dst: Rank, msg: &M) {
        let bytes = msg.encoded_len();
        if self.bundling {
            if let Some(i) = self.bundle_index(dst) {
                let bundle = &mut self.bundles[i];
                bundle.msgs.push(msg.clone());
                bundle.bytes += bytes;
                return;
            }
            if !self.dst_index.is_empty() {
                self.dst_index[dst as usize] = self.bundles.len() as u32;
            }
        }
        let mut msgs = Vec::with_capacity(if self.bundling { BUNDLE_CAPACITY } else { 1 });
        msgs.push(msg.clone());
        self.bundles.push(Parcel { dst, msgs, bytes });
    }

    /// `true` if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Closes the round, appending the parcels, sorted by destination for
    /// deterministic routing, to `out` (which must be empty) and leaving
    /// the outbox empty for reuse: the caller recycles `out` across
    /// rounds, and the outbox keeps its own bundle-list allocation.
    pub(crate) fn finish_into(&mut self, out: &mut Vec<Parcel<M>>) {
        debug_assert!(out.is_empty(), "finish_into wants a drained buffer");
        if !self.dst_index.is_empty() {
            for b in &self.bundles {
                self.dst_index[b.dst as usize] = NO_BUNDLE;
            }
        }
        // Close-out moves the vectors, nothing is copied.
        out.append(&mut self.bundles);
        // Stable: non-bundled same-destination parcels keep send order.
        out.sort_by_key(|p| p.dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish<M: WireMessage>(ob: &mut OutBox<M>) -> Vec<Parcel<M>> {
        let mut parcels = Vec::new();
        ob.finish_into(&mut parcels);
        parcels
    }

    #[test]
    fn bundling_merges_same_destination() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(true, 0);
        ob.push(3, &1);
        ob.push(3, &2);
        ob.push(1, &9);
        let parcels = finish(&mut ob);
        assert_eq!(parcels.len(), 2);
        assert_eq!(parcels[0].dst, 1);
        assert_eq!(parcels[1].dst, 3);
        assert_eq!(parcels[1].msgs, vec![1, 2]);
        assert_eq!(parcels[1].logical(), 2);
        assert_eq!(parcels[1].bytes, 8);
        assert!(ob.is_empty());
    }

    #[test]
    fn no_bundling_gives_one_parcel_per_message() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(false, 0);
        ob.push(3, &1);
        ob.push(3, &2);
        ob.push(1, &5);
        let parcels = finish(&mut ob);
        let msgs: Vec<(Rank, Vec<u32>, usize)> = parcels
            .into_iter()
            .map(|p| (p.dst, p.msgs, p.bytes))
            .collect();
        // Sorted by destination, send order kept within one.
        assert_eq!(
            msgs,
            vec![(1, vec![5], 4), (3, vec![1], 4), (3, vec![2], 4)]
        );
    }

    #[test]
    fn finish_resets_for_reuse() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(true, 0);
        ob.push(0, &1);
        assert_eq!(finish(&mut ob).len(), 1);
        assert!(finish(&mut ob).is_empty());
        ob.push(1, &2);
        assert_eq!(finish(&mut ob).len(), 1);
    }

    #[test]
    fn dense_table_matches_linear_lookup() {
        // Same pushes through a table-enabled and a linear-only outbox
        // must produce identical parcels, rounds on end.
        let p: Rank = 200;
        let mut dense: OutBox<u32> = OutBox::for_ranks(true, p);
        let mut linear: OutBox<u32> = OutBox::for_ranks(true, 0);
        for round in 0..3 {
            // Fan out well past DENSE_LOOKUP_THRESHOLD, with repeats.
            for i in 0..120u32 {
                let dst = (i * 7 + round) % p;
                dense.push(dst, &i);
                linear.push(dst, &i);
            }
            assert_eq!(finish(&mut dense), finish(&mut linear));
        }
    }

    #[test]
    fn finish_into_recycles_buffer() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(true, 8);
        let mut out = Vec::new();
        ob.push(3, &1);
        ob.push(1, &2);
        ob.finish_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dst, 1);
        out.clear();
        ob.push(5, &7);
        ob.finish_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 5);
    }

    #[test]
    fn bytes_are_the_encoded_size() {
        let mut ob: OutBox<u64> = OutBox::for_ranks(true, 0);
        for v in 0..6 {
            ob.push(3, &v);
        }
        ob.push(1, &7);
        let parcels = finish(&mut ob);
        assert_eq!(parcels[0].bytes, 8);
        assert_eq!(parcels[1].bytes, 6 * 8);
        assert_eq!(parcels[1].logical(), 6);
    }
}
