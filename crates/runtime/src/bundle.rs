//! Per-destination message aggregation ("aggressive message bundling",
//! §3.3 of the paper — the feature that distinguishes the algorithm from
//! previous ones and lets it scale to tens of thousands of processors).

use crate::message::WireMessage;
use crate::program::Rank;
use bytes::{Bytes, BytesMut};

/// A wire packet: what actually crosses the (simulated) network. With
/// bundling enabled a packet carries every message its sender produced for
/// `dst` this round; with bundling disabled each logical message rides its
/// own packet and pays its own latency.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Destination rank.
    pub dst: Rank,
    /// Encoded messages.
    pub payload: Bytes,
    /// Number of logical messages inside.
    pub logical: u32,
}

/// Cumulative logical-vs-wire accounting for one outbox's lifetime:
/// quantifies what bundling saved (the paper's aggregation win).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Logical messages pushed.
    pub logical_messages: u64,
    /// Wire packets produced by `finish`.
    pub wire_packets: u64,
    /// Payload bytes across all produced packets.
    pub wire_bytes: u64,
}

/// Open-bundle count at which [`OutBox::push`] switches from linear
/// search to the dense `dst → bundle index` table. Below this, the scan
/// touches at most one cache line of `(Rank, _, _)` headers and beats
/// the table's extra indirection.
const DENSE_LOOKUP_THRESHOLD: usize = 16;

/// Sentinel in the dense lookup table: "no open bundle for this rank".
const NO_BUNDLE: u32 = u32::MAX;

/// Outgoing-message buffer for one rank and one round.
#[derive(Debug)]
pub struct OutBox<M: WireMessage> {
    bundling: bool,
    /// One open bundle per destination. A rank usually talks to few
    /// neighbors, so linear search is the fast path; once the open-bundle
    /// count crosses [`DENSE_LOOKUP_THRESHOLD`] (the FIAC/FIAB comm
    /// variants fan out to O(p) destinations) `dst_index` takes over.
    bundles: Vec<(Rank, BytesMut, u32)>,
    /// Lazily built `dst → index into bundles` table (`NO_BUNDLE` =
    /// none). Empty until the threshold is first crossed; kept allocated
    /// across rounds afterwards, with entries reset in `finish`. Its O(p)
    /// size under FIAC / FIAB is inherent: those schemes really do send
    /// to p − 1 ranks every superstep.
    dst_index: Vec<u32>,
    /// Total ranks in the run; 0 disables the dense table.
    num_ranks: Rank,
    /// Finished packets (used directly in non-bundling mode).
    packets: Vec<Packet>,
    stats: BundleStats,
    _marker: std::marker::PhantomData<M>,
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
            packets: Vec::new(),
            stats: BundleStats::default(),
            _marker: std::marker::PhantomData,
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
            for (i, (d, _, _)) in self.bundles.iter().enumerate() {
                self.dst_index[*d as usize] = i as u32;
            }
            let i = self.dst_index[dst as usize];
            return (i != NO_BUNDLE).then_some(i as usize);
        }
        self.bundles.iter().position(|(d, _, _)| *d == dst)
    }

    /// Cumulative logical-vs-wire accounting since construction.
    pub fn stats(&self) -> BundleStats {
        self.stats
    }

    /// Queues `msg` for delivery to `dst` next round.
    pub fn push(&mut self, dst: Rank, msg: &M) {
        self.stats.logical_messages += 1;
        if self.bundling {
            match self.bundle_index(dst) {
                Some(i) => {
                    let (_, buf, n) = &mut self.bundles[i];
                    msg.encode(buf);
                    *n += 1;
                }
                None => {
                    let mut buf = BytesMut::with_capacity(64);
                    msg.encode(&mut buf);
                    if !self.dst_index.is_empty() {
                        self.dst_index[dst as usize] = self.bundles.len() as u32;
                    }
                    self.bundles.push((dst, buf, 1));
                }
            }
        } else {
            let mut buf = BytesMut::with_capacity(msg.encoded_len());
            msg.encode(&mut buf);
            self.packets.push(Packet {
                dst,
                payload: buf.freeze(),
                logical: 1,
            });
        }
    }

    /// `true` if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty() && self.packets.is_empty()
    }

    /// Closes the round, appending the packets, sorted by destination for
    /// deterministic routing, to `out` (which must be empty) and leaving
    /// the outbox empty for reuse: the caller recycles `out` across
    /// rounds, and the outbox keeps its own bundle-list and packet-list
    /// allocations.
    pub(crate) fn finish_into(&mut self, out: &mut Vec<Packet>) {
        debug_assert!(out.is_empty(), "finish_into wants a drained buffer");
        // Close-out: freezing moves the buffers, nothing is copied.
        out.append(&mut self.packets);
        for (dst, buf, n) in self.bundles.drain(..) {
            if !self.dst_index.is_empty() {
                self.dst_index[dst as usize] = NO_BUNDLE;
            }
            out.push(Packet {
                dst,
                payload: buf.freeze(),
                logical: n,
            });
        }
        // Stable: non-bundled same-destination packets keep send order.
        out.sort_by_key(|p| p.dst);
        self.stats.wire_packets += out.len() as u64;
        self.stats.wire_bytes += out.iter().map(|p| p.payload.len() as u64).sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish<M: WireMessage>(ob: &mut OutBox<M>) -> Vec<Packet> {
        let mut packets = Vec::new();
        ob.finish_into(&mut packets);
        packets
    }

    #[test]
    fn bundling_merges_same_destination() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(true, 0);
        ob.push(3, &1);
        ob.push(3, &2);
        ob.push(1, &9);
        let packets = finish(&mut ob);
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].dst, 1);
        assert_eq!(packets[1].dst, 3);
        assert_eq!(packets[1].logical, 2);
        assert_eq!(packets[1].payload.len(), 8);
        assert!(ob.is_empty());
    }

    #[test]
    fn no_bundling_gives_one_packet_per_message() {
        let mut ob: OutBox<u32> = OutBox::for_ranks(false, 0);
        ob.push(3, &1);
        ob.push(3, &2);
        let packets = finish(&mut ob);
        assert_eq!(packets.len(), 2);
        assert!(packets.iter().all(|p| p.logical == 1));
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
        // must produce identical packets, rounds on end.
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
            let a = finish(&mut dense);
            let b = finish(&mut linear);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.dst, y.dst);
                assert_eq!(x.logical, y.logical);
                assert_eq!(x.payload, y.payload);
            }
        }
        assert_eq!(dense.stats(), linear.stats());
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
        assert_eq!(ob.stats().wire_packets, 3);
    }

    #[test]
    fn stats_track_logical_vs_wire() {
        let mut bundled: OutBox<u32> = OutBox::for_ranks(true, 0);
        for _ in 0..6 {
            bundled.push(3, &7);
        }
        bundled.push(1, &7);
        finish(&mut bundled);
        let s = bundled.stats();
        assert_eq!(s.logical_messages, 7);
        assert_eq!(s.wire_packets, 2);
        assert_eq!(s.wire_bytes, 7 * 4);

        let mut flat: OutBox<u32> = OutBox::for_ranks(false, 0);
        for _ in 0..7 {
            flat.push(3, &7);
        }
        finish(&mut flat);
        assert_eq!(flat.stats().wire_packets, 7);
    }
}
