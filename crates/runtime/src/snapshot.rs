//! Snapshottable rank-program state.
//!
//! Every [`RankProgram`] carries an explicit, serializable value of its
//! algorithm state: a `Vec` of its `Record` type. A snapshot is a
//! **record stream** — a sequence of fixed-width records declared through
//! [`wire_codec!`](crate::wire_codec) and concatenated back-to-back
//! exactly like a message bundle — so the same codec machinery (and the
//! same `WIRE_SHAPE` pin in `cmg-net`'s `codec_pins` test) covers checkpoint
//! payloads and wire messages alike. [`encode_snapshot`] is the one
//! writer and [`restore_encoded`] the one reader: engines and the net
//! transport see bytes, never the record type.
//!
//! The contract splits a program's fields into two classes:
//!
//! * **algorithm state** — pointers, proposals, palettes, phase counters,
//!   and the in-flight state of substrate collectives
//!   ([`DoneWave`](crate::DoneWave) counts,
//!   [`TreeAllreduce`](crate::TreeAllreduce) partial sums). These go into
//!   the snapshot; omitting any of them restores a program that deadlocks
//!   or diverges.
//! * **incidental state** — halo views, weight-sorted adjacency copies,
//!   stamp-based scratch buffers, fan-out dedup stamps. These are
//!   *rebuilt* on restore from the construction context (`Meta`), exactly
//!   as `on_start` builds them, which both shrinks checkpoints and keeps
//!   the wire format honest about what the algorithm actually is.
//!
//! Restoring must be **behaviorally exact**: a program round-tripped
//! through `snapshot → encode → decode → restore` at any round edge must
//! produce bit-identical results, statistics, and traces from that point
//! on. The sweep's checkpointed cells (`tests/sweep.rs`) pin this for
//! all four shipped rank programs (`DistMatching`,
//! `DistColoring<Distance1>`, `DistColoring<Distance2>`,
//! `JonesPlassmann`); the engines enforce it live through
//! `EngineConfig::checkpoint_every` (sim/threaded equivalence oracle) and
//! the cmg-net checkpoint/respawn path.

use crate::message::{decode_all, WireMessage};
use crate::program::RankProgram;

/// Appends a snapshot's encoded record stream to `out`: the records
/// concatenated in order, no separators (the bundle format). The net
/// worker writes straight into its checkpoint frame with this; the
/// in-process oracle into a fresh buffer.
pub fn encode_snapshot<R: WireMessage>(records: &[R], out: &mut Vec<u8>) {
    out.reserve(records.iter().map(WireMessage::encoded_len).sum());
    for r in records {
        r.encode(out);
    }
}

/// Rebuilds a program from its construction context and its encoded
/// snapshot — the receiving half of every checkpoint, whether a net worker
/// was shipped it or an in-process engine just took it (the
/// `checkpoint_every` oracle). `None` if `bytes` is not a record stream
/// of `P::Record`.
pub fn restore_encoded<P: RankProgram>(meta: P::Meta, bytes: &[u8]) -> Option<P> {
    Some(P::restore(meta, decode_all(bytes)?))
}

/// Expands, **inside an `impl RankProgram` block**, to the snapshot half
/// of the contract for a test-only program: the snapshot is empty and
/// `Meta` is a clone of the whole program, so restore reproduces the
/// program exactly (the program must be `Clone`). This keeps toy
/// fixtures honest under the engines' `checkpoint_every` equivalence
/// oracle without forcing every test to declare a wire format. Real
/// algorithms must not use this: their state has to be explicit and
/// serializable.
#[macro_export]
macro_rules! trivial_snapshot {
    () => {
        type Record = u32;
        type Meta = Self;

        fn snapshot(&self) -> Vec<u32> {
            Vec::new()
        }

        fn restore(meta: Self, _snap: Vec<u32>) -> Self {
            meta
        }

        fn meta(&self) -> Self {
            self.clone()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Rank, RankCtx, Status};

    /// A program whose whole state is its snapshot.
    struct Echo(Vec<u32>);

    impl RankProgram for Echo {
        type Msg = u32;
        type Record = u32;
        type Meta = ();

        fn on_start(&mut self, _: &mut RankCtx<u32>) -> Status {
            Status::Idle
        }

        fn on_round(&mut self, _: &mut Vec<(Rank, Vec<u32>)>, _: &mut RankCtx<u32>) -> Status {
            Status::Idle
        }

        fn snapshot(&self) -> Vec<u32> {
            self.0.clone()
        }

        fn restore((): (), snap: Vec<u32>) -> Self {
            Echo(snap)
        }

        fn meta(&self) {}
    }

    #[test]
    fn records_round_trip_through_bytes() {
        let mut buf = Vec::new();
        encode_snapshot(&Echo(vec![7, 11, 13]).snapshot(), &mut buf);
        assert_eq!(buf, [7, 0, 0, 0, 11, 0, 0, 0, 13, 0, 0, 0]);
        let back: Echo = restore_encoded((), &buf).unwrap();
        assert_eq!(back.0, [7, 11, 13]);
    }

    #[test]
    fn empty_snapshot_is_zero_bytes() {
        let mut buf = vec![9];
        encode_snapshot::<u32>(&[], &mut buf);
        assert_eq!(buf, [9]);
        let back: Echo = restore_encoded((), &[]).unwrap();
        assert!(back.0.is_empty());
    }

    #[test]
    fn malformed_bytes_rejected() {
        // Not a multiple of 4.
        assert!(restore_encoded::<Echo>((), &[1, 2, 3]).is_none());
    }
}
