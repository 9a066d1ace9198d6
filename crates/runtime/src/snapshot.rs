//! Snapshottable rank-program state.
//!
//! Every [`RankProgram`](crate::RankProgram) carries an explicit,
//! serializable value of its algorithm state: the associated `Snapshot`
//! type. A snapshot is a **record stream** — a sequence of fixed-width
//! records declared through [`wire_codec!`](crate::wire_codec) and
//! concatenated back-to-back exactly like a message bundle — so the same
//! codec machinery (and the same `cmg-analyze` wire-drift fingerprinting)
//! covers checkpoint payloads and wire messages alike.
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
//!   as `new()` builds them, which both shrinks checkpoints and keeps the
//!   wire format honest about what the algorithm actually is.
//!
//! Restoring must be **behaviorally exact**: a program round-tripped
//! through `snapshot → encode → decode → restore` at any round edge must
//! produce bit-identical results, statistics, and traces from that point
//! on. `tests/snapshot_equivalence.rs` holds the property tests pinning
//! this for all five shipped rank programs; the engines enforce it live
//! through `EngineConfig::checkpoint_every` (sim/threaded equivalence
//! oracle) and the cmg-net checkpoint/respawn path.

use crate::message::{decode_all_into, WireMessage};
use crate::program::RankProgram;
use bytes::Bytes;

/// A serializable program snapshot: a stream of fixed-width wire records.
///
/// The canonical implementation is `Vec<R>` for a `wire_codec!`-declared
/// record enum `R`; `()` serves stateless test programs. The provided
/// `encode_bytes`/`decode_bytes` pair is the only wire format — engines
/// and the net transport never see the record type, only bytes.
pub trait ProgramSnapshot: Sized + Send {
    /// The fixed-width record the stream is made of.
    type Record: WireMessage;

    /// Consumes the snapshot into its record sequence (order is part of
    /// the format: restore sees records in exactly this order).
    fn into_records(self) -> Vec<Self::Record>;

    /// Rebuilds a snapshot from a decoded record sequence. `None` if the
    /// records are not a well-formed snapshot.
    fn from_records(records: Vec<Self::Record>) -> Option<Self>;

    /// Appends the encoded record stream to `out` — the same bytes as
    /// [`encode_bytes`](Self::encode_bytes), written into a
    /// caller-owned buffer. This is the checkpoint hot path: the net
    /// worker serializes a snapshot at every checkpoint edge, and
    /// encoding straight into the checkpoint frame avoids an
    /// intermediate allocation and copy per checkpoint. Snapshot types
    /// with a bulk encoding override this (and must stay
    /// byte-identical to the generic record path).
    fn encode_into(self, out: &mut Vec<u8>) {
        let records = self.into_records();
        out.reserve(records.iter().map(WireMessage::encoded_len).sum());
        for r in &records {
            r.encode(out);
        }
    }

    /// Serializes the snapshot to bytes (records concatenated in order,
    /// no separators — the bundle format).
    fn encode_bytes(self) -> Bytes {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Deserializes a snapshot from bytes. `None` on malformed input.
    fn decode_bytes(buf: Bytes) -> Option<Self> {
        let mut records = Vec::new();
        decode_all_into(buf, &mut records)?;
        Self::from_records(records)
    }
}

/// Rebuilds a program from its construction context and its encoded
/// snapshot — the receiving half of every checkpoint, whether a net worker
/// was shipped it or an in-process engine just took it (the
/// `checkpoint_every` oracle). `None` if `bytes` is not a snapshot of `P`.
pub fn restore_encoded<P: RankProgram>(meta: P::Meta, bytes: Bytes) -> Option<P> {
    P::Snapshot::decode_bytes(bytes).map(|snap| P::restore(meta, snap))
}

/// The canonical snapshot shape: a record stream is a snapshot of
/// itself.
impl<R: WireMessage> ProgramSnapshot for Vec<R> {
    type Record = R;

    fn into_records(self) -> Vec<R> {
        self
    }

    fn from_records(records: Vec<R>) -> Option<Self> {
        Some(records)
    }
}

/// The empty snapshot, for programs without serializable algorithm state
/// (test fixtures; see [`trivial_snapshot!`](crate::trivial_snapshot)).
impl ProgramSnapshot for () {
    type Record = u32;

    fn into_records(self) -> Vec<u32> {
        Vec::new()
    }

    fn from_records(records: Vec<u32>) -> Option<Self> {
        records.is_empty().then_some(())
    }
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
        type Snapshot = ();
        type Meta = Self;

        fn snapshot(&self) {}

        fn restore(meta: Self, _snap: ()) -> Self {
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

    #[test]
    fn vec_round_trips_through_bytes() {
        let snap: Vec<u32> = vec![7, 11, 13];
        let bytes = snap.clone().encode_bytes();
        assert_eq!(bytes.len(), 12);
        let back = <Vec<u32>>::decode_bytes(bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_is_zero_bytes() {
        let bytes = ().encode_bytes();
        assert!(bytes.is_empty());
        assert_eq!(<()>::decode_bytes(bytes), Some(()));
    }

    #[test]
    fn unit_rejects_nonempty_stream() {
        let bytes = vec![1u32].encode_bytes();
        assert_eq!(<()>::decode_bytes(bytes), None);
    }

    #[test]
    fn malformed_bytes_rejected() {
        let bytes = Bytes::from(vec![1u8, 2, 3]); // not a multiple of 4
        assert!(<Vec<u32>>::decode_bytes(bytes).is_none());
    }
}
