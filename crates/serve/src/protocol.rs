//! The serve request plane's payload codecs.
//!
//! cmg-serve reuses cmg-net's framed wire protocol: every request and
//! response travels as a `[len][seq][ctrl][payload]` frame whose
//! control word is one of the v5 session tags ([`Ctrl::MutateBatch`],
//! [`Ctrl::MutateAck`], [`Ctrl::Query`], [`Ctrl::QueryReply`],
//! [`Ctrl::SessionEnd`]). This module defines what rides in the
//! payloads, with the same [`wire_codec!`] discipline as the
//! algorithm messages: one-byte tag, fixed-width little-endian
//! fields, bundles decoded with [`decode_all`].
//!
//! * A `MutateBatch` payload is a bundle of [`ServeOp`]s (one per
//!   mutation, in application order); its `MutateAck` carries exactly
//!   one [`RepairAck`] describing how the batch was absorbed.
//! * A `Query` payload is exactly one [`ServeQuery`]; its `QueryReply`
//!   is a bundle of [`ServeReply`] records (one for point lookups,
//!   n for full-vector queries). A full-vector reply lists vertex `i`
//!   in record `i`, and [`FullVector`] encodes it from and decodes it
//!   into the plain `u32` vector, never through a vector of records.
//!
//! [`Ctrl::MutateBatch`]: cmg_net::Ctrl::MutateBatch
//! [`Ctrl::MutateAck`]: cmg_net::Ctrl::MutateAck
//! [`Ctrl::Query`]: cmg_net::Ctrl::Query
//! [`Ctrl::QueryReply`]: cmg_net::Ctrl::QueryReply
//! [`Ctrl::SessionEnd`]: cmg_net::Ctrl::SessionEnd
//! [`wire_codec!`]: cmg_runtime::wire_codec
//! [`decode_all`]: cmg_runtime::message::decode_all

use cmg_graph::{Mutation, MutationBatch};
use cmg_net::NetError;
use cmg_runtime::{wire_codec, WireMessage};

wire_codec! {
    /// One edge mutation on the wire. A `MutateBatch` frame's payload
    /// is a bundle of these, in application order (later ops win on
    /// the same edge, exactly like [`MutationBatch`]).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum ServeOp {
        /// Insert edge `{u, v}` with weight `w` (or overwrite its
        /// weight if present).
        0 => Insert {
            /// One endpoint.
            u: u32,
            /// The other endpoint.
            v: u32,
            /// Edge weight.
            w: f64,
        },
        /// Delete edge `{u, v}` (absent edge: counted no-op).
        1 => Delete {
            /// One endpoint.
            u: u32,
            /// The other endpoint.
            v: u32,
        },
        /// Set the weight of edge `{u, v}` to `w`.
        2 => Reweight {
            /// One endpoint.
            u: u32,
            /// The other endpoint.
            v: u32,
            /// New edge weight.
            w: f64,
        },
    }
}

wire_codec! {
    /// One query. A `Query` frame's payload is exactly one of these.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ServeQuery {
        /// Current mate of vertex `v` (reply: one [`ServeReply::Mate`]).
        0 => MateOf {
            /// The vertex.
            v: u32,
        },
        /// Current color of vertex `v` (reply: one
        /// [`ServeReply::Color`]).
        1 => ColorOf {
            /// The vertex.
            v: u32,
        },
        /// The whole matching (reply: one `Mate` record per vertex).
        2 => Matching,
        /// The whole coloring (reply: one `Color` record per vertex).
        3 => Coloring,
        /// Service counters (reply: one [`ServeReply::Summary`]).
        4 => Summary,
    }
}

wire_codec! {
    /// One answer record. A `QueryReply` frame's payload is a bundle
    /// of these.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum ServeReply {
        /// `v` is matched to `mate` (`u32::MAX` = unmatched).
        0 => Mate {
            /// The vertex.
            v: u32,
            /// Its mate, or `u32::MAX`.
            mate: u32,
        },
        /// `v` has color `color`.
        1 => Color {
            /// The vertex.
            v: u32,
            /// Its color.
            color: u32,
        },
        /// Service state and lifetime counters.
        2 => Summary {
            /// Vertices in the graph.
            n: u64,
            /// Undirected edges currently present.
            m: u64,
            /// Matched pairs.
            matched: u64,
            /// Total matched weight (IEEE-754 bits ride natively).
            weight: f64,
            /// Colors in use.
            colors: u32,
            /// Mutation batches absorbed.
            batches: u64,
            /// ... of which warm-start repairs.
            repairs: u64,
            /// ... of which threshold-triggered full recomputes.
            recomputes: u64,
        },
    }
}

wire_codec! {
    /// The `MutateAck` payload: how one mutation batch was absorbed.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RepairAck {
        /// The batch was applied and the served result is consistent
        /// again.
        0 => Done {
            /// 0 = warm-start repair, 1 = full recompute (the batch's
            /// distinct endpoints, or the vertices its invalidation
            /// marks dirty, past the threshold).
            mode: u8,
            /// Vertices the matching pass re-decided (`n` on a recompute).
            dirty_matching: u64,
            /// Vertices the coloring pass re-decided (`n` on a recompute).
            dirty_coloring: u64,
            /// Engine rounds of the matching pass. Always 0: repair
            /// and recompute both run the sequential frontier kernels.
            /// Kept so the wire format does not change.
            match_rounds: u64,
            /// Engine rounds of the coloring pass (always 0, as above).
            color_rounds: u64,
            /// Server-side latency of the whole batch, microseconds.
            micros: u64,
        },
        /// The batch was rejected whole (graph untouched): bad vertex
        /// id, self-loop, or undecodable payload.
        1 => Rejected {
            /// 1 = invalid mutation, 2 = undecodable payload.
            code: u8,
        },
    }
}

/// The two full-vector replies: one record per vertex, in vertex order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullVector {
    /// [`ServeReply::Mate`] records: the mate vector (`u32::MAX` =
    /// unmatched).
    Matching,
    /// [`ServeReply::Color`] records: the colour vector.
    Coloring,
}

impl FullVector {
    /// Bytes per record: the tag, then `v` and the value as
    /// little-endian `u32`s. That is the layout `wire_codec!` gives
    /// `Mate` and `Color`; `decode` reads it directly, a record at the
    /// cost of its bytes, and the tests hold it to the codec's.
    const RECORD_LEN: usize = 9;

    fn record(self, v: u32, value: u32) -> ServeReply {
        match self {
            FullVector::Matching => ServeReply::Mate { v, mate: value },
            FullVector::Coloring => ServeReply::Color { v, color: value },
        }
    }

    fn tag(self) -> u8 {
        match self {
            FullVector::Matching => 0,
            FullVector::Coloring => 1,
        }
    }

    /// Appends the reply listing `values` to `out`: record `i` carries
    /// vertex `i` and `values[i]`.
    pub fn encode(self, values: &[u32], out: &mut Vec<u8>) {
        out.reserve(values.len() * Self::RECORD_LEN);
        for (v, &value) in (0u32..).zip(values) {
            self.record(v, value).encode(out);
        }
    }

    /// Decodes a reply straight into the vector it lists: one exact-size
    /// allocation of 4 bytes per vertex. Record `i` must be of this kind
    /// and name vertex `i`, and there must be at least one; anything
    /// else (a short or unknown record, a vertex out of order, trailing
    /// bytes) is a [`NetError::Protocol`].
    pub fn decode(self, payload: &[u8]) -> Result<Vec<u32>, NetError> {
        let records = payload.chunks_exact(Self::RECORD_LEN);
        if payload.is_empty() || !records.remainder().is_empty() {
            return Err(NetError::protocol(format!(
                "{self:?} reply: {} bytes are not one or more whole records",
                payload.len()
            )));
        }
        let mut values = Vec::with_capacity(records.len());
        for (i, r) in records.enumerate() {
            let field = |at: usize| u32::from_le_bytes([r[at], r[at + 1], r[at + 2], r[at + 3]]);
            if r[0] != self.tag() {
                return Err(NetError::protocol(format!(
                    "{self:?} reply: record {i} has tag {}",
                    r[0]
                )));
            }
            if field(1) as usize != i {
                return Err(NetError::protocol(format!(
                    "{self:?} reply: record {i} names vertex {}",
                    field(1)
                )));
            }
            values.push(field(5));
        }
        Ok(values)
    }
}

/// Decodes a payload that carries exactly one record.
pub(crate) fn decode_one<M: WireMessage>(payload: &[u8], what: &str) -> Result<M, NetError> {
    let mut cursor = payload;
    match M::decode(&mut cursor) {
        Some(record) if cursor.is_empty() => Ok(record),
        Some(_) => Err(NetError::protocol(format!(
            "{what} has bytes after its one record"
        ))),
        None => Err(NetError::protocol(format!("undecodable {what}"))),
    }
}

/// Appends `batch` to `out` as its wire ops, one [`ServeOp`] per
/// mutation, in order.
pub(crate) fn encode_batch(batch: &MutationBatch, out: &mut Vec<u8>) {
    for op in &batch.ops {
        match *op {
            Mutation::Insert { u, v, w } => ServeOp::Insert { u, v, w },
            Mutation::Delete { u, v } => ServeOp::Delete { u, v },
            Mutation::Reweight { u, v, w } => ServeOp::Reweight { u, v, w },
        }
        .encode(out);
    }
}

/// Decodes a `MutateBatch` payload straight into the [`MutationBatch`]
/// it carries, or `None` if it is not a whole number of ops.
pub(crate) fn decode_batch(mut payload: &[u8]) -> Option<MutationBatch> {
    // At least this many: an insert or a reweight is 17 bytes, a delete 9.
    let mut ops = Vec::with_capacity(payload.len() / 17);
    while !payload.is_empty() {
        ops.push(match ServeOp::decode(&mut payload)? {
            ServeOp::Insert { u, v, w } => Mutation::Insert { u, v, w },
            ServeOp::Delete { u, v } => Mutation::Delete { u, v },
            ServeOp::Reweight { u, v, w } => Mutation::Reweight { u, v, w },
        });
    }
    Some(MutationBatch { ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_runtime::message::decode_all;
    use cmg_runtime::WireMessage;

    #[test]
    fn batch_round_trips_through_wire_ops() {
        let mut batch = MutationBatch::new();
        batch.insert(3, 9, 0.25).delete(1, 2).reweight(9, 3, 7.5);
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        // The bytes are the ops' own codec, one record per mutation.
        let ops = [
            ServeOp::Insert {
                u: 3,
                v: 9,
                w: 0.25,
            },
            ServeOp::Delete { u: 1, v: 2 },
            ServeOp::Reweight { u: 9, v: 3, w: 7.5 },
        ];
        let decoded: Vec<ServeOp> = decode_all(&wire[..]).expect("decodes");
        assert_eq!(decoded, ops);
        assert_eq!(decode_batch(&wire), Some(batch));
        // A truncated or unknown op fails the whole batch.
        assert_eq!(decode_batch(&wire[..wire.len() - 1]), None);
        assert_eq!(decode_batch(&[7]), None);
        assert_eq!(decode_batch(&[]), Some(MutationBatch::new()));
    }

    #[test]
    fn declared_lengths_match_encoding() {
        for m in [
            ServeOp::Insert { u: 1, v: 2, w: 3.0 },
            ServeOp::Delete { u: 1, v: 2 },
            ServeOp::Reweight { u: 1, v: 2, w: 0.5 },
        ] {
            let mut buf = bytes::BytesMut::new();
            m.encode(&mut buf);
            assert_eq!(buf.len(), m.encoded_len(), "{m:?}");
        }
        let r = ServeReply::Summary {
            n: 1,
            m: 2,
            matched: 3,
            weight: 4.0,
            colors: 5,
            batches: 6,
            repairs: 7,
            recomputes: 8,
        };
        let mut buf = bytes::BytesMut::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
    }
}
