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
//!   n for full-vector queries).
//!
//! [`Ctrl::MutateBatch`]: cmg_net::Ctrl::MutateBatch
//! [`Ctrl::MutateAck`]: cmg_net::Ctrl::MutateAck
//! [`Ctrl::Query`]: cmg_net::Ctrl::Query
//! [`Ctrl::QueryReply`]: cmg_net::Ctrl::QueryReply
//! [`Ctrl::SessionEnd`]: cmg_net::Ctrl::SessionEnd
//! [`wire_codec!`]: cmg_runtime::wire_codec
//! [`decode_all`]: cmg_runtime::message::decode_all

use cmg_graph::{Mutation, MutationBatch};
use cmg_runtime::wire_codec;

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
            /// 0 = warm-start repair, 1 = full recompute (dirtiness
            /// past the threshold).
            mode: u8,
            /// Vertices the matching repair re-decided.
            dirty_matching: u64,
            /// Vertices the coloring repair re-decided.
            dirty_coloring: u64,
            /// Engine rounds the matching pass took.
            match_rounds: u64,
            /// Engine rounds the coloring pass took.
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

/// Encodes a [`MutationBatch`] as its wire ops.
pub(crate) fn ops_of(batch: &MutationBatch) -> Vec<ServeOp> {
    batch
        .ops
        .iter()
        .map(|op| match *op {
            Mutation::Insert { u, v, w } => ServeOp::Insert { u, v, w },
            Mutation::Delete { u, v } => ServeOp::Delete { u, v },
            Mutation::Reweight { u, v, w } => ServeOp::Reweight { u, v, w },
        })
        .collect()
}

/// Decodes wire ops back into a [`MutationBatch`].
pub(crate) fn batch_of(ops: &[ServeOp]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for op in ops {
        match *op {
            ServeOp::Insert { u, v, w } => batch.insert(u, v, w),
            ServeOp::Delete { u, v } => batch.delete(u, v),
            ServeOp::Reweight { u, v, w } => batch.reweight(u, v, w),
        };
    }
    batch
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
        let ops = ops_of(&batch);
        let mut buf = bytes::BytesMut::new();
        for op in &ops {
            op.encode(&mut buf);
        }
        let decoded: Vec<ServeOp> = decode_all(buf.freeze()).expect("decodes");
        assert_eq!(decoded, ops);
        assert_eq!(batch_of(&decoded), batch);
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
