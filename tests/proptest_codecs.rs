//! Property tests of the wire codecs: arbitrary message sequences must
//! survive the encode → bundle → decode path bit-exactly, a parcel's byte
//! count must be what its encoding weighs on a wire, and corrupted bundles
//! must be rejected rather than misparsed.

use bytes::BytesMut;
use cmg_coloring::ColorMsg;
use cmg_matching::MatchMsg;
use cmg_obs::RecorderHandle;
use cmg_runtime::message::decode_all;
use cmg_runtime::{encode_snapshot, RankCtx, WireMessage};
use cmg_serve::{RepairAck, ServeOp, ServeQuery, ServeReply};
use proptest::prelude::*;

fn arb_match_msg() -> impl Strategy<Value = MatchMsg> {
    (0u8..3, any::<u32>(), any::<u32>()).prop_map(|(tag, from, to)| match tag {
        0 => MatchMsg::Request { from, to },
        1 => MatchMsg::Succeeded { from, to },
        _ => MatchMsg::Failed { from, to },
    })
}

/// Every `ColorMsg` variant, the distance-2 detection messages included.
fn arb_color_msg() -> impl Strategy<Value = ColorMsg> {
    (0u8..7, any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(tag, a, b, c)| match tag {
        0 => ColorMsg::Color { v: a, color: b },
        1 => ColorMsg::Empty,
        2 => ColorMsg::Done { phase: a },
        3 => ColorMsg::Reduce { phase: a, count: c },
        4 => ColorMsg::Bcast { phase: a, count: c },
        5 => ColorMsg::Done2 { phase: a },
        _ => ColorMsg::Recolor { v: a, banned: b },
    })
}

/// Only the distance-2 detection messages, so they frame back to back.
fn arb_d2_msg() -> impl Strategy<Value = ColorMsg> {
    (any::<bool>(), any::<u32>(), any::<u32>()).prop_map(|(recolor, a, b)| {
        if recolor {
            ColorMsg::Recolor { v: a, banned: b }
        } else {
            ColorMsg::Done2 { phase: a }
        }
    })
}

fn arb_serve_op() -> impl Strategy<Value = ServeOp> {
    (0u8..3, any::<u32>(), any::<u32>(), any::<f64>()).prop_map(|(tag, u, v, w)| match tag {
        0 => ServeOp::Insert { u, v, w },
        1 => ServeOp::Delete { u, v },
        _ => ServeOp::Reweight { u, v, w },
    })
}

fn arb_serve_query() -> impl Strategy<Value = ServeQuery> {
    (0u8..5, any::<u32>()).prop_map(|(tag, v)| match tag {
        0 => ServeQuery::MateOf { v },
        1 => ServeQuery::ColorOf { v },
        2 => ServeQuery::Matching,
        3 => ServeQuery::Coloring,
        _ => ServeQuery::Summary,
    })
}

fn arb_serve_reply() -> impl Strategy<Value = ServeReply> {
    (
        0u8..3,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<f64>(),
    )
        .prop_map(|(tag, a, b, c, w)| match tag {
            0 => ServeReply::Mate { v: a, mate: b },
            1 => ServeReply::Color { v: a, color: b },
            _ => ServeReply::Summary {
                n: c,
                m: c.wrapping_mul(3),
                matched: a as u64,
                weight: w,
                colors: b,
                batches: c,
                repairs: c / 2,
                recomputes: c / 3,
            },
        })
}

fn arb_repair_ack() -> impl Strategy<Value = RepairAck> {
    (any::<bool>(), any::<u8>(), any::<u64>(), any::<u64>()).prop_map(|(done, code, a, b)| {
        if done {
            RepairAck::Done {
                mode: code % 2,
                dirty_matching: a,
                dirty_coloring: b,
                match_rounds: a % 97,
                color_rounds: b % 89,
                micros: a ^ b,
            }
        } else {
            RepairAck::Rejected { code }
        }
    })
}

fn round_trip<M: WireMessage + PartialEq + std::fmt::Debug + Clone>(msgs: &[M]) {
    let mut buf = BytesMut::new();
    let mut expected_len = 0;
    for m in msgs {
        m.encode(&mut buf);
        expected_len += m.encoded_len();
    }
    assert_eq!(buf.len(), expected_len, "encoded_len must match encode");
    let decoded: Vec<M> = decode_all(buf.freeze()).expect("decode failed");
    assert_eq!(&decoded, msgs);
}

/// The parcel one rank's sends to one peer close into: its `bytes` is
/// Σ `encoded_len`, the encoding the net worker writes into a
/// `RoundBundle` (`encode_snapshot`, messages back to back) is exactly
/// that long, and decoding it gives back the messages.
fn parcel_weighs_its_encoding<M: WireMessage + PartialEq + std::fmt::Debug>(msgs: &[M]) {
    let mut ctx: RankCtx<M> = RankCtx::new(0, 2, true, RecorderHandle::noop());
    for m in msgs {
        ctx.send(1, m);
    }
    let (_, parcels) = ctx.end_round();
    let Some(parcel) = parcels.first() else {
        assert!(msgs.is_empty());
        return;
    };
    assert_eq!(parcels.len(), 1);
    assert_eq!(parcel.msgs, msgs);
    let encoded_len: usize = msgs.iter().map(WireMessage::encoded_len).sum();
    assert_eq!(parcel.bytes, encoded_len);
    let mut wire = Vec::new();
    encode_snapshot(&parcel.msgs, &mut wire);
    assert_eq!(wire.len(), parcel.bytes);
    let back: Vec<M> = decode_all(&wire[..]).expect("decodes");
    assert_eq!(back, msgs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn match_parcels_weigh_their_encoding(msgs in proptest::collection::vec(arb_match_msg(), 0..40)) {
        parcel_weighs_its_encoding(&msgs);
    }

    #[test]
    fn color_parcels_weigh_their_encoding(msgs in proptest::collection::vec(arb_color_msg(), 0..40)) {
        parcel_weighs_its_encoding(&msgs);
    }

    #[test]
    fn token_parcels_weigh_their_encoding(msgs in proptest::collection::vec(any::<u32>(), 0..40)) {
        parcel_weighs_its_encoding(&msgs);
    }

    #[test]
    fn match_msgs_round_trip(msgs in proptest::collection::vec(arb_match_msg(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn color_msgs_round_trip(msgs in proptest::collection::vec(arb_color_msg(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn d2_msgs_round_trip(msgs in proptest::collection::vec(arb_d2_msg(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn serve_ops_round_trip(msgs in proptest::collection::vec(arb_serve_op(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn serve_queries_round_trip(msgs in proptest::collection::vec(arb_serve_query(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn serve_replies_round_trip(msgs in proptest::collection::vec(arb_serve_reply(), 0..40)) {
        round_trip(&msgs);
    }

    #[test]
    fn repair_acks_round_trip(msgs in proptest::collection::vec(arb_repair_ack(), 0..40)) {
        round_trip(&msgs);
    }

    /// Truncating a non-empty bundle anywhere strictly inside its final
    /// message makes decoding fail (no silent misparse).
    #[test]
    fn truncated_bundles_rejected(
        msgs in proptest::collection::vec(arb_match_msg(), 1..10),
        cut in 1usize..9,
    ) {
        let mut buf = BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let bytes = buf.freeze();
        let truncated = bytes.slice(0..bytes.len() - cut.min(bytes.len() - 1).max(1));
        // Either fewer messages decode (clean prefix) or decode fails;
        // what must NOT happen is decoding the original count.
        if let Some(decoded) = decode_all::<MatchMsg>(truncated) {
            prop_assert!(decoded.len() < msgs.len());
        }
    }

    /// Garbage tag bytes are rejected.
    #[test]
    fn garbage_is_rejected_or_partial(bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
        // Must not panic; Option result is fine either way.
        let buf = bytes::Bytes::from(bytes.clone());
        let _ = decode_all::<MatchMsg>(buf.clone());
        let _ = decode_all::<ColorMsg>(buf);
        // The net supervisor-plane payloads are checked decoders too:
        // < 64 bytes cannot hold a checkpoint or an assignment, and no
        // length prefix in them may drive an allocation.
        prop_assert!(cmg_net::decode_checkpoint(&bytes).is_err());
        prop_assert!(cmg_net::proto::decode_assignment(&bytes).is_err());
    }

    /// The retired v5 control tags (5, 6: the tree-allreduce legs,
    /// `round: u64` + a flag byte) never decode, whatever follows them
    /// — a stale peer's frame is a protocol error of the one frame-body
    /// decoder (the supervisor link's `read_frame` and the worker's
    /// peer links share it), never a misparse as a live variant.
    #[test]
    fn retired_ctrl_tags_never_decode(
        tag in 5u8..=6,
        rest in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut word = vec![tag];
        word.extend_from_slice(&rest);
        prop_assert!(cmg_net::Ctrl::decode(&mut &word[..]).is_none());
        let mut wire = ((8 + word.len()) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        wire.extend_from_slice(&word);
        match cmg_net::frame::read_frame(&mut &wire[..]) {
            Err(cmg_net::NetError::Protocol { detail }) => {
                prop_assert!(detail.contains(&format!("first byte {tag}")), "{}", detail);
            }
            other => prop_assert!(false, "tag {}: {:?}", tag, other),
        }
    }
}
