//! The framing layer: length-prefixed frames over a byte stream.
//!
//! Every frame is `[u32 len][u64 seq][ctrl][payload]`, little-endian:
//! `len` counts everything after itself, `seq` is the per-link sequence
//! number the receiving [`Resequencer`](crate::link::Resequencer) uses
//! to restore send order under fault injection, `ctrl` is one
//! [`Ctrl`] control word (a [`wire_codec!`] enum, so the control
//! vocabulary shares the exact wire discipline of the algorithm
//! messages), and `payload` is an opaque byte blob whose meaning the
//! control word determines (bundled `WireMessage`s for
//! [`Ctrl::RoundBundle`], codec blobs from [`crate::proto`] for the
//! supervisor plane).
//!
//! [`wire_codec!`]: cmg_runtime::wire_codec

use crate::error::NetError;
pub use crate::reactor::MAX_FRAME_LEN;
use crate::reactor::MIN_FRAME_LEN;
use bytes::Bytes;
use cmg_runtime::{wire_codec, WireMessage};
use std::io::Read;

/// Protocol version carried in [`Ctrl::Hello`]; bumped on any wire
/// change so mismatched binaries fail the handshake instead of
/// misparsing each other. v2 added the trace context: send timestamps
/// on `RoundBundle` and `Heartbeat`, and the `HeartbeatAck` reply used
/// for cross-process clock-offset estimation. v3 added the event-driven
/// data plane: the rank-to-rank [`Ctrl::RoundDone`] wave and the
/// coalescing counters in the shipped link stats. v4 added the
/// checkpoint plane: the [`Ctrl::Checkpoint`] control word workers ship
/// at round edges, the `checkpoint_every` run option, and the resume
/// section of the assignment that relaunches a fleet from the last
/// complete snapshot set. v5 added the session plane for the resident
/// serving supervisor (`cmg-serve`): the [`Ctrl::MutateBatch`] /
/// [`Ctrl::MutateAck`] mutation stream, the [`Ctrl::Query`] /
/// [`Ctrl::QueryReply`] request pair, and [`Ctrl::SessionEnd`] —
/// plus the persistent-fleet worker mode where `Done` loops back to
/// "await the next `Assignment`" instead of exiting. v6 made the
/// event-driven data plane the only one: the tree-allreduce control
/// words (tags 5 and 6, retired — never reuse them) and the run option
/// that selected them are gone, as are their checkpoint tables and the
/// always-zero wire-wait telemetry counter. v7 made first-fit, interior
/// first, the only colour rule: the coloring assignment lost its colour
/// choice and local order bytes, and the `ColorSnap` usage-table record
/// (tag 3, retired — never reuse it) is gone. v8 made each rank report
/// its summary with its share: an outcome carries the rank's matched
/// weight or conflict count after its pairs, and the assignment lost the
/// bundling and telemetry flags, which every run set the same way.
pub const PROTO_VERSION: u32 = 8;

wire_codec! {
    /// The control vocabulary of the transport. Grouped by plane:
    /// handshake (`Hello`/`Assignment`/`Ready`/`Start`), the
    /// bulk-synchronous data plane (`RoundBundle` plus the rank-to-rank
    /// `RoundDone` wave), liveness (`Heartbeat`/`FaultPoint`), and the results plane
    /// (`Stats`/`Outcome`/`Events`/`Done`/`Shutdown`/`Fatal`).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Ctrl {
        /// First frame on every link: who is dialing, speaking which
        /// protocol revision.
        0 => Hello {
            /// The dialing rank.
            rank: u32,
            /// [`PROTO_VERSION`] of the dialer.
            proto: u32,
        },
        /// Supervisor -> worker: the payload carries this rank's
        /// partition slice, task, and run options (see
        /// [`crate::proto::Assignment`]).
        1 => Assignment {
            /// The addressee rank (sanity cross-check).
            rank: u32,
        },
        /// Worker -> supervisor: all peer links are up.
        2 => Ready {
            /// The ready rank.
            rank: u32,
        },
        /// Supervisor -> worker: every rank is ready, begin round 0.
        3 => Start,
        /// One rank's bundled sends to one peer for one round. At most
        /// one per (round, ordered link): a rank with nothing for a
        /// peer sends no bundle, only the round's `RoundDone`.
        4 => RoundBundle {
            /// The round these sends belong to.
            round: u64,
            /// The sending rank.
            src: u32,
            /// Wire packets in the payload.
            npackets: u32,
            /// Trace context: the sender's monotonic clock at send,
            /// microseconds since its `Start`. Together with `round`
            /// and the per-run id in the assignment this lets merged
            /// traces attribute a bundle's wire time to the sending
            /// rank's timeline. `u64::MAX` when the sender has no
            /// epoch yet.
            sent_micros: u64,
        },
        /// Worker -> supervisor liveness beacon, carrying round
        /// progress so the supervisor can tell "alive and working"
        /// from "alive but wedged".
        7 => Heartbeat {
            /// The beaconing rank.
            rank: u32,
            /// Last round this rank completed.
            round: u64,
            /// The worker's monotonic clock at send, microseconds
            /// since its `Start` (`u64::MAX` before the epoch is set).
            /// Echoed back in [`Ctrl::HeartbeatAck`], making every
            /// beacon one leg of an NTP-style offset estimate. The
            /// payload may carry a telemetry block
            /// (see [`crate::proto::encode_telemetry`]).
            sent_micros: u64,
        },
        /// Worker -> supervisor: this rank reached its scripted fault
        /// point (see [`crate::supervisor::KillSpec`]) and is now
        /// wedged, awaiting the supervisor's SIGKILL.
        8 => FaultPoint {
            /// The wedged rank.
            rank: u32,
            /// The round it wedged at.
            round: u64,
        },
        /// Worker -> supervisor: payload carries the rank's
        /// [`RankStats`](cmg_runtime::RankStats) + link counters.
        9 => Stats {
            /// The reporting rank.
            rank: u32,
        },
        /// Worker -> supervisor: payload carries the rank's share of
        /// the algorithm result (mates or colors, global ids).
        10 => Outcome {
            /// The reporting rank.
            rank: u32,
        },
        /// Worker -> supervisor: payload carries the rank's buffered
        /// obs events as JSONL (only sent when the run is observed).
        11 => Events {
            /// The reporting rank.
            rank: u32,
        },
        /// Worker -> supervisor: this rank has quiesced and shipped
        /// all results; sent last.
        12 => Done {
            /// The finished rank.
            rank: u32,
            /// Rounds this rank executed.
            rounds: u64,
            /// 1 if the rank stopped at the round cap.
            cap: u8,
        },
        /// Supervisor -> worker: all results received, exit cleanly.
        13 => Shutdown,
        /// Worker -> supervisor: the worker diagnosed an unrecoverable
        /// condition; payload is a UTF-8 message. The worker exits
        /// right after.
        14 => Fatal {
            /// The failing rank.
            rank: u32,
        },
        /// Supervisor -> worker: reply to a [`Ctrl::Heartbeat`]. The
        /// worker's request/reply pair plus the supervisor timestamp
        /// give an NTP-style clock-offset sample; the worker keeps the
        /// minimum-RTT one.
        15 => HeartbeatAck {
            /// The addressee rank.
            rank: u32,
            /// The `sent_micros` of the heartbeat being answered.
            echo_micros: u64,
            /// The supervisor's monotonic clock at reply, microseconds
            /// since it started the run.
            sup_micros: u64,
        },
        /// Rank -> rank: "I have sent everything I will send for
        /// `round`, and here is my activity bit" — one per (round,
        /// ordered link), sent right after that round's sends. Because
        /// links are FIFO (resequenced), receiving this frame proves
        /// the sender's round bundle (if any — empty bundles are
        /// never sent) has already been delivered,
        /// so counting `RoundDone`s with the substrate's `DoneWave` is
        /// simultaneously the bundle-completeness test and the
        /// termination vote: each rank ORs the `active` bits of all
        /// peers with its own to compute the keep-going decision
        /// locally, with no allreduce on the round critical path.
        16 => RoundDone {
            /// The round being announced complete.
            round: u64,
            /// The announcing rank.
            src: u32,
            /// 1 if the announcing rank was active or sent this round.
            active: u8,
        },
        /// Worker -> supervisor: a consistent per-rank snapshot taken
        /// at the edge of `round`. Because the engine is
        /// bulk-synchronous, the set of per-rank checkpoints for one
        /// round edge forms a consistent global snapshot: the payload
        /// (see [`crate::proto::encode_checkpoint`]) carries the
        /// program snapshot, the rank's accumulated stats, and the
        /// transport tables — per-peer writer sequence counters and
        /// resequencer floors, buffered round packets, and in-flight
        /// collective state — from which the supervisor can relaunch
        /// the fleet after a rank dies and have the survivors' gap
        /// traffic dup-discarded by sequence number.
        17 => Checkpoint {
            /// The snapshotting rank.
            rank: u32,
            /// The round edge the snapshot was taken at; a restored
            /// rank resumes at `round + 1`.
            round: u64,
            /// The lowest sequence number this rank still expects on
            /// any peer link — a compact progress indicator for the
            /// supervisor's logs; the full per-peer floor vector
            /// travels in the payload.
            seq_floor: u64,
        },
        /// Client -> serve supervisor: the payload carries one encoded
        /// mutation batch (see `cmg-serve`'s wire schema) to apply to
        /// the resident graph and repair around.
        18 => MutateBatch {
            /// Client-assigned batch id, echoed in [`Ctrl::MutateAck`].
            batch_id: u64,
        },
        /// Serve supervisor -> client: batch applied and repaired; the
        /// payload carries the repair report (dirtiness, repair mode,
        /// and latency).
        19 => MutateAck {
            /// The batch being acknowledged.
            batch_id: u64,
        },
        /// Client -> serve supervisor: the payload carries one encoded
        /// query against the resident result (matching/coloring
        /// summary or per-vertex lookup).
        20 => Query {
            /// Client-assigned query id, echoed in [`Ctrl::QueryReply`].
            query_id: u64,
        },
        /// Serve supervisor -> client: the payload carries the query's
        /// answer.
        21 => QueryReply {
            /// The query being answered.
            query_id: u64,
        },
        /// Client -> serve supervisor: the client is finished; the
        /// server drops the connection (the resident state lives on for
        /// the next client).
        22 => SessionEnd,
    }
}

/// One frame: control word plus opaque payload. The link sequence
/// number is assigned by the sending [`LinkWriter`](crate::link::LinkWriter)
/// at transmit-decision time, not stored here.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The control word.
    pub ctrl: Ctrl,
    /// Payload bytes whose schema `ctrl` determines.
    pub payload: Bytes,
}

impl Frame {
    /// A payload-less frame.
    pub fn bare(ctrl: Ctrl) -> Self {
        Frame {
            ctrl,
            payload: Bytes::new(),
        }
    }

    /// A frame carrying `payload`.
    pub fn with_payload(ctrl: Ctrl, payload: Bytes) -> Self {
        Frame { ctrl, payload }
    }
}

/// Validates the first frame on a link — a [`Ctrl::Hello`] speaking
/// this build's [`PROTO_VERSION`] — and returns the dialing rank. `who`
/// names the dialer's role ("worker", "peer") in the refusal.
pub(crate) fn hello_rank(hello: &Frame, who: &str) -> Result<u32, NetError> {
    match hello.ctrl {
        Ctrl::Hello { rank, proto } if proto == PROTO_VERSION => Ok(rank),
        Ctrl::Hello { rank, proto } => Err(NetError::protocol(format!(
            "{who} {rank} speaks protocol {proto}, expected {PROTO_VERSION}"
        ))),
        other @ (Ctrl::Assignment { .. }
        | Ctrl::Ready { .. }
        | Ctrl::Start
        | Ctrl::RoundBundle { .. }
        | Ctrl::Heartbeat { .. }
        | Ctrl::FaultPoint { .. }
        | Ctrl::Stats { .. }
        | Ctrl::Outcome { .. }
        | Ctrl::Events { .. }
        | Ctrl::Done { .. }
        | Ctrl::Shutdown
        | Ctrl::Fatal { .. }
        | Ctrl::HeartbeatAck { .. }
        | Ctrl::RoundDone { .. }
        | Ctrl::Checkpoint { .. }
        | Ctrl::MutateBatch { .. }
        | Ctrl::MutateAck { .. }
        | Ctrl::Query { .. }
        | Ctrl::QueryReply { .. }
        | Ctrl::SessionEnd) => Err(NetError::protocol(format!(
            "expected a {who} Hello, got {other:?}"
        ))),
    }
}

/// Appends one frame to `out`, its payload written in place by
/// `write_payload`: the length prefix is reserved up front and filled in
/// once the payload is there, so a payload encodes once, straight into
/// the buffer that goes to the wire, instead of into a [`Bytes`] that
/// [`encode_frame`] then copies. Returns what `write_payload` returns.
pub fn append_frame<R>(
    out: &mut Vec<u8>,
    seq: u64,
    ctrl: Ctrl,
    write_payload: impl FnOnce(&mut Vec<u8>) -> R,
) -> R {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&seq.to_le_bytes());
    ctrl.encode(out);
    let written = write_payload(out);
    let body_len = ((out.len() - start - 4) as u32).to_le_bytes();
    out[start..start + 4].copy_from_slice(&body_len);
    written
}

/// Serializes `(seq, frame)` into a length-prefixed byte vector ready
/// for a single `write_all`.
pub fn encode_frame(seq: u64, frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + frame.ctrl.encoded_len() + frame.payload.len());
    append_frame(&mut out, seq, frame.ctrl, |p| {
        p.extend_from_slice(&frame.payload)
    });
    out
}

/// Reads one `(seq, frame)` from `r`, blocking until a whole frame is
/// available. `Ok(None)` means clean end-of-stream at a frame
/// boundary; errors mid-frame or malformed control words are
/// [`NetError`]s.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u64, Frame)>, NetError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf) {
        Ok(false) => return Ok(None),
        Ok(true) => {}
        Err(e) => return Err(NetError::io("reading frame length", e)),
    }
    let len = u32::from_le_bytes(len_buf);
    check_len(len)?;
    // The body lands in reserved, never zero-filled, capacity, and the
    // payload is handed out as a window of that same buffer.
    let mut body = Vec::with_capacity(len as usize);
    match r.take(u64::from(len)).read_to_end(&mut body) {
        Ok(n) if n == len as usize => decode_body(Bytes::from(body)).map(Some),
        Ok(_) => Err(NetError::io(
            "reading frame body",
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "stream closed mid-frame"),
        )),
        Err(e) => Err(NetError::io("reading frame body", e)),
    }
}

/// Refuses a length prefix no frame can have.
fn check_len(len: u32) -> Result<(), NetError> {
    if (MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        Ok(())
    } else {
        Err(NetError::protocol(format!(
            "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
        )))
    }
}

/// Decodes everything after the length prefix: `[u64 seq][ctrl][payload]`
/// (`body` is at least [`MIN_FRAME_LEN`] bytes — [`read_frame`] and the
/// reactor both check the length). The payload is a window of `body`,
/// not a copy.
pub(crate) fn decode_body(body: Bytes) -> Result<(u64, Frame), NetError> {
    let seq = u64::from_le_bytes([
        body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
    ]);
    let mut cursor: &[u8] = &body[8..];
    let ctrl = match Ctrl::decode(&mut cursor) {
        Some(c) => c,
        None => {
            return Err(NetError::protocol(format!(
                "unparseable control word (first byte {})",
                body[8]
            )))
        }
    };
    let payload = body.slice(body.len() - cursor.len()..);
    Ok((seq, Frame { ctrl, payload }))
}

/// `read_exact` that distinguishes "EOF before the first byte"
/// (`Ok(false)`) from data/short-read errors.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn frame_round_trip_preserves_seq_ctrl_payload() {
        let frames = [
            (
                0u64,
                Frame::bare(Ctrl::Hello {
                    rank: 3,
                    proto: PROTO_VERSION,
                }),
            ),
            (
                7,
                Frame::with_payload(
                    Ctrl::RoundBundle {
                        round: 42,
                        src: 1,
                        npackets: 2,
                        sent_micros: 123_456,
                    },
                    Bytes::from(vec![1u8, 2, 3, 4, 5]),
                ),
            ),
            (8, Frame::bare(Ctrl::Shutdown)),
            (
                9,
                Frame::with_payload(Ctrl::Fatal { rank: 2 }, Bytes::from(&b"boom"[..])),
            ),
        ];
        let mut wire: Vec<u8> = Vec::new();
        for (seq, f) in &frames {
            wire.extend_from_slice(&encode_frame(*seq, f));
        }
        let mut cursor: &[u8] = &wire;
        for (seq, f) in &frames {
            let (got_seq, got) = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(got_seq, *seq);
            assert_eq!(&got, f);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_oversized_and_stale_version_frames_are_rejected() {
        let wire = encode_frame(
            0,
            &Frame::with_payload(Ctrl::Start, Bytes::from(vec![9u8; 16])),
        );
        for cut in 1..wire.len() {
            let mut cursor = &wire[..cut];
            assert!(
                read_frame(&mut cursor).is_err(),
                "cut at {cut} should error, not hang or succeed"
            );
        }
        let mut giant = Vec::new();
        giant.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        giant.extend_from_slice(&[0u8; 32]);
        let mut cursor: &[u8] = &giant;
        match read_frame(&mut cursor) {
            Err(NetError::Protocol { detail }) => assert!(detail.contains("frame length")),
            other => {
                panic!("expected protocol error, got {other:?}");
            }
        }
        // A v7 dialer is refused by the supervisor ("worker") and by
        // the peer acceptor ("peer") alike: both admit through here.
        let v7_hello = Frame::bare(Ctrl::Hello { rank: 2, proto: 7 });
        for who in ["worker", "peer"] {
            match hello_rank(&v7_hello, who) {
                Err(NetError::Protocol { detail }) => {
                    assert_eq!(detail, format!("{who} 2 speaks protocol 7, expected 8"));
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn control_words_have_stable_tags() {
        // The tag bytes are the wire contract; a re-numbering would let
        // mismatched builds misparse each other. Pin them.
        let mut buf = BytesMut::new();
        Ctrl::Start.encode(&mut buf);
        assert_eq!(buf[0], 3);
        let mut buf = BytesMut::new();
        Ctrl::Shutdown.encode(&mut buf);
        assert_eq!(buf[0], 13);
        let mut buf = BytesMut::new();
        Ctrl::RoundBundle {
            round: 0,
            src: 0,
            npackets: 0,
            sent_micros: 0,
        }
        .encode(&mut buf);
        assert_eq!(buf[0], 4);
        assert_eq!(buf.len(), 1 + 8 + 4 + 4 + 8);
        let mut buf = BytesMut::new();
        Ctrl::HeartbeatAck {
            rank: 0,
            echo_micros: 0,
            sup_micros: 0,
        }
        .encode(&mut buf);
        assert_eq!(buf[0], 15);
        assert_eq!(buf.len(), 1 + 4 + 8 + 8);
        let mut buf = BytesMut::new();
        Ctrl::RoundDone {
            round: 0,
            src: 0,
            active: 0,
        }
        .encode(&mut buf);
        assert_eq!(buf[0], 16);
        assert_eq!(buf.len(), 1 + 8 + 4 + 1);
        let mut buf = BytesMut::new();
        Ctrl::Checkpoint {
            rank: 0,
            round: 0,
            seq_floor: 0,
        }
        .encode(&mut buf);
        assert_eq!(buf[0], 17);
        assert_eq!(buf.len(), 1 + 4 + 8 + 8);
        let mut buf = BytesMut::new();
        Ctrl::MutateBatch { batch_id: 0 }.encode(&mut buf);
        assert_eq!(buf[0], 18);
        assert_eq!(buf.len(), 1 + 8);
        let mut buf = BytesMut::new();
        Ctrl::MutateAck { batch_id: 0 }.encode(&mut buf);
        assert_eq!(buf[0], 19);
        let mut buf = BytesMut::new();
        Ctrl::Query { query_id: 0 }.encode(&mut buf);
        assert_eq!(buf[0], 20);
        let mut buf = BytesMut::new();
        Ctrl::QueryReply { query_id: 0 }.encode(&mut buf);
        assert_eq!(buf[0], 21);
        let mut buf = BytesMut::new();
        Ctrl::SessionEnd.encode(&mut buf);
        assert_eq!(buf[0], 22);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn a_frame_appended_in_place_is_encode_frames_bytes() {
        // A full-vector reply's size: 65,536 nine-byte records.
        let payload: Vec<u8> = (0..65_536u32 * 9)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let ctrl = Ctrl::QueryReply { query_id: 7 };
        let want = encode_frame(3, &Frame::with_payload(ctrl, Bytes::from(payload.clone())));
        // The layout spelled out: [u32 len][u64 seq][tag 21, u64 id][payload].
        let mut spelled = ((8 + 9 + payload.len()) as u32).to_le_bytes().to_vec();
        spelled.extend_from_slice(&3u64.to_le_bytes());
        spelled.push(21);
        spelled.extend_from_slice(&7u64.to_le_bytes());
        spelled.extend_from_slice(&payload);
        assert!(want == spelled, "encode_frame's layout");

        // Written in place behind another frame in the same buffer.
        let mut out = encode_frame(2, &Frame::bare(Ctrl::Start));
        let first = out.len();
        let returned = append_frame(&mut out, 3, ctrl, |p| {
            p.extend_from_slice(&payload);
            p.len()
        });
        assert_eq!(returned, out.len());
        assert!(out[first..] == want[..], "append_frame's bytes");

        let check = |got: &[(u64, Frame)]| {
            assert_eq!(got.len(), 2);
            assert_eq!((got[0].0, got[0].1.ctrl), (2, Ctrl::Start));
            assert_eq!((got[1].0, got[1].1.ctrl), (3, ctrl));
            assert!(got[1].1.payload[..] == payload[..]);
        };
        let mut cursor: &[u8] = &out;
        let mut got = Vec::new();
        while let Some(sf) = read_frame(&mut cursor).unwrap() {
            got.push(sf);
        }
        check(&got);
        // Read back from a stream that yields 1, 2, ..., 7, 1, ... bytes
        // per read.
        let mut dribble = Dribble {
            rest: &out,
            pieces: (1..=7).cycle(),
        };
        let mut got = Vec::new();
        while let Some(sf) = read_frame(&mut dribble).unwrap() {
            got.push(sf);
        }
        check(&got);
    }

    /// A reader that hands out its bytes a few at a time, as a socket may.
    struct Dribble<'a, I> {
        rest: &'a [u8],
        pieces: I,
    }

    impl<I: Iterator<Item = usize>> Read for Dribble<'_, I> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self
                .pieces
                .next()
                .unwrap()
                .min(buf.len())
                .min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }
}
