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
use bytes::{Bytes, BytesMut};
use cmg_runtime::{wire_codec, WireMessage};
use std::io::{Read, Write};

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
/// always-zero wire-wait telemetry counter.
pub const PROTO_VERSION: u32 = 6;

/// Upper bound on a frame's encoded size (64 MiB). A length prefix
/// beyond this is treated as corruption rather than honored with a
/// giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

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
        other => Err(NetError::protocol(format!(
            "expected a {who} Hello, got {other:?}"
        ))),
    }
}

/// Serializes `(seq, frame)` into a length-prefixed byte vector ready
/// for a single `write_all`.
pub fn encode_frame(seq: u64, frame: &Frame) -> Vec<u8> {
    let body_len = 8 + frame.ctrl.encoded_len() + frame.payload.len();
    let mut out: Vec<u8> = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut ctrl_buf = BytesMut::with_capacity(frame.ctrl.encoded_len());
    frame.ctrl.encode(&mut ctrl_buf);
    out.extend_from_slice(&ctrl_buf);
    out.extend_from_slice(&frame.payload);
    out
}

/// Writes one frame to `w` (a single `write_all` of the encoding).
pub fn write_frame(w: &mut impl Write, seq: u64, frame: &Frame) -> Result<(), NetError> {
    let encoded = encode_frame(seq, frame);
    w.write_all(&encoded)
        .map_err(|e| NetError::io(format!("writing {:?} frame", frame.ctrl), e))
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
    if !(9..=MAX_FRAME_LEN).contains(&len) {
        return Err(NetError::protocol(format!(
            "frame length {len} outside [9, {MAX_FRAME_LEN}]"
        )));
    }
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

/// Decodes everything after the length prefix: `[u64 seq][ctrl][payload]`
/// (`body` is at least 9 bytes — both callers checked the length). The
/// payload is a window of `body`, not a copy.
fn decode_body(body: Bytes) -> Result<(u64, Frame), NetError> {
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

/// Incremental frame decoder for non-blocking byte streams.
///
/// The reactor reads whatever the socket has — which may be half a
/// frame, or several coalesced frames back to back from one vectored
/// write — appends it via [`FrameAssembler::extend`], and drains
/// complete frames with [`FrameAssembler::next_frame`]. The wire
/// grammar and validation are identical to [`read_frame`]; only the
/// blocking discipline differs.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so a burst of small
    /// frames costs one memmove, not one per frame.
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends raw bytes read off the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // nonblocking: begin — reactor feeds raw reads straight in
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
        // nonblocking: end
    }

    /// Pops the next complete `(seq, frame)`, or `Ok(None)` if the
    /// buffer holds only a partial frame. Malformed lengths or control
    /// words are [`NetError`]s, exactly as in [`read_frame`].
    pub fn next_frame(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        // nonblocking: begin — called from the reactor's event loop
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if !(9..=MAX_FRAME_LEN).contains(&len) {
            return Err(NetError::protocol(format!(
                "frame length {len} outside [9, {MAX_FRAME_LEN}]"
            )));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let decoded = decode_body(Bytes::from(&avail[4..total]))?;
        self.start += total;
        // Compact once the dead prefix dominates, bounding memory while
        // keeping amortized cost O(bytes).
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(decoded))
        // nonblocking: end
    }
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
            write_frame(&mut wire, *seq, f).unwrap();
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
        // A v5 dialer is refused by the supervisor ("worker") and by
        // the peer acceptor ("peer") alike: both admit through here.
        let v5_hello = Frame::bare(Ctrl::Hello { rank: 2, proto: 5 });
        for who in ["worker", "peer"] {
            match hello_rank(&v5_hello, who) {
                Err(NetError::Protocol { detail }) => {
                    assert_eq!(detail, format!("{who} 2 speaks protocol 5, expected 6"));
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
    fn assembler_reproduces_read_frame_at_every_chunking() {
        let frames = [
            (
                5u64,
                Frame::with_payload(
                    Ctrl::RoundBundle {
                        round: 3,
                        src: 1,
                        npackets: 1,
                        sent_micros: 99,
                    },
                    Bytes::from(vec![7u8; 33]),
                ),
            ),
            (
                6,
                Frame::bare(Ctrl::RoundDone {
                    round: 3,
                    src: 1,
                    active: 1,
                }),
            ),
            (7, Frame::bare(Ctrl::Shutdown)),
        ];
        let mut wire: Vec<u8> = Vec::new();
        for (seq, f) in &frames {
            wire.extend_from_slice(&encode_frame(*seq, f));
        }
        // Feed the stream in every chunk size: 1-byte dribble through
        // one giant slab (a coalesced writev arriving whole).
        for chunk in 1..=wire.len() {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                asm.extend(piece);
                while let Some(sf) = asm.next_frame().unwrap() {
                    got.push(sf);
                }
            }
            assert_eq!(got.len(), frames.len(), "chunk size {chunk}");
            for ((gs, gf), (es, ef)) in got.iter().zip(frames.iter()) {
                assert_eq!(gs, es);
                assert_eq!(gf, ef);
            }
            assert_eq!(asm.buf.len(), asm.start, "bytes left over");
        }
    }

    #[test]
    fn assembler_rejects_oversized_length() {
        let mut asm = FrameAssembler::new();
        asm.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        asm.extend(&[0u8; 16]);
        match asm.next_frame() {
            Err(NetError::Protocol { detail }) => assert!(detail.contains("frame length")),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
}
