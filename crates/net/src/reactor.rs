//! The peer-link receive path: one poll-based reactor thread per
//! worker.
//!
//! A reader thread per link would park `p - 1` OS threads per rank in
//! blocking reads — at `p = 8` that is 56 threads across the mesh whose
//! wakeup/context-switch cost lands squarely on the round critical
//! path. The reactor is instead a single thread that multiplexes every
//! peer link over an epoll readiness queue: sockets are switched to
//! non-blocking mode, registered with a [`mio::Poll`], and drained on
//! readiness through a per-link [`Splitter`] that cuts whatever byte
//! chunks the kernel hands back at their length prefixes (coalesced
//! batches from the sender's vectored writes arrive as one readable
//! burst and split into their constituent frames with no extra
//! syscalls).
//!
//! Each frame body goes to the worker's [`Incoming`] channel, where the
//! main loop decodes it and does the resequencing, delivery, and fault
//! diagnosis. EOF, read errors, and a length no frame can have all
//! collapse to [`Incoming::PeerGone`]: the supervisor diagnoses *why* a
//! peer vanished, the worker only observes that it did.
//!
//! This module is a leaf: it names no workspace item but [`Incoming`],
//! and every kernel entry goes through the `mio` shim (the designated
//! syscall boundary), never through a blocking call. CI's `check` job
//! fails on either (DESIGN.md §11). The supervisor link keeps its
//! dedicated blocking reader thread — it is off the round critical path
//! and wants blocking semantics for heartbeat-ack timestamping.

use crate::worker::Incoming;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::Sender;

/// The shortest frame body: a `u64` sequence number and a one-byte
/// control word.
pub(crate) const MIN_FRAME_LEN: u32 = 9;

/// Upper bound on a frame's encoded size (64 MiB). A length prefix
/// beyond this is treated as corruption rather than honored with a
/// giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Kernel read chunk: large enough that a whole coalesced round batch
/// usually drains in one syscall.
const READ_BUF: usize = 64 * 1024;

/// Cuts one link's byte stream into frame bodies at their `u32` length
/// prefixes. Each body is read into a buffer of its own, allocated at
/// the length its prefix announces: a byte is copied once, from the
/// read chunk to its body.
#[derive(Debug, Default)]
struct Splitter {
    /// The length prefix being read, `prefix_len` bytes of it so far.
    prefix: [u8; 4],
    prefix_len: usize,
    /// The body being read, towards the `body_len` bytes its prefix
    /// announced (0 while a prefix is being read).
    body: Vec<u8>,
    body_len: usize,
}

impl Splitter {
    /// Splits the next `bytes` of the stream, handing each completed
    /// body to `deliver`. Returns `false` at a length prefix outside
    /// [`MIN_FRAME_LEN`]`..=`[`MAX_FRAME_LEN`] (the stream cannot be
    /// split past it) or when `deliver` does.
    fn split(&mut self, mut bytes: &[u8], mut deliver: impl FnMut(Vec<u8>) -> bool) -> bool {
        while !bytes.is_empty() {
            if self.body_len == 0 {
                let take = (4 - self.prefix_len).min(bytes.len());
                self.prefix[self.prefix_len..self.prefix_len + take]
                    .copy_from_slice(&bytes[..take]);
                self.prefix_len += take;
                bytes = &bytes[take..];
                if self.prefix_len == 4 {
                    self.prefix_len = 0;
                    let len = u32::from_le_bytes(self.prefix);
                    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
                        return false;
                    }
                    self.body_len = len as usize;
                    self.body = Vec::with_capacity(self.body_len);
                }
            } else {
                let take = (self.body_len - self.body.len()).min(bytes.len());
                self.body.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                if self.body.len() == self.body_len {
                    self.body_len = 0;
                    if !deliver(std::mem::take(&mut self.body)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// One registered peer link: the cloned read half, its splitter, and
/// whether it is still registered with the poll.
struct LinkState {
    from: u32,
    stream: UnixStream,
    splitter: Splitter,
    alive: bool,
}

/// Switches every peer read half to non-blocking mode, registers them
/// with a fresh [`mio::Poll`], and spawns the single reactor thread
/// that drains them into `tx`. The thread exits when every link has
/// closed or the main loop has dropped the receiver.
pub(crate) fn spawn_reactor(
    links: Vec<(u32, UnixStream)>,
    tx: Sender<Incoming>,
    gen: u64,
) -> std::io::Result<()> {
    let poll = mio::Poll::new()?;
    let mut states = Vec::with_capacity(links.len());
    for (index, (from, stream)) in links.into_iter().enumerate() {
        stream.set_nonblocking(true)?;
        poll.register(stream.as_raw_fd(), mio::Token(index))?;
        states.push(LinkState {
            from,
            stream,
            splitter: Splitter::default(),
            alive: true,
        });
    }
    let _ = std::thread::spawn(move || run(&poll, &mut states, &tx, gen));
    Ok(())
}

/// The reactor loop: wait for readiness, drain every ready link. Level
/// triggering keeps this restartable — anything not fully drained
/// reports readable again on the next wait.
fn run(poll: &mio::Poll, states: &mut [LinkState], tx: &Sender<Incoming>, gen: u64) {
    let mut events = mio::Events::with_capacity(states.len().max(1) * 2);
    let mut alive = states.len();
    let mut buf = vec![0u8; READ_BUF];
    while alive > 0 {
        if poll.poll(&mut events, None).is_err() {
            return;
        }
        for index in events.iter().map(|e| e.token().0).collect::<Vec<_>>() {
            let Some(s) = states.get_mut(index) else {
                continue;
            };
            if !s.alive {
                continue;
            }
            if !drain(s, &mut buf, tx, gen) {
                s.alive = false;
                alive -= 1;
                let _ = poll.deregister(s.stream.as_raw_fd());
                if tx.send(Incoming::PeerGone).is_err() {
                    return;
                }
            }
        }
    }
}

/// Drains one link until the socket reports empty, handing every
/// complete frame body to the main loop. Returns `false` when the link
/// is finished — EOF, a read error, a bad length prefix, or a hung-up
/// receiver — and `true` when it merely ran dry.
fn drain(s: &mut LinkState, buf: &mut [u8], tx: &Sender<Incoming>, gen: u64) -> bool {
    let from = s.from;
    loop {
        match mio::read_fd(s.stream.as_raw_fd(), buf) {
            Ok(0) => return false,
            Ok(n) => {
                let sent = |body| tx.send(Incoming::Peer { from, gen, body }).is_ok();
                if !s.splitter.split(&buf[..n], sent) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_body, encode_frame, Ctrl, Frame};
    use crate::link::LinkWriter;
    use bytes::Bytes;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn recv_peer(rx: &std::sync::mpsc::Receiver<Incoming>) -> (u32, u64, Frame) {
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::Peer { from, body, .. } => {
                let (seq, frame) = decode_body(Bytes::from(body)).unwrap();
                (from, seq, frame)
            }
            other => panic!("expected a peer frame, got {}", incoming_name(&other)),
        }
    }

    fn incoming_name(i: &Incoming) -> &'static str {
        match i {
            Incoming::Peer { .. } => "Peer",
            Incoming::PeerGone => "PeerGone",
            Incoming::Sup { .. } => "Sup",
            Incoming::SupGone => "SupGone",
            Incoming::SupReadFailed { .. } => "SupReadFailed",
        }
    }

    #[test]
    fn reactor_delivers_frames_from_two_links_with_seq_and_source() {
        let (r0, w0) = UnixStream::pair().unwrap();
        let (r1, w1) = UnixStream::pair().unwrap();
        let (tx, rx) = channel();
        spawn_reactor(vec![(3, r0), (5, r1)], tx, 0).unwrap();

        let mut link0 = LinkWriter::new(w0);
        let mut link1 = LinkWriter::new(w1);
        for i in 0..4u64 {
            link0
                .send(&Frame::with_payload(
                    Ctrl::Events { rank: 3 },
                    Bytes::from(vec![i as u8; 3]),
                ))
                .unwrap();
        }
        link1
            .send(&Frame::bare(Ctrl::RoundDone {
                round: 9,
                src: 5,
                active: 1,
            }))
            .unwrap();

        let mut seen0 = Vec::new();
        let mut seen1 = Vec::new();
        for _ in 0..5 {
            let (from, seq, frame) = recv_peer(&rx);
            match from {
                3 => seen0.push((seq, frame)),
                5 => seen1.push((seq, frame)),
                other => panic!("unexpected source {other}"),
            }
        }
        assert_eq!(
            seen0.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for (i, (_, f)) in seen0.iter().enumerate() {
            assert_eq!(f.payload.as_ref(), &[i as u8; 3]);
        }
        assert_eq!(seen1.len(), 1);
        assert!(matches!(
            seen1[0].1.ctrl,
            Ctrl::RoundDone {
                round: 9,
                src: 5,
                active: 1
            }
        ));
    }

    #[test]
    fn closing_a_link_surfaces_peer_gone_after_its_buffered_frames() {
        let (r0, w0) = UnixStream::pair().unwrap();
        let (tx, rx) = channel();
        spawn_reactor(vec![(1, r0)], tx, 0).unwrap();

        let mut link = LinkWriter::new(w0);
        link.send(&Frame::bare(Ctrl::Start)).unwrap();
        drop(link);

        let (from, seq, frame) = recv_peer(&rx);
        assert_eq!((from, seq), (1, 0));
        assert!(matches!(frame.ctrl, Ctrl::Start));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::PeerGone => {}
            other => panic!("expected PeerGone, got {}", incoming_name(&other)),
        }
    }

    #[test]
    fn garbage_on_a_link_collapses_to_peer_gone() {
        use std::io::Write;
        let (r0, mut w0) = UnixStream::pair().unwrap();
        let (tx, rx) = channel();
        spawn_reactor(vec![(0, r0)], tx, 0).unwrap();
        // A length prefix far beyond MAX_FRAME_LEN: a framing error, not
        // a frame.
        w0.write_all(&u32::MAX.to_le_bytes()).unwrap();
        w0.write_all(&[0u8; 32]).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::PeerGone => {}
            other => panic!("expected PeerGone, got {}", incoming_name(&other)),
        }
    }

    /// Splits `pieces` in order and decodes every body handed out.
    fn split_all<'a>(
        splitter: &mut Splitter,
        pieces: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<(u64, Frame)> {
        let mut got = Vec::new();
        for piece in pieces {
            let fine = splitter.split(piece, |body| {
                got.push(decode_body(Bytes::from(body)).unwrap());
                true
            });
            assert!(fine, "a good stream split as garbage");
        }
        got
    }

    /// `true` if `s` holds no byte of a frame: no prefix or body begun.
    fn drained(s: &Splitter) -> bool {
        s.prefix_len == 0 && s.body_len == 0
    }

    #[test]
    fn splitter_cuts_every_chunking_into_the_sent_frames() {
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
            let mut splitter = Splitter::default();
            let got = split_all(&mut splitter, wire.chunks(chunk));
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(drained(&splitter), "bytes left over");
        }
    }

    #[test]
    fn a_frame_split_across_reads_equals_one_read_whole() {
        let frame = Frame::with_payload(
            Ctrl::RoundBundle {
                round: 5,
                src: 2,
                npackets: 3,
                sent_micros: 77,
            },
            Bytes::from((0..40u8).collect::<Vec<u8>>()),
        );
        let wire = encode_frame(11, &frame);
        let whole = (11, frame);
        // Every split into three reads, empty ones included: the prefix,
        // the control word and the payload each cut anywhere. No body is
        // handed out before its last byte.
        for a in 0..=wire.len() {
            for b in a..=wire.len() {
                let mut splitter = Splitter::default();
                let (mut fed, mut got) = (0, Vec::new());
                for piece in [&wire[..a], &wire[a..b], &wire[b..]] {
                    let frames = split_all(&mut splitter, [piece]);
                    fed += piece.len();
                    assert!(frames.is_empty() || fed == wire.len(), "cut {a}, {b}");
                    got.extend(frames);
                }
                assert_eq!(got, std::slice::from_ref(&whole), "cut {a}, {b}");
                assert!(drained(&splitter), "cut {a}, {b}");
            }
        }
    }

    #[test]
    fn splitter_refuses_lengths_no_frame_can_have() {
        for len in [0, MIN_FRAME_LEN - 1, MAX_FRAME_LEN + 1, u32::MAX] {
            let mut splitter = Splitter::default();
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            let mut bodies = 0;
            assert!(!splitter.split(&wire, |_| {
                bodies += 1;
                true
            }));
            assert_eq!(bodies, 0, "length {len}");
        }
    }
}
