//! The peer-link receive path: one poll-based reactor thread per
//! worker.
//!
//! A reader thread per link would park `p - 1` OS threads per rank in
//! blocking reads — at `p = 8` that is 56 threads across the mesh whose
//! wakeup/context-switch cost lands squarely on the round critical
//! path. The reactor is instead a single thread that multiplexes every
//! peer link over an epoll readiness queue: sockets are switched to
//! non-blocking mode, registered with a [`mio::Poll`], and drained on
//! readiness through a per-link streaming [`FrameAssembler`] that
//! re-frames whatever byte chunks the kernel hands back (coalesced
//! batches from the sender's vectored writes arrive as one readable
//! burst and decode into their constituent frames with no extra
//! syscalls).
//!
//! Decoded frames feed the worker's [`Incoming`] channel, where the
//! main loop does the resequencing, delivery, and fault diagnosis. EOF,
//! read errors, and malformed frames all collapse to
//! [`Incoming::PeerGone`]: the supervisor diagnoses *why* a peer
//! vanished, the worker only observes that it did.
//!
//! This module is the reactor the `no-blocking-io-in-reactor` lint
//! guards: every kernel entry here goes through the `mio` shim (the
//! designated syscall boundary), never through blocking `std::io`
//! calls. The supervisor link keeps its dedicated blocking reader
//! thread — it is off the round critical path and wants blocking
//! semantics for heartbeat-ack timestamping.

use crate::frame::FrameAssembler;
use crate::worker::Incoming;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::Sender;

/// Kernel read chunk: large enough that a whole coalesced round batch
/// usually drains in one syscall.
const READ_BUF: usize = 64 * 1024;

/// One registered peer link: the cloned read half, its incremental
/// frame decoder, and whether it is still registered with the poll.
struct LinkState {
    from: u32,
    stream: UnixStream,
    asm: FrameAssembler,
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
            asm: FrameAssembler::new(),
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

/// Drains one link until the socket reports empty, feeding every
/// complete frame to the main loop. Returns `false` when the link is
/// finished — EOF, a read error, a framing error, or a hung-up
/// receiver — and `true` when it merely ran dry.
fn drain(s: &mut LinkState, buf: &mut [u8], tx: &Sender<Incoming>, gen: u64) -> bool {
    loop {
        match mio::read_fd(s.stream.as_raw_fd(), buf) {
            Ok(0) => return false,
            Ok(n) => {
                s.asm.extend(&buf[..n]);
                loop {
                    match s.asm.next_frame() {
                        Ok(Some((seq, frame))) => {
                            let incoming = Incoming::Peer {
                                from: s.from,
                                seq,
                                frame,
                                gen,
                            };
                            if tx.send(incoming).is_err() {
                                return false;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return false,
                    }
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
    use crate::frame::{Ctrl, Frame};
    use crate::link::LinkWriter;
    use bytes::Bytes;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn recv_peer(rx: &std::sync::mpsc::Receiver<Incoming>) -> (u32, u64, Frame) {
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::Peer {
                from, seq, frame, ..
            } => (from, seq, frame),
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
}
