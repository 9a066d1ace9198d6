//! The rank worker: one OS process executing one rank of a distributed
//! run, driven entirely by frames from the supervisor and its peers.
//!
//! Life of a worker:
//!
//! 1. bind its own listener (`rank<r>.sock`), dial the supervisor with
//!    capped backoff, introduce itself (`Hello`), and receive its
//!    [`Assignment`] — partition slice, task, run options;
//! 2. build the peer mesh: dial every lower rank, accept every higher
//!    rank (one duplex stream per unordered pair, `Hello` from the
//!    dialer so the acceptor learns who called);
//! 3. report `Ready`, wait for `Start`;
//! 4. run the bulk-synchronous round protocol: deliver last round's
//!    bundles, step the algorithm, send one `RoundBundle` to each peer
//!    that has mail, announce `RoundDone` (with the activity bit) to
//!    every peer, then wait for every peer's `RoundDone` — the wave
//!    that is both the bundle-arrival proof and the termination vote;
//! 5. ship stats, outcome, buffered obs events, and `Done` home; wait
//!    for `Shutdown`.
//!
//! The step inside a round — delivery grouping, per-packet statistics,
//! event emission — is not written here: it is the
//! [`RankStep`](cmg_runtime::RankStep) the sim and threaded engines run,
//! on the same wall clock as the threaded engine, which is what makes
//! net-engine results and merged stats bit-identical to the other
//! engines under the synchronous bundled configuration. This file owns
//! how bundles travel and how a round ends.
//!
//! Nothing here panics: every failure is a [`NetError`], and the worker
//! reports it home as a `Fatal` frame before exiting so the supervisor
//! can diagnose the run instead of timing out.

use crate::error::NetError;
use crate::frame::{hello_rank, read_frame, Ctrl, Frame, PROTO_VERSION};
use crate::link::{connect_with_backoff, FaultPlan, LinkStats, LinkWriter, Resequencer};
use crate::proto::{
    decode_assignment, decode_checkpoint, encode_checkpoint_into, encode_outcome, encode_stats,
    encode_telemetry, Assignment, CheckpointState, ClockReport, LoopClock, NetTask, RunOptions,
    TransportSnapshot, WorkerOutcome,
};
use bytes::{BufMut, Bytes};
use cmg_coloring::{DistColoring, JonesPlassmann};
use cmg_matching::DistMatching;
use cmg_obs::{CollectingRecorder, Event, PhaseName, RankTelemetry, RecorderHandle, ENGINE_RANK};
use cmg_runtime::collectives::DoneWave;
use cmg_runtime::snapshot::restore_encoded;
use cmg_runtime::{RankCtx, RankProgram, RankStats, RankStep, Status, StepClock, WallClock};
use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sentinel timestamp for "the run has not started yet" (the event
/// epoch is fixed by `Start`, so earlier frames cannot be stamped).
pub(crate) const NO_STAMP: u64 = u64::MAX;

/// Cross-process clock alignment state, shared between the main loop
/// (which fixes the epoch at `Start`), the heartbeat thread (which
/// stamps beacons), and the supervisor-link reader (which absorbs
/// `HeartbeatAck` replies into an NTP-style offset estimate, keeping
/// the minimum-RTT sample as the least-polluted one).
struct ClockSync {
    epoch: Mutex<Option<Instant>>,
    best_rtt: AtomicU64,
    offset_micros: AtomicI64,
    have_offset: AtomicBool,
}

impl ClockSync {
    fn new() -> Self {
        ClockSync {
            epoch: Mutex::new(None),
            best_rtt: AtomicU64::new(u64::MAX),
            offset_micros: AtomicI64::new(0),
            have_offset: AtomicBool::new(false),
        }
    }

    fn set_epoch(&self, at: Instant) {
        let mut guard = match self.epoch.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = Some(at);
    }

    /// Microseconds since the epoch ([`NO_STAMP`] before `Start`).
    fn micros_now(&self) -> u64 {
        let guard = match self.epoch.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.map_or(NO_STAMP, |e| e.elapsed().as_micros() as u64)
    }

    /// Folds one heartbeat/ack exchange into the offset estimate:
    /// `t0` is our send stamp (echoed back), `t1` our receive stamp,
    /// `sup` the supervisor's clock at reply. The classic midpoint
    /// estimate `sup - (t0 + t1)/2` is kept for the exchange with the
    /// smallest round trip, whose asymmetry error is smallest.
    fn absorb_ack(&self, echo_micros: u64, sup_micros: u64) {
        let t1 = self.micros_now();
        if echo_micros == NO_STAMP || sup_micros == NO_STAMP || t1 == NO_STAMP || t1 < echo_micros {
            return;
        }
        let rtt = t1 - echo_micros;
        if rtt < self.best_rtt.load(Ordering::Relaxed) {
            let midpoint = (echo_micros + (rtt / 2)) as i64;
            self.best_rtt.store(rtt, Ordering::Relaxed);
            self.offset_micros
                .store(sup_micros as i64 - midpoint, Ordering::Relaxed);
            self.have_offset.store(true, Ordering::Relaxed);
        }
    }

    /// The final estimate shipped home with the stats.
    fn report(&self) -> ClockReport {
        ClockReport {
            offset_micros: self.offset_micros.load(Ordering::Relaxed),
            rtt_micros: self.best_rtt.load(Ordering::Relaxed),
            valid: self.have_offset.load(Ordering::Relaxed),
        }
    }
}

/// The cumulative telemetry counters the round loop publishes and the
/// heartbeat thread snapshots onto beacons. Plain relaxed atomics:
/// single writer (the main loop), one reader, no ordering required.
#[derive(Default)]
struct TelemetryCells {
    round: AtomicU64,
    delivery_ns: AtomicU64,
    compute_ns: AtomicU64,
    serialize_ns: AtomicU64,
    edge_wait_ns: AtomicU64,
    reseq_hold_ns: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    reseq_pending: AtomicU64,
    max_bundle_lag_micros: AtomicU64,
}

impl TelemetryCells {
    fn snapshot(&self, rank: u32) -> RankTelemetry {
        RankTelemetry {
            rank,
            round: self.round.load(Ordering::Relaxed),
            delivery_ns: self.delivery_ns.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            serialize_ns: self.serialize_ns.load(Ordering::Relaxed),
            edge_wait_ns: self.edge_wait_ns.load(Ordering::Relaxed),
            reseq_hold_ns: self.reseq_hold_ns.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            reseq_pending: self.reseq_pending.load(Ordering::Relaxed),
            max_bundle_lag_micros: self.max_bundle_lag_micros.load(Ordering::Relaxed),
        }
    }

    fn note_bundle_lag(&self, lag_micros: u64) {
        self.max_bundle_lag_micros
            .fetch_max(lag_micros, Ordering::Relaxed);
    }
}

/// Backoff ramp for dialing sockets that may not be bound yet.
const CONNECT_BASE: Duration = Duration::from_millis(2);
/// Backoff cap (no reconnect attempt waits longer than this).
const CONNECT_CAP: Duration = Duration::from_millis(100);
/// Total dial budget before giving up with [`NetError::Connect`].
const CONNECT_TOTAL: Duration = Duration::from_secs(10);
/// Socket write timeout: a peer that stops draining becomes an I/O
/// error instead of a hang.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the peer-mesh handshake may take end to end.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(20);
/// How long to wait for the supervisor's `Shutdown` after `Done`.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(30);
/// Event-pump tick: bounds how stale gap/held-frame checks can get.
const PUMP_TICK: Duration = Duration::from_millis(20);
/// Coalescing flush threshold on peer links: frames queued
/// for the same link within a round pack into one vectored write until
/// the batch reaches this many bytes (the round edge flushes whatever
/// remains, so this is a ceiling, not a latency floor).
const COALESCE_BYTES: usize = 64 * 1024;

/// Locks a mutex, recovering the guard from a poisoned lock (the owner
/// of the poison already carried its error elsewhere).
fn lock(m: &Mutex<LinkWriter<UnixStream>>) -> MutexGuard<'_, LinkWriter<UnixStream>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Everything the reactor and the supervisor-link reader can hand the
/// worker's main loop.
pub(crate) enum Incoming {
    /// A frame from peer `from`, with its link sequence number. `gen`
    /// is the session generation the reactor was spawned for: in a
    /// persistent-fleet session the channel outlives individual tasks,
    /// and a previous task's stragglers (final-round markers read after
    /// the next assignment landed) must not be fed to the new task's
    /// resequencers, whose sequence space restarted at zero.
    Peer {
        from: u32,
        seq: u64,
        frame: Frame,
        gen: u64,
    },
    /// A peer closed its stream (EOF or read error — either way
    /// nothing more is coming; the supervisor diagnoses the cause).
    PeerGone,
    /// A frame from the supervisor.
    Sup { frame: Frame },
    /// The supervisor closed its stream.
    SupGone,
    /// Reading the supervisor link failed.
    SupReadFailed { error: NetError },
}

/// The worker's connection state: one writer + resequencer per peer,
/// the shared supervisor writer, and the round-protocol bookkeeping.
struct Transport {
    rank: u32,
    num_ranks: u32,
    opts: RunOptions,
    /// Per-peer send halves (`None` at our own index).
    writers: Vec<Option<LinkWriter<UnixStream>>>,
    /// Per-peer receive order restoration.
    reseq: Vec<Resequencer>,
    rx: Receiver<Incoming>,
    sup: Arc<Mutex<LinkWriter<UnixStream>>>,
    /// Packets awaiting delivery, keyed by the round they were *sent*
    /// in (delivered one round later). Self-sends land here directly.
    pending: BTreeMap<u64, Vec<(u32, Bytes, u32)>>,
    /// The round edge: counts peers' [`Ctrl::RoundDone`] announcements
    /// per round (phase = round).
    wave: DoneWave,
    /// OR of the peers' activity bits carried on their `RoundDone`s,
    /// keyed by round; combined with our own bit this is the global
    /// keep-going verdict, computed locally.
    peer_active: BTreeMap<u64, bool>,
    /// Set when `Start` arrives; also fixes the event-time epoch.
    started: bool,
    /// Set when `Shutdown` arrives.
    shutdown: bool,
    /// This task's session generation; peer frames tagged with an
    /// older one are previous-task stragglers and are dropped.
    gen: u64,
    /// Set when the supervisor ships the *next* assignment of a
    /// persistent-fleet session instead of `Shutdown`: the payload of
    /// the task this worker runs after the current one winds down.
    next_assignment: Option<Bytes>,
    epoch: Option<Instant>,
    /// Shared with the heartbeat and supervisor-reader threads.
    clock: Arc<ClockSync>,
    /// `Some` when the run ships live telemetry on heartbeats.
    telemetry: Option<Arc<TelemetryCells>>,
    /// Size of the last [`Ctrl::Checkpoint`] payload shipped, used (with
    /// headroom) to pre-size the next one's wire buffer so the encode
    /// hot path normally never reallocates.
    ckpt_len_hint: usize,
}

impl Transport {
    /// Microseconds since `Start` for wire stamps ([`NO_STAMP`] before).
    fn wire_micros(&self) -> u64 {
        self.epoch
            .map_or(NO_STAMP, |e| e.elapsed().as_micros() as u64)
    }

    /// Sends one frame to a peer.
    fn send_peer(&mut self, dst: u32, frame: &Frame) -> Result<(), NetError> {
        match self.writers.get_mut(dst as usize).and_then(Option::as_mut) {
            Some(w) => w.send(frame),
            None => Err(NetError::protocol(format!(
                "rank {} has no link to rank {dst}",
                self.rank
            ))),
        }
    }

    /// Releases every held (delay-faulted) frame on every peer link.
    /// Called before any blocking wait, which is what makes delay
    /// faults pure reorders instead of deadlocks.
    fn flush_all(&mut self) -> Result<(), NetError> {
        for w in self.writers.iter_mut().flatten() {
            w.flush_held()?;
        }
        Ok(())
    }

    /// Blocks up to `timeout` for one incoming event, then drains the
    /// backlog without blocking.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => self.dispatch(ev)?,
            Err(RecvTimeoutError::Timeout) => return Ok(()),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::protocol("every link reader exited"))
            }
        }
        loop {
            match self.rx.try_recv() {
                Ok(ev) => self.dispatch(ev)?,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return Ok(()),
            }
        }
    }

    fn dispatch(&mut self, ev: Incoming) -> Result<(), NetError> {
        match ev {
            Incoming::Peer {
                from,
                seq,
                frame,
                gen,
            } => {
                if gen != self.gen {
                    // A straggler from the previous task of this
                    // session (its reactor outlives the task).
                    return Ok(());
                }
                let mut ready = Vec::new();
                match self.reseq.get_mut(from as usize) {
                    Some(r) => r.accept(seq, frame, &mut ready),
                    None => {
                        return Err(NetError::protocol(format!(
                            "frame from out-of-range rank {from}"
                        )))
                    }
                }
                for f in ready {
                    self.on_peer_frame(from, f)?;
                }
                Ok(())
            }
            // A vanished peer is not diagnosed here: the supervisor
            // watches exit statuses and heartbeats and produces the
            // typed error; this worker just stops hearing from it.
            Incoming::PeerGone => Ok(()),
            Incoming::Sup { frame } => self.on_sup_frame(frame),
            Incoming::SupGone => {
                if self.shutdown {
                    Ok(())
                } else {
                    Err(NetError::protocol("supervisor link closed mid-run"))
                }
            }
            Incoming::SupReadFailed { error } => Err(error),
        }
    }

    /// Handles one in-order data-plane frame from `from`.
    fn on_peer_frame(&mut self, from: u32, frame: Frame) -> Result<(), NetError> {
        match frame.ctrl {
            Ctrl::RoundBundle {
                round,
                src,
                npackets,
                sent_micros,
            } => {
                if src != from {
                    return Err(NetError::protocol(format!(
                        "bundle claims src {src} but arrived on rank {from}'s link"
                    )));
                }
                if let Some(cells) = &self.telemetry {
                    // Approximate cross-rank lag: both epochs are fixed
                    // by `Start` receipt, so the stamps are comparable
                    // to within the start-fanout skew. Good enough to
                    // spot a congested link; the clock-offset report is
                    // the precise instrument.
                    let local = self.wire_micros();
                    if sent_micros != NO_STAMP && local != NO_STAMP && local > sent_micros {
                        cells.note_bundle_lag(local - sent_micros);
                    }
                }
                let packets = parse_bundle(&frame.payload, npackets)?;
                let slot = self.pending.entry(round).or_default();
                for (payload, logical) in packets {
                    slot.push((src, payload, logical));
                }
                Ok(())
            }
            Ctrl::RoundDone { round, src, active } => {
                if src != from {
                    return Err(NetError::protocol(format!(
                        "round-done claims src {src} but arrived on rank {from}'s link"
                    )));
                }
                // Link FIFO order means this frame proves the peer's
                // round-`round` bundle (if it sent one) was dispatched
                // before it — counting the wave is counting bundles.
                self.wave.record(round as u32);
                *self.peer_active.entry(round).or_insert(false) |= active != 0;
                Ok(())
            }
            other => Err(NetError::protocol(format!(
                "unexpected {other:?} frame on the peer link from rank {from}"
            ))),
        }
    }

    fn on_sup_frame(&mut self, frame: Frame) -> Result<(), NetError> {
        match frame.ctrl {
            Ctrl::Start => {
                self.started = true;
                let epoch = Instant::now();
                self.epoch = Some(epoch);
                self.clock.set_epoch(epoch);
                Ok(())
            }
            Ctrl::Shutdown => {
                self.shutdown = true;
                Ok(())
            }
            // Persistent-fleet session: after this task's `Done`, the
            // supervisor sends the next task's assignment on the same
            // link instead of `Shutdown`. Stash it; the post-`Done`
            // wait loop hands it back to `worker_main`'s session loop.
            Ctrl::Assignment { rank: addressee } => {
                if addressee != self.rank {
                    return Err(NetError::protocol(format!(
                        "rank {} received rank {addressee}'s assignment",
                        self.rank
                    )));
                }
                self.next_assignment = Some(frame.payload);
                Ok(())
            }
            other => Err(NetError::protocol(format!(
                "unexpected {other:?} frame on the supervisor link"
            ))),
        }
    }

    /// Fails the run if any link has had newer frames waiting behind a
    /// missing sequence number for longer than the gap deadline — the
    /// unrecoverable-drop diagnosis (this transport never retransmits).
    fn check_gaps(&self) -> Result<(), NetError> {
        let deadline = Duration::from_millis(self.opts.gap_deadline_millis);
        for (from, r) in self.reseq.iter().enumerate() {
            if let Some((expected_seq, waited)) = r.gap() {
                if waited >= deadline {
                    return Err(NetError::FrameLoss {
                        rank: self.rank,
                        from: from as u32,
                        expected_seq,
                        waited,
                    });
                }
            }
        }
        Ok(())
    }

    /// The round edge: blocks until every peer's [`Ctrl::RoundDone`]
    /// for `round` has arrived, then returns the OR of their activity
    /// bits. Because links are FIFO and each peer announces *after* its
    /// sends, a complete wave also proves every peer bundle for `round`
    /// has been dispatched — this one wait is both the termination
    /// vote and the next round's bundle wait, and it completes
    /// rank-locally: a rank proceeds the moment it has heard from
    /// everyone, with no decision round-tripping through a root, so
    /// neighbor ranks pipeline up to one round apart.
    fn wait_wave(&mut self, round: u64) -> Result<bool, NetError> {
        let expected = (self.num_ranks - 1) as usize;
        loop {
            // Flush before looking: even when every peer's announcement
            // is already here, ours must leave now — the peers are
            // waiting on it, and this rank may not block again soon.
            self.flush_all()?;
            if self.wave.ready(round as u32, expected) {
                break;
            }
            self.pump(PUMP_TICK)?;
            self.check_gaps()?;
        }
        self.wave.clear(round as u32);
        Ok(self.peer_active.remove(&round).unwrap_or(false))
    }

    /// Sends this round's packets as the step hands them over: one
    /// `RoundBundle` per peer with mail, self-sends looped into next
    /// round's pending queue.
    fn send_round<P: RankProgram>(
        &mut self,
        round: u64,
        step: &mut RankStep<P>,
        clock: &mut WallClock,
    ) -> Result<(), NetError> {
        let rank = self.rank;
        // `finish_into` sorted by destination, so each destination's
        // packets are one consecutive group. A peer with no group gets no
        // bundle: the round-done announcement is the "nothing more this
        // round" marker, so an empty one would only be a frame for the
        // receiver to discard.
        let mut packets = step.drain(clock).map(|(p, ())| p).peekable();
        while let Some(first) = packets.next() {
            let dst = first.dst;
            let group = std::iter::once(first)
                .chain(std::iter::from_fn(|| packets.next_if(|p| p.dst == dst)));
            if dst == rank {
                // Self-sends never touch the wire: deliver next round.
                let slot = self.pending.entry(round).or_default();
                slot.extend(group.map(|p| (rank, p.payload, p.logical)));
                continue;
            }
            let mut payload = Vec::new();
            let mut npackets = 0;
            for p in group {
                npackets += 1;
                payload.put_u32_le(p.logical);
                payload.put_u32_le(p.payload.len() as u32);
                payload.put_slice(&p.payload);
            }
            let sent_micros = self.wire_micros();
            self.send_peer(
                dst,
                &Frame::with_payload(
                    Ctrl::RoundBundle {
                        round,
                        src: rank,
                        npackets,
                        sent_micros,
                    },
                    Bytes::from(payload),
                ),
            )?;
        }
        Ok(())
    }

    /// Announces this rank's round completion (and termination vote) to
    /// every peer. Sent right after the round's bundles, so it rides in
    /// the same coalesced batch and, by link FIFO order, certifies them.
    fn send_round_done(&mut self, round: u64, active: bool) -> Result<(), NetError> {
        let rank = self.rank;
        for dst in 0..self.num_ranks {
            if dst == rank {
                continue;
            }
            self.send_peer(
                dst,
                &Frame::bare(Ctrl::RoundDone {
                    round,
                    src: rank,
                    active: u8::from(active),
                }),
            )?;
        }
        Ok(())
    }

    /// Aggregated link counters across every peer link of this rank.
    fn link_totals(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for w in self.writers.iter().flatten() {
            total.merge(&w.stats());
        }
        for r in &self.reseq {
            total.frames_received += r.delivered;
            total.dup_discarded += r.dup_discarded;
        }
        total
    }

    /// Captures the transport tables at a round edge for a checkpoint.
    /// Safe to call between pumps: the reactor only enqueues, so nothing
    /// here mutates concurrently.
    fn snapshot_tables(&self) -> TransportSnapshot {
        let n = self.num_ranks as usize;
        let mut writer_next_seq = vec![0u64; n];
        for (i, w) in self.writers.iter().enumerate() {
            if let Some(w) = w {
                writer_next_seq[i] = w.next_seq();
            }
        }
        TransportSnapshot {
            writer_next_seq,
            reseq_next: self.reseq.iter().map(Resequencer::next_expected).collect(),
            wave_in_flight: self
                .wave
                .in_flight()
                .iter()
                .map(|&(phase, count)| (phase, count as u64))
                .collect(),
            peer_active: self
                .peer_active
                .iter()
                .map(|(&round, &active)| (round, u8::from(active)))
                .collect(),
            pending: self
                .pending
                .iter()
                .map(|(&round, packets)| {
                    (
                        round,
                        packets
                            .iter()
                            .map(|(src, payload, logical)| (*src, *logical, payload.to_vec()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// Restores the transport tables from a checkpoint, on fresh
    /// sockets: writers resume their sequence counters (past the fresh
    /// handshake traffic, which receivers consumed synchronously),
    /// resequencers restart at the checkpointed floors so gap re-sends
    /// dup-discard, and the buffered round state comes back verbatim.
    /// Must run before the first `pump` so no frame is dispatched
    /// through un-restored tables.
    fn restore_tables(&mut self, ck: &CheckpointState) -> Result<(), NetError> {
        let n = self.num_ranks as usize;
        let ts = &ck.transport;
        if ts.writer_next_seq.len() != n || ts.reseq_next.len() != n {
            return Err(NetError::protocol(format!(
                "checkpoint transport tables sized for {} ranks, run has {n}",
                ts.writer_next_seq.len()
            )));
        }
        for (i, w) in self.writers.iter_mut().enumerate() {
            if let Some(w) = w {
                w.resume_seq(ts.writer_next_seq[i]);
            }
        }
        for (i, r) in self.reseq.iter_mut().enumerate() {
            *r = Resequencer::starting_at(ts.reseq_next[i]);
        }
        self.wave.restore_in_flight(
            ts.wave_in_flight
                .iter()
                .map(|&(phase, count)| (phase, count as usize))
                .collect(),
        );
        self.peer_active = ts
            .peer_active
            .iter()
            .map(|&(round, active)| (round, active != 0))
            .collect();
        self.pending = ts
            .pending
            .iter()
            .map(|(round, packets)| {
                (
                    *round,
                    packets
                        .iter()
                        .map(|(src, logical, payload)| {
                            (*src, Bytes::from(payload.clone()), *logical)
                        })
                        .collect(),
                )
            })
            .collect();
        Ok(())
    }

    /// Ships a [`Ctrl::Checkpoint`] home: the program snapshot, the
    /// accumulated stats, and the transport tables, all taken at the
    /// edge of `round`.
    fn ship_checkpoint<P: RankProgram>(
        &mut self,
        program: &P,
        stats: &RankStats,
        round: u64,
    ) -> Result<(), NetError> {
        let transport = self.snapshot_tables();
        let rank = self.rank;
        let seq_floor = transport
            .reseq_next
            .iter()
            .enumerate()
            .filter(|&(i, _)| i as u32 != rank)
            .map(|(_, &f)| f)
            .min()
            .unwrap_or(0);
        // Single-pass encode: the snapshot and the transport tables are
        // written straight into the wire buffer (`send_streamed` →
        // `encode_checkpoint_into` → `encode_snapshot_into`), so the
        // payload is never staged through an intermediate blob, `Bytes`
        // conversion, or `encode_frame` copy. The last payload's size
        // (plus headroom for newly colored chunks) pre-sizes the buffer.
        let hint = self.ckpt_len_hint + self.ckpt_len_hint / 4 + 1024;
        let mut shipped = 0usize;
        let res = lock(&self.sup).send_streamed(
            Ctrl::Checkpoint {
                rank,
                round,
                seq_floor,
            },
            hint,
            |out| {
                let at = out.len();
                // Program-length hint 0: the outer wire buffer already
                // reserves for the whole payload, and re-reserving the
                // program's share here would force a pointless realloc.
                encode_checkpoint_into(out, round, stats, &transport, 0, |o| {
                    program.encode_snapshot_into(o)
                });
                shipped = out.len() - at;
            },
        );
        self.ckpt_len_hint = shipped;
        res
    }
}

/// Decodes a `RoundBundle` payload: `npackets` of
/// `[u32 logical][u32 len][len bytes]`.
/// CPU microseconds consumed by this process across all its threads,
/// from the kernel's per-task `schedstat` (first field, cumulative
/// `sum_exec_runtime` in nanoseconds). ns-resolution, unlike the
/// 10 ms `utime`/`stime` ticks in `/proc/self/stat`. Returns 0 when
/// the platform doesn't expose it; callers treat the clock as absent.
fn process_cpu_micros() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total_ns: u64 = 0;
    for t in tasks.flatten() {
        let Ok(s) = std::fs::read_to_string(t.path().join("schedstat")) else {
            continue;
        };
        if let Some(first) = s.split_whitespace().next() {
            total_ns = total_ns.saturating_add(first.parse().unwrap_or(0));
        }
    }
    total_ns / 1_000
}

fn parse_bundle(payload: &Bytes, npackets: u32) -> Result<Vec<(Bytes, u32)>, NetError> {
    let mut buf: &[u8] = payload;
    let mut out = Vec::with_capacity(npackets as usize);
    for _ in 0..npackets {
        if buf.len() < 8 {
            return Err(NetError::protocol("truncated packet header in bundle"));
        }
        let logical = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
        buf = &buf[8..];
        if buf.len() < len {
            return Err(NetError::protocol(format!(
                "bundle packet claims {len} bytes, {} remain",
                buf.len()
            )));
        }
        out.push((Bytes::from(buf[..len].to_vec()), logical));
        buf = &buf[len..];
    }
    if !buf.is_empty() {
        return Err(NetError::protocol(format!(
            "{} trailing bytes after the last bundle packet",
            buf.len()
        )));
    }
    Ok(out)
}

/// How each supported rank program reports its share of the result.
trait NetOutcomeSource {
    /// This rank's slice of the global result.
    fn net_outcome(&self) -> WorkerOutcome;
}

impl NetOutcomeSource for DistMatching {
    fn net_outcome(&self) -> WorkerOutcome {
        WorkerOutcome::Matching(self.local_mates().collect())
    }
}

impl NetOutcomeSource for DistColoring {
    fn net_outcome(&self) -> WorkerOutcome {
        WorkerOutcome::Coloring {
            pairs: self.local_colors().collect(),
            phases: self.phases_executed,
        }
    }
}

impl NetOutcomeSource for JonesPlassmann {
    fn net_outcome(&self) -> WorkerOutcome {
        WorkerOutcome::Coloring {
            // JP has no speculative phases; the supervisor reports its
            // round count instead.
            pairs: self.local_colors().collect(),
            phases: 0,
        }
    }
}

/// Entry point for the `cmg-net-worker` binary: runs rank `rank` of the
/// run rooted at `sock_dir`, returning every failure as a value (and
/// reporting it home as a `Fatal` frame first).
pub fn worker_main(sock_dir: &Path, rank: u32) -> Result<(), NetError> {
    // Bind our listener before dialing the supervisor: the moment our
    // Hello is processed, higher-ranked peers may start dialing us.
    let listener = UnixListener::bind(sock_dir.join(format!("rank{rank}.sock")))
        .map_err(|e| NetError::io(format!("binding rank {rank} listener"), e))?;
    let sup_stream = connect_with_backoff(
        &sock_dir.join("sup.sock"),
        CONNECT_BASE,
        CONNECT_CAP,
        CONNECT_TOTAL,
    )?;
    sup_stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| NetError::io("setting supervisor write timeout", e))?;
    let mut sup_read = sup_stream
        .try_clone()
        .map_err(|e| NetError::io("cloning supervisor stream", e))?;
    let mut sup_writer = LinkWriter::new(sup_stream);
    sup_writer.send(&Frame::bare(Ctrl::Hello {
        rank,
        proto: PROTO_VERSION,
    }))?;

    // The first assignment arrives synchronously, before any reader
    // thread.
    let mut assignment = match read_frame(&mut sup_read)? {
        Some((_, frame)) => match frame.ctrl {
            Ctrl::Assignment { rank: addressee } if addressee == rank => {
                decode_assignment(&frame.payload)?
            }
            other => {
                return Err(NetError::protocol(format!(
                    "rank {rank} expected its assignment, got {other:?}"
                )))
            }
        },
        None => return Err(NetError::protocol("supervisor closed before assignment")),
    };

    let sup = Arc::new(Mutex::new(sup_writer));
    // The supervisor link, clock, and event channel persist across a
    // whole session; tasks come and go under them. The sup reader is
    // spawned exactly once — a per-task reader would race the handoff
    // of the next assignment between tasks.
    let clock = Arc::new(ClockSync::new());
    let (tx, rx) = channel();
    spawn_sup_reader(sup_read, tx.clone(), Arc::clone(&clock));
    let mut rx = rx;
    // The session loop: run a task; if the supervisor follows our
    // `Done` with another assignment instead of `Shutdown`, loop. The
    // generation tags peer frames so one task's stragglers can never
    // leak into the next task's fresh sequence space.
    let mut generation: u64 = 0;
    let result = loop {
        let link = SessionLink {
            sup: Arc::clone(&sup),
            clock: Arc::clone(&clock),
            tx: tx.clone(),
            rx,
            generation,
        };
        match run_assigned(rank, assignment, &listener, link) {
            Ok((Some(next), rx_back)) => {
                rx = rx_back;
                generation += 1;
                assignment = match decode_assignment(&next) {
                    Ok(a) => a,
                    Err(e) => break Err(e),
                };
            }
            Ok((None, _)) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    if let Err(e) = &result {
        // Best effort: tell the supervisor why before exiting nonzero.
        let _ = lock(&sup).send(&Frame::with_payload(
            Ctrl::Fatal { rank },
            Bytes::from(fatal_payload(e)),
        ));
    }
    result
}

/// The session-scoped plumbing `worker_main` threads through every
/// task of a persistent fleet: the shared supervisor writer, the clock
/// estimator, and the event channel (sender for this task's readers,
/// receiver for its transport) plus the task generation.
struct SessionLink {
    sup: Arc<Mutex<LinkWriter<UnixStream>>>,
    clock: Arc<ClockSync>,
    tx: Sender<Incoming>,
    rx: Receiver<Incoming>,
    generation: u64,
}

/// The `Fatal` frame payload for a worker-side error. Frame loss gets a
/// machine-parsable prefix so the supervisor can reconstruct the typed
/// [`NetError::FrameLoss`] on its side.
fn fatal_payload(e: &NetError) -> Vec<u8> {
    let text = match e {
        NetError::FrameLoss {
            from,
            expected_seq,
            waited,
            ..
        } => format!(
            "FRAME_LOSS from={from} seq={expected_seq} waited_ms={}; {e}",
            waited.as_millis()
        ),
        other => other.to_string(),
    };
    text.into_bytes()
}

/// Everything after the assignment: mesh, readers, heartbeats, the
/// round loop, and the results plane. Returns the payload of the next
/// session assignment (plus the receiver, which outlives the task) if
/// the supervisor sent one instead of `Shutdown`.
fn run_assigned(
    rank: u32,
    assignment: Assignment,
    listener: &UnixListener,
    link: SessionLink,
) -> Result<(Option<Bytes>, Receiver<Incoming>), NetError> {
    let SessionLink {
        sup,
        clock,
        tx,
        rx,
        generation,
    } = link;
    let Assignment {
        dg,
        task,
        opts,
        resume,
    } = assignment;
    // A resume section means this process is a relaunch: decode the
    // checkpoint now (cheap to fail fast), restore the transport after
    // the mesh is up, and build the program from its snapshot below.
    let resume_ck = match &resume {
        Some(r) => {
            let ck = decode_checkpoint(&r.payload)?;
            if ck.round != r.round {
                return Err(NetError::protocol(format!(
                    "resume section says round {} but checkpoint blob says {}",
                    r.round, ck.round
                )));
            }
            Some(ck)
        }
        None => None,
    };
    let num_ranks = dg.num_ranks;
    let sock_dir = match listener.local_addr().ok().and_then(|a| {
        a.as_pathname()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
    }) {
        Some(dir) => dir,
        None => return Err(NetError::protocol("listener has no filesystem address")),
    };
    let (mut writers, read_halves, reseq) =
        build_mesh(rank, num_ranks, listener, &sock_dir, &opts.fault)?;
    for w in writers.iter_mut().flatten() {
        w.set_coalescing(COALESCE_BYTES);
    }

    let telemetry = opts.telemetry.then(|| Arc::new(TelemetryCells::default()));

    crate::reactor::spawn_reactor(read_halves, tx, generation)
        .map_err(|e| NetError::io("starting the peer-link reactor", e))?;

    lock(&sup).send(&Frame::bare(Ctrl::Ready { rank }))?;

    let (collector, recorder) = if opts.observed {
        let (c, h) = CollectingRecorder::shared();
        (Some(c), h)
    } else {
        (None, RecorderHandle::noop())
    };

    // Heartbeats carry round progress (in half-round beacon units) from
    // their own thread, so a wedged main loop is visible as "alive but
    // not advancing".
    let round_beacon = Arc::new(AtomicU64::new(0));
    let stop_beat = Arc::new(AtomicBool::new(false));
    spawn_heartbeat(
        rank,
        Duration::from_millis(opts.heartbeat_millis.max(10)),
        Arc::clone(&sup),
        Arc::clone(&round_beacon),
        Arc::clone(&stop_beat),
        Arc::clone(&clock),
        telemetry.clone(),
    );

    let mut t = Transport {
        rank,
        num_ranks,
        opts,
        writers,
        reseq,
        rx,
        sup: Arc::clone(&sup),
        pending: BTreeMap::new(),
        wave: DoneWave::new(),
        peer_active: BTreeMap::new(),
        started: false,
        shutdown: false,
        gen: generation,
        next_assignment: None,
        epoch: None,
        clock: Arc::clone(&clock),
        telemetry,
        ckpt_len_hint: 0,
    };
    if let Some(ck) = &resume_ck {
        t.restore_tables(ck)?;
    }

    while !t.started {
        t.pump(PUMP_TICK)?;
    }

    // The round loop's own wall and CPU clocks (Start receipt to last
    // round edge): shipped home with the stats so benches can compare
    // round cost without spawn, handshake, or result-shipping noise.
    let loop_started = Instant::now();
    let cpu_started = process_cpu_micros();
    let resume = resume_ck.as_ref();
    let (outcome, stats, rounds, cap) = match task {
        NetTask::Matching => run_rounds(
            dg,
            DistMatching::new,
            resume,
            &mut t,
            &recorder,
            &round_beacon,
        )?,
        NetTask::Coloring(cfg) => {
            let fresh = |(dg, cfg)| DistColoring::new(dg, cfg);
            run_rounds((dg, cfg), fresh, resume, &mut t, &recorder, &round_beacon)?
        }
        NetTask::JonesPlassmann { seed } => {
            let fresh = |(dg, seed)| JonesPlassmann::new(dg, seed);
            run_rounds((dg, seed), fresh, resume, &mut t, &recorder, &round_beacon)?
        }
    };
    let loop_clock = LoopClock {
        wall_micros: loop_started.elapsed().as_micros() as u64,
        cpu_micros: process_cpu_micros().saturating_sub(cpu_started),
    };
    stop_beat.store(true, Ordering::Relaxed);

    // Results plane: stats, outcome, events, Done — in that order.
    let link = t.link_totals();
    let clock_report = clock.report();
    {
        let mut w = lock(&sup);
        w.send(&Frame::with_payload(
            Ctrl::Stats { rank },
            Bytes::from(encode_stats(&stats, &link, &clock_report, &loop_clock)),
        ))?;
        w.send(&Frame::with_payload(
            Ctrl::Outcome { rank },
            Bytes::from(encode_outcome(&outcome)),
        ))?;
        if let Some(c) = &collector {
            let events = c.take();
            w.send(&Frame::with_payload(
                Ctrl::Events { rank },
                Bytes::from(cmg_obs::sink::events_to_jsonl(&events).into_bytes()),
            ))?;
        }
        w.send(&Frame::bare(Ctrl::Done {
            rank,
            rounds,
            cap: u8::from(cap),
        }))?;
    }

    // Absorb stragglers (late duplicates, other ranks' final
    // `RoundDone`s) until the supervisor says everyone has reported — with
    // either a `Shutdown` (session over, exit) or the next task's
    // `Assignment` (persistent fleet, loop back in `worker_main`).
    let waited = Instant::now();
    while !t.shutdown && t.next_assignment.is_none() {
        t.pump(PUMP_TICK)?;
        if waited.elapsed() > SHUTDOWN_WAIT {
            return Err(NetError::Handshake {
                waiting_for: "shutdown".into(),
                waited: waited.elapsed(),
            });
        }
    }
    // Dropping the rest of the transport closes our peer write halves,
    // letting the peers' reactors (and ours, once they do the same)
    // wind down between tasks.
    let Transport {
        rx,
        next_assignment,
        ..
    } = t;
    Ok((next_assignment, rx))
}

/// The bulk-synchronous round loop: the threaded engine's `run_rank`
/// with channels replaced by socket links and the activity flags
/// replaced by the `RoundDone` wave. Both drive the same [`RankStep`],
/// hence the same statistics, delivery grouping and event emission.
/// The program is built `fresh` from `meta`, or — when this process is a
/// relaunch — restored from the `resume` checkpoint. Returns the rank's
/// outcome, counters, round count and cap flag.
fn run_rounds<P: RankProgram + NetOutcomeSource>(
    meta: P::Meta,
    fresh: impl FnOnce(P::Meta) -> P,
    resume: Option<&CheckpointState>,
    t: &mut Transport,
    recorder: &RecorderHandle,
    round_beacon: &AtomicU64,
) -> Result<(WorkerOutcome, RankStats, u64, bool), NetError> {
    let mut program = match resume {
        Some(ck) => restore_encoded(meta, Bytes::from(ck.program.clone()))
            .ok_or_else(|| NetError::protocol("undecodable program snapshot in checkpoint"))?,
        None => fresh(meta),
    };
    let observed = recorder.enabled();
    let rank = t.rank;
    let num_ranks = t.num_ranks;
    // Event timestamps: seconds since `Start`, the threaded engine's
    // wall-seconds-since-run-start epoch.
    let Some(epoch) = t.epoch else {
        return Err(NetError::protocol("round loop entered before Start"));
    };
    let mut clock = WallClock::since(epoch);
    let mut step: RankStep<P> = RankStep::new(RankCtx::new(
        rank,
        num_ranks,
        t.opts.bundling,
        recorder.clone(),
    ));
    let mut round: u64 = 0;
    let mut cap = false;
    if let Some(ck) = resume {
        // Resuming from a checkpoint taken at edge `ck.round`: the
        // program, stats, and transport tables already hold that state,
        // so the loop re-enters exactly where the uninterrupted run
        // would have been (delivering the buffered bundles the
        // checkpoint captured).
        round = ck.round + 1;
        step.resume(round, ck.stats.clone());
        round_beacon.store(2 * round, Ordering::Relaxed);
    }

    // Cumulative per-phase time, published to the telemetry cells once
    // per round (plain locals keep the loop free of atomic traffic).
    let mut tel_delivery_ns: u64 = 0;
    let mut tel_compute_ns: u64 = 0;
    let mut tel_serialize_ns: u64 = 0;
    let mut tel_edge_ns: u64 = 0;
    let mut last_hold_ns: u64 = 0;

    loop {
        if round == t.opts.die_at_round {
            // Test hook: report the scripted fault point, then wedge
            // (alive, heartbeating, never advancing) until the
            // supervisor kills us or declares the rank stalled.
            let _ = lock(&t.sup).send(&Frame::bare(Ctrl::FaultPoint { rank, round }));
            wedge();
        }
        if observed && rank == 0 {
            recorder.emit(
                ENGINE_RANK,
                clock.now(),
                Event::RoundStart {
                    round: round as u32,
                },
            );
        }

        // 1. Step. Last round's done wave already certified (by link
        // FIFO order) that every peer bundle for `round - 1` has been
        // dispatched, so delivery never waits on the wire.
        let delivery_start = clock.now();
        let mut arrivals = round
            .checked_sub(1)
            .and_then(|sent_in| t.pending.remove(&sent_in))
            .unwrap_or_default();
        // Stable by source: within a source, arrival order is link
        // sequence order, so this reproduces the threaded engine's
        // `(src, seq)` sort.
        arrivals.sort_by_key(|&(src, _, _)| src);
        for (src, payload, logical) in arrivals {
            step.deliver(&mut clock, src, (), payload, logical)
                .map_err(|e| NetError::protocol(e.to_string()))?;
        }
        let compute_start = clock.now();
        let status = step.compute(&mut clock, &mut program);
        let send_start = clock.now();
        tel_delivery_ns += secs_to_ns(compute_start - delivery_start);
        tel_compute_ns += secs_to_ns(send_start - compute_start);

        // 2. Send. The wave announcement rides in the same coalesced
        // batch as the bundles it certifies.
        let active = status == Status::Active || step.produced() > 0;
        t.send_round(round, &mut step, &mut clock)?;
        t.send_round_done(round, active)?;
        let edge_start = clock.now();
        tel_serialize_ns += secs_to_ns(edge_start - send_start);
        // Unconditional: even a round with no payload enqueues p − 1
        // `RoundDone` frames, and that time must land in a span or the
        // analyzer sees a coverage hole.
        step.span(&clock, PhaseName::Send, send_start);

        // 3. Round edge: the rank-to-rank done wave — one blocking wait
        // that doubles as next round's bundle wait, with the termination
        // vote (OR of activity bits) computed locally from the
        // announcements. The beacon ticks in half-rounds — odd after our
        // sends are out, even once the edge resolves — so a rank that
        // wedged before sending reports strictly less progress than the
        // peers it blocks, and the supervisor blames the right rank.
        round_beacon.store(2 * round + 1, Ordering::Relaxed);
        let keep = t.wait_wave(round)? || active;
        let edge_end = clock.now();
        tel_edge_ns += secs_to_ns(edge_end - edge_start);
        // Reseq hold banked across the wave — the loop's only blocking
        // wait. Zero on a fault-free run (the span never appears in the
        // golden trace); under delay faults it shows where reordering
        // bit.
        let hold_total: u64 = t.reseq.iter().map(|r| r.hold_ns).sum();
        let held = hold_total.saturating_sub(last_hold_ns);
        last_hold_ns = hold_total;
        // Exactly one `DoneWave` span per round per rank: the trace
        // analyzer counts these to segment a rank's stream into rounds.
        step.span(&clock, PhaseName::DoneWave, edge_start);
        if observed && held > 0 {
            let dur = held as f64 / 1e9;
            recorder.emit(
                rank,
                clock.now(),
                Event::Phase {
                    name: PhaseName::ReseqHold,
                    start: (edge_end - dur).max(edge_start),
                    dur,
                },
            );
        }

        if observed && rank == 0 {
            recorder.emit(
                ENGINE_RANK,
                clock.now(),
                Event::RoundEnd {
                    round: round as u32,
                    active_ranks: num_ranks,
                },
            );
        }

        if let Some(cells) = &t.telemetry {
            cells.round.store(round, Ordering::Relaxed);
            cells.delivery_ns.store(tel_delivery_ns, Ordering::Relaxed);
            cells.compute_ns.store(tel_compute_ns, Ordering::Relaxed);
            cells
                .serialize_ns
                .store(tel_serialize_ns, Ordering::Relaxed);
            cells.edge_wait_ns.store(tel_edge_ns, Ordering::Relaxed);
            cells.reseq_hold_ns.store(last_hold_ns, Ordering::Relaxed);
            let link = t.link_totals();
            cells.frames_sent.store(link.frames_sent, Ordering::Relaxed);
            cells.bytes_sent.store(link.bytes_sent, Ordering::Relaxed);
            let pending: u64 = t.reseq.iter().map(|r| r.pending_len() as u64).sum();
            cells.reseq_pending.store(pending, Ordering::Relaxed);
        }

        // Checkpoint plane: at every k-th round edge (counting rounds
        // completed, the same cadence as the in-process engines'
        // equivalence oracle), ship a consistent snapshot home. Only
        // mid-run — a final edge has nothing left to recover. The done
        // wave already proved every bundle of `round` arrived, so the
        // edge is a consistent cut with no further wait.
        let ck = t.opts.checkpoint_every;
        if keep && ck > 0 && (round + 1).is_multiple_of(ck) {
            t.ship_checkpoint(&program, step.stats(), round)?;
        }

        round += 1;
        round_beacon.store(2 * round, Ordering::Relaxed);
        if !keep {
            break;
        }
        if round >= t.opts.max_rounds {
            cap = true;
            break;
        }
    }
    // Nothing is left to flush: every round's sends, held
    // (delay-faulted) frames included, left at that round's wave.
    Ok((program.net_outcome(), step.into_stats(), round, cap))
}

/// Event-time seconds to telemetry nanoseconds.
fn secs_to_ns(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * 1e9) as u64
    }
}

/// Parks this thread forever (heartbeats continue from theirs).
fn wedge() -> ! {
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Builds a per-peer writer, attaching the planned fault stream for the
/// `src -> dst` direction when the plan is live.
fn make_writer(
    stream: UnixStream,
    src: u32,
    dst: u32,
    fault: &FaultPlan,
) -> LinkWriter<UnixStream> {
    if fault.is_noop() {
        LinkWriter::new(stream)
    } else {
        LinkWriter::with_fault(stream, Box::new(fault.for_link(src, dst)))
    }
}

/// Establishes the full peer mesh: dial lower ranks, accept higher
/// ranks, one duplex stream per unordered pair. Returns the send
/// halves, the read halves (for the reactor), and each link's
/// resequencer primed past any handshake frames already consumed.
#[allow(clippy::type_complexity)]
fn build_mesh(
    rank: u32,
    num_ranks: u32,
    listener: &UnixListener,
    sock_dir: &Path,
    fault: &FaultPlan,
) -> Result<
    (
        Vec<Option<LinkWriter<UnixStream>>>,
        Vec<(u32, UnixStream)>,
        Vec<Resequencer>,
    ),
    NetError,
> {
    let mut writers: Vec<Option<LinkWriter<UnixStream>>> = (0..num_ranks).map(|_| None).collect();
    let mut read_halves: Vec<(u32, UnixStream)> = Vec::new();
    let mut reseq: Vec<Resequencer> = (0..num_ranks).map(|_| Resequencer::default()).collect();

    // Dial every lower rank and introduce ourselves. Our Hello consumes
    // our seq 0 on that link; the peer primes its resequencer past it.
    // The peer's writer toward us never sends a Hello, so our
    // resequencer for it stays at 0.
    for peer in 0..rank {
        let stream = connect_with_backoff(
            &sock_dir.join(format!("rank{peer}.sock")),
            CONNECT_BASE,
            CONNECT_CAP,
            CONNECT_TOTAL,
        )?;
        stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(|e| NetError::io("setting peer write timeout", e))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| NetError::io("cloning peer stream", e))?;
        let mut writer = make_writer(stream, rank, peer, fault);
        writer.send(&Frame::bare(Ctrl::Hello {
            rank,
            proto: PROTO_VERSION,
        }))?;
        writers[peer as usize] = Some(writer);
        read_halves.push((peer, read_half));
    }

    // Accept every higher rank; the dialer's Hello says who it is.
    let expect_higher = num_ranks - 1 - rank;
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("making listener non-blocking", e))?;
    let started = Instant::now();
    let mut accepted = 0;
    while accepted < expect_higher {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| NetError::io("making peer stream blocking", e))?;
                stream
                    .set_write_timeout(Some(WRITE_TIMEOUT))
                    .map_err(|e| NetError::io("setting peer write timeout", e))?;
                let mut read_half = stream
                    .try_clone()
                    .map_err(|e| NetError::io("cloning peer stream", e))?;
                let (hello_seq, hello) = match read_frame(&mut read_half)? {
                    Some(pair) => pair,
                    None => return Err(NetError::protocol("peer closed during handshake")),
                };
                let peer = hello_rank(&hello, "peer")?;
                if peer <= rank || peer >= num_ranks {
                    return Err(NetError::protocol(format!(
                        "unexpected dial from rank {peer} (we are rank {rank})"
                    )));
                }
                if writers[peer as usize].is_some() {
                    return Err(NetError::protocol(format!("rank {peer} dialed twice")));
                }
                writers[peer as usize] = Some(make_writer(stream, rank, peer, fault));
                reseq[peer as usize] = Resequencer::starting_at(hello_seq + 1);
                read_halves.push((peer, read_half));
                accepted += 1;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if started.elapsed() > HANDSHAKE_TIMEOUT {
                    return Err(NetError::Handshake {
                        waiting_for: format!(
                            "{} more peer connections at rank {rank}",
                            expect_higher - accepted
                        ),
                        waited: started.elapsed(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(NetError::io("accepting peer connection", e)),
        }
    }
    Ok((writers, read_halves, reseq))
}

/// Reader thread for the supervisor link. `HeartbeatAck` replies are
/// absorbed here — timestamped at the earliest possible point and kept
/// off the main loop, so clock sampling neither waits on a busy round
/// loop nor perturbs it.
fn spawn_sup_reader(mut stream: UnixStream, tx: Sender<Incoming>, clock: Arc<ClockSync>) {
    let _ = std::thread::spawn(move || loop {
        match read_frame(&mut stream) {
            Ok(Some((_, frame))) => {
                if let Ctrl::HeartbeatAck {
                    echo_micros,
                    sup_micros,
                    ..
                } = frame.ctrl
                {
                    clock.absorb_ack(echo_micros, sup_micros);
                    continue;
                }
                if tx.send(Incoming::Sup { frame }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Incoming::SupGone);
                return;
            }
            Err(error) => {
                let _ = tx.send(Incoming::SupReadFailed { error });
                return;
            }
        }
    });
}

/// Heartbeat thread: periodic liveness + round-progress beacons. Each
/// beacon is stamped with the sender's clock (for the supervisor's
/// offset estimation via `HeartbeatAck`) and, when telemetry is on,
/// carries the latest counter snapshot as its payload.
fn spawn_heartbeat(
    rank: u32,
    period: Duration,
    sup: Arc<Mutex<LinkWriter<UnixStream>>>,
    round: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    clock: Arc<ClockSync>,
    telemetry: Option<Arc<TelemetryCells>>,
) {
    let _ = std::thread::spawn(move || loop {
        std::thread::sleep(period);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let ctrl = Ctrl::Heartbeat {
            rank,
            round: round.load(Ordering::Relaxed),
            sent_micros: clock.micros_now(),
        };
        let beat = match &telemetry {
            Some(cells) => {
                Frame::with_payload(ctrl, Bytes::from(encode_telemetry(&cells.snapshot(rank))))
            }
            None => Frame::bare(ctrl),
        };
        if lock(&sup).send(&beat).is_err() {
            return;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_payload_round_trips() {
        let packets = vec![
            (Bytes::from(vec![1u8, 2, 3]), 2u32),
            (Bytes::from(Vec::<u8>::new()), 0),
            (Bytes::from(vec![9u8; 40]), 7),
        ];
        let mut payload = Vec::new();
        for (bytes, logical) in &packets {
            payload.put_u32_le(*logical);
            payload.put_u32_le(bytes.len() as u32);
            payload.put_slice(bytes);
        }
        let got = parse_bundle(&Bytes::from(payload), packets.len() as u32).unwrap();
        assert_eq!(got.len(), packets.len());
        for ((gb, gl), (eb, el)) in got.iter().zip(&packets) {
            assert_eq!(gb, eb);
            assert_eq!(gl, el);
        }
    }

    #[test]
    fn malformed_bundles_are_protocol_errors() {
        // Truncated header.
        assert!(parse_bundle(&Bytes::from(vec![0u8; 4]), 1).is_err());
        // Length beyond the payload.
        let mut payload = Vec::new();
        payload.put_u32_le(1);
        payload.put_u32_le(100);
        assert!(parse_bundle(&Bytes::from(payload), 1).is_err());
        // Trailing garbage.
        let mut payload = Vec::new();
        payload.put_u32_le(1);
        payload.put_u32_le(0);
        payload.put_u8(7);
        assert!(parse_bundle(&Bytes::from(payload), 1).is_err());
    }

    #[test]
    fn fatal_payload_is_structured_for_frame_loss() {
        let e = NetError::FrameLoss {
            rank: 1,
            from: 2,
            expected_seq: 40,
            waited: Duration::from_secs(2),
        };
        let text = String::from_utf8(fatal_payload(&e)).unwrap();
        assert!(
            text.starts_with("FRAME_LOSS from=2 seq=40 waited_ms=2000"),
            "{text}"
        );
        let plain = String::from_utf8(fatal_payload(&NetError::protocol("x"))).unwrap();
        assert!(!plain.starts_with("FRAME_LOSS"), "{plain}");
    }
}
