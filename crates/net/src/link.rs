//! The link layer: per-peer connections with capped-backoff dialing,
//! write timeouts, sequence-numbered frames, and a pluggable fault
//! hook.
//!
//! A link is one byte stream between two processes. The sending side
//! is a [`LinkWriter`]: it assigns each frame a link-local sequence
//! number and then consults a [`LinkFault`] hook for what to actually
//! do with it — deliver, drop, duplicate, or hold it back behind later
//! frames. The receiving side is a [`Resequencer`]: it restores
//! sequence order (the *non-overtaking contract*: frames are delivered
//! to the consumer exactly in send order), discards duplicates, and
//! exposes unfilled gaps so the owner can diagnose an unrecoverable
//! drop instead of waiting forever — this transport never retransmits.
//!
//! Fault injection only ever touches data-plane frames
//! ([`Ctrl::RoundBundle`]/[`Ctrl::RoundDone`]); handshake and results frames always go through
//! verbatim, so a fault plan perturbs the *round protocol* without
//! making setup flaky.
//!
//! On peer links the writer additionally *coalesces*: encoded
//! data-plane frames accumulate in a batch and go out as one vectored
//! `writev` submission when the batch crosses a size threshold, when a
//! control-plane frame needs the wire, or when the owner flushes before
//! blocking (the round-end flush — the age bound). Fault decisions and
//! sequence numbers are fixed per frame at enqueue time, so coalescing
//! changes *syscall boundaries only*, never the byte stream: the
//! receiver's [`Resequencer`] observes the exact same frame order
//! whatever the batching.

use crate::error::NetError;
use crate::frame::{encode_frame, Ctrl, Frame};
use cmg_runtime::WireMessage;
use std::collections::BTreeMap;
use std::io::{IoSlice, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Capped exponential backoff delay for a 0-based connect `attempt`:
/// `base * 2^attempt`, saturating at `cap`. Pure, so the cap behavior
/// is unit-testable without sockets.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    let doublings = attempt.min(20); // 2^20 * any sane base >> any sane cap
    base.checked_mul(1u32 << doublings)
        .map_or(cap, |d| d.min(cap))
}

/// Dials a Unix socket with capped exponential backoff, giving up after
/// `total` (the no-unbounded-reconnect-loops guarantee: the attempt
/// count is bounded by `total / cap` plus the handful of ramp-up
/// tries).
pub fn connect_with_backoff(
    path: &Path,
    base: Duration,
    cap: Duration,
    total: Duration,
) -> Result<UnixStream, NetError> {
    let started = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(source) => {
                let delay = backoff_delay(attempt, base, cap);
                if started.elapsed() + delay >= total {
                    return Err(NetError::Connect {
                        path: path.display().to_string(),
                        attempts: attempt + 1,
                        waited: started.elapsed(),
                        source,
                    });
                }
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

/// What a [`LinkFault`] hook tells the writer to do with one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Send it now (the default).
    Deliver,
    /// Never send it. The sequence number is consumed, so the receiver
    /// sees a permanent gap.
    Drop,
    /// Send it twice back to back.
    Duplicate,
    /// Hold it back until `0` more frames have been sent on this link
    /// (or the owner flushes), then send — an in-link reorder the
    /// receiving [`Resequencer`] undoes.
    DelayBehind(u32),
}

/// A pluggable per-link fault hook, consulted once per data-plane
/// frame at send time. Implementations must be deterministic functions
/// of their own state and the sequence number if runs are to be
/// reproducible.
pub trait LinkFault: Send {
    /// Decides the fate of the frame about to be sent as `seq`.
    fn on_frame(&mut self, seq: u64) -> FaultAction;
}

/// A serializable fault-injection plan: per-mille probabilities for
/// each fault kind, derived deterministically from a seed, so the
/// supervisor can describe faults in its config and every worker
/// reproduces the exact same per-link decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed with the link endpoints to make per-link streams.
    pub seed: u64,
    /// Per-mille chance a data frame is dropped (never retransmitted).
    pub drop_per_mille: u32,
    /// Per-mille chance a data frame is sent twice.
    pub dup_per_mille: u32,
    /// Per-mille chance a data frame is held back (reordered).
    pub delay_per_mille: u32,
    /// Maximum frames a delayed frame is held behind (≥ 1 when
    /// `delay_per_mille > 0`).
    pub delay_depth: u32,
}

impl FaultPlan {
    /// `true` if every probability is zero.
    pub fn is_noop(&self) -> bool {
        self.drop_per_mille == 0 && self.dup_per_mille == 0 && self.delay_per_mille == 0
    }

    /// The deterministic per-link fault stream for the `src -> dst`
    /// direction of a link.
    pub fn for_link(&self, src: u32, dst: u32) -> PlannedFault {
        PlannedFault {
            plan: *self,
            rng: Xorshift::new(self.seed ^ ((u64::from(src) + 1) << 32) ^ (u64::from(dst) + 1)),
        }
    }
}

/// Tiny deterministic PRNG (xorshift64*) for fault decisions — the
/// link layer must not depend on the workspace `rand` shim's API.
#[derive(Clone, Debug)]
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        // Splitmix the seed so similar links get dissimilar streams,
        // and keep the state nonzero (xorshift's absorbing state).
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Xorshift((z ^ (z >> 31)).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The [`LinkFault`] implementation a [`FaultPlan`] expands to.
#[derive(Clone, Debug)]
pub struct PlannedFault {
    plan: FaultPlan,
    rng: Xorshift,
}

impl LinkFault for PlannedFault {
    fn on_frame(&mut self, _seq: u64) -> FaultAction {
        let roll = (self.rng.next() % 1000) as u32;
        let p = &self.plan;
        if roll < p.drop_per_mille {
            FaultAction::Drop
        } else if roll < p.drop_per_mille + p.dup_per_mille {
            FaultAction::Duplicate
        } else if roll < p.drop_per_mille + p.dup_per_mille + p.delay_per_mille {
            FaultAction::DelayBehind(1 + (self.rng.next() % u64::from(p.delay_depth.max(1))) as u32)
        } else {
            FaultAction::Deliver
        }
    }
}

/// Per-direction link counters, shipped to the supervisor inside the
/// `Stats` frame and aggregated into
/// [`LinkTotals`](crate::supervisor::LinkTotals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames actually written (duplicates count twice).
    pub frames_sent: u64,
    /// Frames delivered in order to the consumer.
    pub frames_received: u64,
    /// Encoded bytes written (length prefix included).
    pub bytes_sent: u64,
    /// Frames the fault hook dropped.
    pub dropped_by_fault: u64,
    /// Frames the fault hook duplicated.
    pub duplicated_by_fault: u64,
    /// Frames the fault hook held back.
    pub delayed_by_fault: u64,
    /// Duplicate frames the resequencer discarded.
    pub dup_discarded: u64,
    /// Write submissions to the OS (`writev`/`write` calls, partial
    /// -write continuations included). Without coalescing this equals
    /// `frames_sent`; with it, the gap is the syscall saving.
    pub syscalls: u64,
    /// Frames that shared a vectored submission with at least one
    /// other frame (each flush of n ≥ 2 frames adds n).
    pub frames_coalesced: u64,
}

impl LinkStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &LinkStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.dropped_by_fault += other.dropped_by_fault;
        self.duplicated_by_fault += other.duplicated_by_fault;
        self.delayed_by_fault += other.delayed_by_fault;
        self.dup_discarded += other.dup_discarded;
        self.syscalls += other.syscalls;
        self.frames_coalesced += other.frames_coalesced;
    }
}

/// The sending half of one link: sequence assignment, fault
/// consultation, delayed-frame bookkeeping, send counters.
///
/// Generic over [`Write`] so the fault machinery is unit-testable
/// against an in-memory sink; production code uses
/// `LinkWriter<UnixStream>` (with the socket's write timeout set at
/// connect time — a peer that stops draining turns into an I/O error,
/// not a hang).
pub struct LinkWriter<W: Write> {
    writer: W,
    next_seq: u64,
    fault: Option<Box<dyn LinkFault>>,
    /// Held-back frames: `(seq, encoded, release_after)` — release
    /// when the countdown hits zero or on [`LinkWriter::flush_held`].
    held: Vec<(u64, Vec<u8>, u32)>,
    /// Coalescing threshold in encoded bytes; 0 = coalescing off
    /// (every frame is its own write submission — the supervisor link).
    coalesce_bytes: usize,
    /// Encoded frames awaiting one vectored submission, and their total
    /// size. Only populated when `coalesce_bytes > 0`.
    batch: Vec<Vec<u8>>,
    batch_bytes: usize,
    stats: LinkStats,
}

impl<W: Write> LinkWriter<W> {
    /// A faultless writer over `writer`.
    pub fn new(writer: W) -> Self {
        LinkWriter {
            writer,
            next_seq: 0,
            fault: None,
            held: Vec::new(),
            coalesce_bytes: 0,
            batch: Vec::new(),
            batch_bytes: 0,
            stats: LinkStats::default(),
        }
    }

    /// A writer whose data-plane frames pass through `fault`.
    pub fn with_fault(writer: W, fault: Box<dyn LinkFault>) -> Self {
        LinkWriter {
            fault: Some(fault),
            ..LinkWriter::new(writer)
        }
    }

    /// Enables frame coalescing: data-plane frames accumulate and go
    /// out as one vectored submission once the batch holds
    /// `flush_bytes` of encoding (or on control traffic / explicit
    /// flush). `0` disables (write-per-frame).
    pub fn set_coalescing(&mut self, flush_bytes: usize) {
        self.coalesce_bytes = flush_bytes;
    }

    /// Send counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The sequence number the next [`LinkWriter::send`] will consume.
    /// Checkpointed so a restored rank re-sends its gap frames under
    /// their original sequence numbers.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Resumes the sequence counter at `next` — used when restoring a
    /// link from a checkpoint, after the fresh connection's handshake
    /// traffic (which receivers consume synchronously, outside the
    /// resequencer) has gone out. Re-executed rounds then re-send their
    /// frames under the original numbering, so peers whose resequencer
    /// floors were restored past them dup-discard the overlap.
    pub fn resume_seq(&mut self, next: u64) {
        self.next_seq = next;
    }

    /// Sends one frame, consuming the next sequence number. Data-plane
    /// frames consult the fault hook; everything else is delivered
    /// verbatim — and, under coalescing, forces the pending batch out
    /// first so control traffic is never stuck behind the threshold.
    /// Held frames ride out behind later sends.
    pub fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let data_plane = matches!(
            frame.ctrl,
            Ctrl::RoundBundle { .. } | Ctrl::RoundDone { .. }
        );
        let action = match (&mut self.fault, data_plane) {
            (Some(hook), true) => hook.on_frame(seq),
            _ => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => {
                self.enqueue_encoded(encode_frame(seq, frame))?;
            }
            FaultAction::Drop => {
                self.stats.dropped_by_fault += 1;
            }
            FaultAction::Duplicate => {
                let encoded = encode_frame(seq, frame);
                self.enqueue_encoded(encoded.clone())?;
                self.enqueue_encoded(encoded)?;
                self.stats.duplicated_by_fault += 1;
            }
            FaultAction::DelayBehind(n) => {
                self.held.push((seq, encode_frame(seq, frame), n));
                self.stats.delayed_by_fault += 1;
                // Nothing was sent: older held frames' countdowns only
                // tick on frames that actually go out.
                return Ok(());
            }
        }
        self.tick_held()?;
        if !data_plane {
            // Control plane writes through: handshake and results
            // frames must hit the wire now, not at the next threshold.
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Sends one **control-plane** frame whose payload is written in
    /// place by `write_payload` — the checkpoint hot path. Wire- and
    /// sequence-equivalent to `send(&Frame::with_payload(ctrl, ...))`
    /// for non-data-plane control words (no fault hook, write-through
    /// flush), but the payload encodes once, straight into the wire
    /// buffer, instead of being copied through `Bytes` and
    /// `encode_frame`. `payload_len_hint` sizes the buffer; a hint at
    /// or above the real size means no reallocation.
    pub fn send_streamed(
        &mut self,
        ctrl: Ctrl,
        payload_len_hint: usize,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut out: Vec<u8> = Vec::with_capacity(4 + 8 + ctrl.encoded_len() + payload_len_hint);
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&seq.to_le_bytes());
        ctrl.encode(&mut out);
        write_payload(&mut out);
        let body_len = ((out.len() - 4) as u32).to_le_bytes();
        if let Some(slot) = out.get_mut(0..4) {
            slot.copy_from_slice(&body_len);
        }
        self.enqueue_encoded(out)?;
        self.tick_held()?;
        self.flush_batch()
    }

    /// Counts one more frame sent past every held frame, releasing
    /// those whose countdown expires.
    fn tick_held(&mut self) -> Result<(), NetError> {
        if self.held.is_empty() {
            return Ok(());
        }
        for h in &mut self.held {
            h.2 = h.2.saturating_sub(1);
        }
        let mut due: Vec<(u64, Vec<u8>)> = Vec::new();
        self.held.retain_mut(|(seq, encoded, left)| {
            if *left == 0 {
                due.push((*seq, std::mem::take(encoded)));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(seq, _)| *seq);
        for (_, encoded) in due {
            self.enqueue_encoded(encoded)?;
        }
        Ok(())
    }

    /// Releases every held frame (in sequence order) and pushes the
    /// pending batch to the wire. The owner calls this before blocking
    /// on incoming traffic, which is what makes delay faults pure
    /// reorders instead of deadlocks — and, under coalescing, is the
    /// round-end flush: whenever a process waits, everything it
    /// produced is on the wire.
    pub fn flush_held(&mut self) -> Result<(), NetError> {
        if !self.held.is_empty() {
            let mut due = std::mem::take(&mut self.held);
            due.sort_by_key(|(seq, _, _)| *seq);
            for (_, encoded, _) in due {
                self.enqueue_encoded(encoded)?;
            }
        }
        self.flush_batch()
    }

    /// Routes one encoded frame to the wire or the pending batch,
    /// counting it as sent either way (the batch is flushed before any
    /// blocking wait, so by any stats snapshot it has drained).
    fn enqueue_encoded(&mut self, encoded: Vec<u8>) -> Result<(), NetError> {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += encoded.len() as u64;
        if self.coalesce_bytes == 0 {
            self.stats.syscalls += 1;
            return self
                .writer
                .write_all(&encoded)
                .map_err(|e| NetError::io("writing frame", e));
        }
        self.batch_bytes += encoded.len();
        self.batch.push(encoded);
        if self.batch_bytes >= self.coalesce_bytes {
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Submits the pending batch as one looped vectored write.
    fn flush_batch(&mut self) -> Result<(), NetError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let n = self.batch.len();
        if n >= 2 {
            self.stats.frames_coalesced += n as u64;
        }
        let mut frame_idx = 0usize;
        let mut offset = 0usize;
        while frame_idx < n {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(n - frame_idx);
            slices.push(IoSlice::new(&self.batch[frame_idx][offset..]));
            for b in &self.batch[frame_idx + 1..] {
                slices.push(IoSlice::new(b));
            }
            let wrote = self
                .writer
                .write_vectored(&slices)
                .map_err(|e| NetError::io("writing coalesced frames", e))?;
            self.stats.syscalls += 1;
            if wrote == 0 {
                return Err(NetError::io(
                    "writing coalesced frames",
                    std::io::Error::new(std::io::ErrorKind::WriteZero, "wrote 0 bytes"),
                ));
            }
            // Advance (frame_idx, offset) past the bytes accepted; a
            // partial write resumes mid-frame on the next submission.
            let mut remaining = wrote;
            while remaining > 0 && frame_idx < n {
                let avail = self.batch[frame_idx].len() - offset;
                if remaining >= avail {
                    remaining -= avail;
                    frame_idx += 1;
                    offset = 0;
                } else {
                    offset += remaining;
                    remaining = 0;
                }
            }
        }
        self.batch.clear();
        self.batch_bytes = 0;
        Ok(())
    }
}

/// The receiving half of one link: restores send order from sequence
/// numbers, discards duplicates, and reports unfilled gaps so the
/// owner can turn a permanent drop into a diagnosed
/// [`NetError::FrameLoss`] instead of a hang.
#[derive(Debug, Default)]
pub struct Resequencer {
    next: u64,
    /// Frames that arrived ahead of a gap, keyed by sequence number.
    pending: BTreeMap<u64, Frame>,
    /// When the current gap was first observed (first out-of-order
    /// arrival since the last in-order delivery).
    gap_since: Option<Instant>,
    /// Duplicates discarded so far.
    pub dup_discarded: u64,
    /// In-order frames delivered so far.
    pub delivered: u64,
    /// Cumulative time in-order delivery was stalled behind a gap,
    /// nanoseconds — accumulated each time a gap closes, so the obs
    /// plane can report resequencer hold per round.
    pub hold_ns: u64,
}

impl Resequencer {
    /// A resequencer expecting `first` as the next sequence number
    /// (handshake frames consumed synchronously before the reader
    /// thread starts are skipped this way).
    pub fn starting_at(first: u64) -> Self {
        Resequencer {
            next: first,
            ..Resequencer::default()
        }
    }

    /// Accepts one frame off the wire, appending every frame that is
    /// now deliverable in order to `ready`.
    pub fn accept(&mut self, seq: u64, frame: Frame, ready: &mut Vec<Frame>) {
        if seq < self.next {
            self.dup_discarded += 1;
            return;
        }
        if seq > self.next {
            // Out of order: remember it and start the gap clock.
            if self.pending.insert(seq, frame).is_none() && self.gap_since.is_none() {
                self.gap_since = Some(Instant::now());
            }
            return;
        }
        self.deliver(frame, ready);
        while let Some(frame) = self.pending.remove(&self.next) {
            self.deliver(frame, ready);
        }
        // The gap (or its head) just closed: bank the stall time, and
        // restart the clock if more frames are still held.
        if let Some(since) = self.gap_since.take() {
            self.hold_ns += since.elapsed().as_nanos() as u64;
        }
        if !self.pending.is_empty() {
            self.gap_since = Some(Instant::now());
        }
    }

    fn deliver(&mut self, frame: Frame, ready: &mut Vec<Frame>) {
        self.next += 1;
        self.delivered += 1;
        ready.push(frame);
    }

    /// The current unfilled gap, if any: the missing sequence number
    /// and how long later frames have been waiting behind it.
    pub fn gap(&self) -> Option<(u64, Duration)> {
        self.gap_since.map(|since| (self.next, since.elapsed()))
    }

    /// Frames currently held out of order (queue depth).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The next sequence number in-order delivery expects — the link's
    /// receive floor. Checkpointed so a restored rank dup-discards gap
    /// re-sends it already consumed before the crash. (Frames held out
    /// of order above the floor are deliberately *not* checkpointed:
    /// they carry sequence numbers at or past the sender's own
    /// checkpointed counter, so the sender's re-execution re-sends
    /// them.)
    pub fn next_expected(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn data_frame(round: u64) -> Frame {
        Frame::with_payload(
            Ctrl::RoundBundle {
                round,
                src: 0,
                npackets: 1,
                sent_micros: round * 10,
            },
            Bytes::from(vec![round as u8]),
        )
    }

    /// Decodes every frame in a raw byte sink.
    fn decode_sink(mut wire: &[u8]) -> Vec<(u64, Frame)> {
        let mut out = Vec::new();
        while let Some(pair) = crate::frame::read_frame(&mut wire).unwrap() {
            out.push(pair);
        }
        out
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        assert_eq!(backoff_delay(0, base, cap), Duration::from_millis(10));
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(20));
        assert_eq!(backoff_delay(4, base, cap), Duration::from_millis(160));
        assert_eq!(backoff_delay(5, base, cap), cap);
        // Far past the cap (and past any shift overflow) stays capped.
        assert_eq!(backoff_delay(63, base, cap), cap);
        assert_eq!(backoff_delay(u32::MAX, base, cap), cap);
    }

    #[test]
    fn connect_gives_up_with_bounded_attempts() {
        let dir = std::env::temp_dir().join(format!("cmg-net-backoff-{}", std::process::id()));
        let path = dir.join("definitely-absent.sock");
        let started = Instant::now();
        let err = connect_with_backoff(
            &path,
            Duration::from_millis(5),
            Duration::from_millis(40),
            Duration::from_millis(200),
        )
        .err()
        .unwrap();
        match err {
            NetError::Connect { attempts, .. } => {
                assert!(attempts >= 2, "should have retried");
                assert!(attempts < 64, "attempt count must be bounded");
            }
            other => panic!("expected Connect error, got {other}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "gave up within the budget"
        );
    }

    #[test]
    fn writer_without_faults_is_transparent() {
        let mut w = LinkWriter::new(Vec::new());
        for round in 0..4 {
            w.send(&data_frame(round)).unwrap();
        }
        let frames = decode_sink(&w.writer);
        assert_eq!(frames.len(), 4);
        for (i, (seq, f)) in frames.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*f, data_frame(i as u64));
        }
        assert_eq!(w.stats().frames_sent, 4);
    }

    /// A scripted hook for deterministic unit tests.
    struct Script(Vec<FaultAction>);
    impl LinkFault for Script {
        fn on_frame(&mut self, seq: u64) -> FaultAction {
            self.0
                .get(seq as usize)
                .copied()
                .unwrap_or(FaultAction::Deliver)
        }
    }

    #[test]
    fn drop_consumes_the_seq_and_skips_the_write() {
        let mut w = LinkWriter::with_fault(
            Vec::new(),
            Box::new(Script(vec![FaultAction::Deliver, FaultAction::Drop])),
        );
        for round in 0..3 {
            w.send(&data_frame(round)).unwrap();
        }
        let seqs: Vec<u64> = decode_sink(&w.writer).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 2], "seq 1 dropped, gap visible on wire");
        assert_eq!(w.stats().dropped_by_fault, 1);
    }

    #[test]
    fn delay_reorders_within_the_link_and_flush_releases() {
        let mut w = LinkWriter::with_fault(
            Vec::new(),
            Box::new(Script(vec![FaultAction::DelayBehind(2)])),
        );
        for round in 0..3 {
            w.send(&data_frame(round)).unwrap();
        }
        // Frame 0 held behind 2 later frames: wire order 1, 2, 0.
        let seqs: Vec<u64> = decode_sink(&w.writer).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 0]);

        // A held frame with no successors is released by flush_held.
        let mut w = LinkWriter::with_fault(
            Vec::new(),
            Box::new(Script(vec![FaultAction::DelayBehind(5)])),
        );
        w.send(&data_frame(0)).unwrap();
        assert!(decode_sink(&w.writer).is_empty());
        w.flush_held().unwrap();
        let seqs: Vec<u64> = decode_sink(&w.writer).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn control_frames_bypass_the_fault_hook() {
        let mut w = LinkWriter::with_fault(
            Vec::new(),
            Box::new(Script(vec![FaultAction::Drop, FaultAction::Drop])),
        );
        w.send(&Frame::bare(Ctrl::Ready { rank: 1 })).unwrap();
        w.send(&Frame::bare(Ctrl::Shutdown)).unwrap();
        assert_eq!(decode_sink(&w.writer).len(), 2, "control frames intact");
        assert_eq!(w.stats().dropped_by_fault, 0);
    }

    #[test]
    fn resequencer_restores_order_and_discards_dups() {
        let mut r = Resequencer::default();
        let mut ready = Vec::new();
        r.accept(1, data_frame(1), &mut ready);
        assert!(ready.is_empty(), "gap: nothing deliverable yet");
        assert!(r.gap().is_some());
        r.accept(2, data_frame(2), &mut ready);
        r.accept(0, data_frame(0), &mut ready);
        let rounds: Vec<u64> = ready
            .iter()
            .map(|f| match f.ctrl {
                Ctrl::RoundBundle { round, .. } => round,
                _ => 999,
            })
            .collect();
        assert_eq!(rounds, vec![0, 1, 2], "send order restored");
        assert!(r.gap().is_none());
        // Duplicates of an already-delivered seq vanish silently.
        ready.clear();
        r.accept(1, data_frame(1), &mut ready);
        assert!(ready.is_empty());
        assert_eq!(r.dup_discarded, 1);
    }

    #[test]
    fn resequencer_banks_hold_time_when_gaps_close() {
        let mut r = Resequencer::default();
        let mut ready = Vec::new();
        assert_eq!(r.hold_ns, 0);
        r.accept(1, data_frame(1), &mut ready);
        assert_eq!(r.pending_len(), 1);
        std::thread::sleep(Duration::from_millis(2));
        r.accept(0, data_frame(0), &mut ready);
        assert_eq!(r.pending_len(), 0);
        assert!(r.hold_ns >= 1_000_000, "banked hold {} ns", r.hold_ns);
        // In-order traffic accumulates nothing further.
        let banked = r.hold_ns;
        r.accept(2, data_frame(2), &mut ready);
        assert_eq!(r.hold_ns, banked);
        assert_eq!(ready.len(), 3);
    }

    #[test]
    fn planned_faults_are_deterministic_and_respect_rates() {
        let plan = FaultPlan {
            seed: 42,
            drop_per_mille: 100,
            dup_per_mille: 100,
            delay_per_mille: 100,
            delay_depth: 3,
        };
        let mut a = plan.for_link(1, 2);
        let mut b = plan.for_link(1, 2);
        let mut c = plan.for_link(2, 1);
        let decisions_a: Vec<FaultAction> = (0..2000).map(|s| a.on_frame(s)).collect();
        let decisions_b: Vec<FaultAction> = (0..2000).map(|s| b.on_frame(s)).collect();
        assert_eq!(decisions_a, decisions_b, "same link, same stream");
        let decisions_c: Vec<FaultAction> = (0..2000).map(|s| c.on_frame(s)).collect();
        assert_ne!(decisions_a, decisions_c, "directions differ");
        let drops = decisions_a
            .iter()
            .filter(|a| matches!(a, FaultAction::Drop))
            .count();
        // 10% nominal over 2000 draws: alive and sane.
        assert!((50..350).contains(&drops), "drop count {drops}");
        let zero = FaultPlan::default();
        assert!(zero.is_noop());
        let mut quiet = zero.for_link(0, 1);
        assert!((0..100).all(|s| quiet.on_frame(s) == FaultAction::Deliver));
    }

    #[test]
    fn coalescing_batches_until_flush_and_preserves_the_byte_stream() {
        // Reference: the same frames through a per-frame writer.
        let mut plain = LinkWriter::new(Vec::new());
        for round in 0..6 {
            plain.send(&data_frame(round)).unwrap();
        }
        // Coalesced with a huge threshold: nothing leaves until flush.
        let mut w = LinkWriter::new(Vec::new());
        w.set_coalescing(1 << 20);
        for round in 0..6 {
            w.send(&data_frame(round)).unwrap();
        }
        assert!(w.writer.is_empty(), "batch held behind the threshold");
        w.flush_held().unwrap();
        assert_eq!(w.writer, plain.writer, "coalescing must not change bytes");
        assert_eq!(w.stats().frames_sent, 6);
        assert_eq!(w.stats().syscalls, 1, "one vectored submission");
        assert_eq!(w.stats().frames_coalesced, 6);
        assert_eq!(
            plain.stats().syscalls,
            6,
            "uncoalesced: one write per frame"
        );
        assert_eq!(plain.stats().frames_coalesced, 0);
    }

    #[test]
    fn coalescing_flushes_at_the_size_threshold() {
        let frame_len = encode_frame(0, &data_frame(0)).len();
        let mut w = LinkWriter::new(Vec::new());
        // Threshold of two frames' worth: every second send flushes.
        w.set_coalescing(2 * frame_len);
        w.send(&data_frame(0)).unwrap();
        assert!(w.writer.is_empty());
        w.send(&data_frame(1)).unwrap();
        assert_eq!(decode_sink(&w.writer).len(), 2, "threshold crossed");
        assert_eq!(w.stats().syscalls, 1);
    }

    #[test]
    fn control_frames_write_through_a_pending_batch() {
        let mut w = LinkWriter::new(Vec::new());
        w.set_coalescing(1 << 20);
        w.send(&data_frame(0)).unwrap();
        assert!(w.writer.is_empty());
        w.send(&Frame::bare(Ctrl::Ready { rank: 1 })).unwrap();
        let seqs: Vec<u64> = decode_sink(&w.writer).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1], "batch flushed with the control frame");
    }

    #[test]
    fn round_done_is_data_plane_and_coalesces_with_the_bundle() {
        // The per-round frame pair on a peer link: one bundle + one done
        // marker, one syscall.
        let mut w = LinkWriter::new(Vec::new());
        w.set_coalescing(1 << 20);
        w.send(&data_frame(3)).unwrap();
        w.send(&Frame::bare(Ctrl::RoundDone {
            round: 3,
            src: 0,
            active: 1,
        }))
        .unwrap();
        assert!(w.writer.is_empty(), "both frames batched");
        w.flush_held().unwrap();
        assert_eq!(decode_sink(&w.writer).len(), 2);
        assert_eq!(w.stats().syscalls, 1);
        assert_eq!(w.stats().frames_coalesced, 2);
        // And RoundDone consults the fault hook like any data frame.
        let mut w = LinkWriter::with_fault(Vec::new(), Box::new(Script(vec![FaultAction::Drop])));
        w.send(&Frame::bare(Ctrl::RoundDone {
            round: 0,
            src: 0,
            active: 0,
        }))
        .unwrap();
        assert_eq!(w.stats().dropped_by_fault, 1);
        assert!(decode_sink(&w.writer).is_empty());
    }

    #[test]
    fn faults_on_a_coalesced_batch_act_per_frame() {
        // Drop + dup + delay inside one batch: the wire stream must be
        // exactly what the per-frame path would produce.
        let script = || {
            Box::new(Script(vec![
                FaultAction::Deliver,
                FaultAction::Drop,
                FaultAction::Duplicate,
                FaultAction::DelayBehind(2),
                FaultAction::Deliver,
            ]))
        };
        let mut plain = LinkWriter::with_fault(Vec::new(), script());
        let mut coal = LinkWriter::with_fault(Vec::new(), script());
        coal.set_coalescing(1 << 20);
        for round in 0..5 {
            plain.send(&data_frame(round)).unwrap();
            coal.send(&data_frame(round)).unwrap();
        }
        plain.flush_held().unwrap();
        coal.flush_held().unwrap();
        assert_eq!(coal.writer, plain.writer);
        assert_eq!(coal.stats().dropped_by_fault, 1);
        assert_eq!(coal.stats().duplicated_by_fault, 1);
        assert_eq!(coal.stats().delayed_by_fault, 1);
        assert!(coal.stats().syscalls < plain.stats().syscalls);
    }

    #[test]
    fn vectored_writes_survive_partial_acceptance() {
        /// A sink that accepts at most 3 bytes per call, forcing the
        /// flush loop to resubmit mid-frame repeatedly.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = LinkWriter::new(Dribble(Vec::new()));
        w.set_coalescing(1 << 20);
        for round in 0..4 {
            w.send(&data_frame(round)).unwrap();
        }
        w.flush_held().unwrap();
        let frames = decode_sink(&w.writer.0);
        assert_eq!(frames.len(), 4);
        for (i, (seq, f)) in frames.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*f, data_frame(i as u64));
        }
        assert!(w.stats().syscalls > 4, "partial writes were resubmitted");
    }

    #[test]
    fn faulty_writer_and_resequencer_compose_to_identity_without_drops() {
        // dup + delay only: whatever the writer scrambles, the
        // resequencer must hand back in exact send order.
        let plan = FaultPlan {
            seed: 7,
            drop_per_mille: 0,
            dup_per_mille: 200,
            delay_per_mille: 300,
            delay_depth: 4,
        };
        let mut w = LinkWriter::with_fault(Vec::new(), Box::new(plan.for_link(0, 1)));
        for round in 0..200 {
            w.send(&data_frame(round)).unwrap();
        }
        w.flush_held().unwrap();
        let mut r = Resequencer::default();
        let mut ready = Vec::new();
        for (seq, frame) in decode_sink(&w.writer) {
            r.accept(seq, frame, &mut ready);
        }
        assert_eq!(ready.len(), 200);
        for (i, f) in ready.iter().enumerate() {
            assert_eq!(*f, data_frame(i as u64));
        }
        assert!(r.gap().is_none());
    }
}
