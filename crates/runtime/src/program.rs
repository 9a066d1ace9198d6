//! The rank-program abstraction: how distributed algorithms are expressed.

use crate::bundle::OutBox;
use crate::message::WireMessage;

/// A processor rank (MPI rank equivalent).
pub type Rank = u32;

/// What a rank reports at the end of a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The rank has local work left and wants another round even without
    /// incoming messages.
    Active,
    /// The rank is quiescent: it only needs another round if messages
    /// arrive. The run terminates when every rank is `Idle` and no packets
    /// are in flight.
    Idle,
}

/// Per-round context handed to a rank: message sending, work charging,
/// topology queries, and structured event emission.
pub struct RankCtx<M: WireMessage> {
    rank: Rank,
    num_ranks: Rank,
    round: u64,
    work: u64,
    outbox: OutBox<M>,
    recorder: cmg_obs::RecorderHandle,
    /// Current timestamp for emitted events: virtual seconds under the
    /// simulation engine, wall seconds since run start under the
    /// threaded engine. Engine-maintained via [`RankCtx::set_now`].
    now: f64,
    /// Messages this rank addressed to itself. Self-sends are legal
    /// (delivered next round like any other message) but unusual enough
    /// that exploration harnesses want them visible: a self-send packet
    /// enters the mailbox schedule and must be fingerprinted like any
    /// other delivery.
    self_sends: u64,
}

impl<M: WireMessage> RankCtx<M> {
    /// Creates a context for one rank.
    ///
    /// This is the engine SPI: algorithm code receives a ready-made
    /// context, but engine implementations (the in-crate [`SimEngine`]/
    /// [`ThreadedEngine`](crate::ThreadedEngine) and out-of-crate
    /// transports such as `cmg-net`) construct one per rank and hand it
    /// to a [`RankStep`](crate::RankStep), which drives it.
    ///
    /// [`SimEngine`]: crate::SimEngine
    pub fn new(
        rank: Rank,
        num_ranks: Rank,
        bundling: bool,
        recorder: cmg_obs::RecorderHandle,
    ) -> Self {
        RankCtx {
            rank,
            num_ranks,
            round: 0,
            work: 0,
            outbox: OutBox::for_ranks(bundling, num_ranks),
            recorder,
            now: 0.0,
            self_sends: 0,
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total number of ranks in the run.
    #[inline]
    pub fn num_ranks(&self) -> Rank {
        self.num_ranks
    }

    /// Current round number (0 = the `on_start` round).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sends `msg` to `dst`; it is delivered at the start of the next
    /// round. Self-sends (`dst == rank`) are allowed and also arrive
    /// next round — they are counted in [`RankCtx::self_sends`] so
    /// exploration harnesses can see they entered the schedule.
    #[inline]
    pub fn send(&mut self, dst: Rank, msg: &M) {
        debug_assert!(
            dst < self.num_ranks,
            "rank {} sent to nonexistent rank {dst} (num_ranks = {})",
            self.rank,
            self.num_ranks
        );
        if dst == self.rank {
            self.self_sends += 1;
        }
        self.outbox.push(dst, msg);
    }

    /// How many messages this rank has addressed to itself so far.
    /// Self-sends are legal but rare; the `Scripted` DFS in the
    /// exploration harness fingerprints their deliveries like any
    /// other packet, and this counter lets tests assert they occurred.
    #[inline]
    pub fn self_sends(&self) -> u64 {
        self.self_sends
    }

    /// Charges `units` of compute work against the cost model (one unit ≈
    /// one adjacency entry touched).
    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.work += units;
    }

    /// Whether an event recorder is attached (one cached-bool check).
    /// Programs can use this to skip counter bookkeeping that only
    /// feeds events.
    #[inline]
    pub fn observed(&self) -> bool {
        self.recorder.enabled()
    }

    /// Emits a structured event from this rank at the current engine
    /// time. Free (a single branch) when no recorder is attached.
    #[inline]
    pub fn emit(&self, event: cmg_obs::Event) {
        self.recorder.emit(self.rank, self.now, event);
    }

    /// Engine-side twin of [`RankCtx::emit`]: stamps the event with `at`
    /// (a packet's arrival, a phase's end) instead of the compute time.
    #[inline]
    pub(crate) fn emit_at(&self, at: f64, event: cmg_obs::Event) {
        self.recorder.emit(self.rank, at, event);
    }

    /// Engine SPI: updates the timestamp used for emitted events.
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    /// Engine SPI: positions the round counter mid-run. Used by
    /// checkpoint restore — a transport that revives a rank from a
    /// snapshot taken at round edge `round` resumes the context there,
    /// so `ctx.round()` (and everything derived from it) continues
    /// bit-identically.
    pub fn resume_at(&mut self, round: u64) {
        self.round = round;
    }

    /// Engine SPI: advances the round counter and drains the round's
    /// work and packets.
    pub fn end_round(&mut self) -> (u64, Vec<crate::bundle::Packet>) {
        let mut packets = Vec::new();
        let work = self.end_round_into(&mut packets);
        (work, packets)
    }

    /// Engine SPI, allocation-aware twin of [`RankCtx::end_round`]:
    /// appends the round's packets to the caller's recycled buffer
    /// (which must be empty) and returns the charged work.
    pub fn end_round_into(&mut self, packets: &mut Vec<crate::bundle::Packet>) -> u64 {
        self.round += 1;
        self.outbox.finish_into(packets);
        std::mem::take(&mut self.work)
    }
}

/// A distributed algorithm, from one rank's point of view.
///
/// The engine calls [`RankProgram::on_start`] once (round 0), then
/// [`RankProgram::on_round`] every round with the messages delivered to
/// this rank, until every rank is [`Status::Idle`] and no packets are in
/// flight.
///
/// # State contract
///
/// Every program's algorithm state is an explicit serializable value:
/// [`RankProgram::snapshot`] captures it as a
/// [`ProgramSnapshot`](crate::snapshot::ProgramSnapshot) record stream
/// and [`RankProgram::restore`] rebuilds the program from a snapshot
/// plus its construction context ([`RankProgram::Meta`] — graphs,
/// configs, anything *not* carried on the wire). Taken at a round edge,
/// `restore(meta, snapshot)` must resume **bit-identically**: results,
/// statistics, and traces of the resumed run must equal the
/// uninterrupted run's. The engines verify this live when
/// `EngineConfig::checkpoint_every` is set, and the cmg-net supervisor
/// relies on it to respawn dead ranks from their last checkpoint.
pub trait RankProgram: Send {
    /// The algorithm's message type.
    type Msg: WireMessage;

    /// Serializable algorithm state: pointers, proposals, palettes,
    /// phase counters, in-flight collective state. Incidental state
    /// (halo views, scratch buffers) stays out and is rebuilt by
    /// [`RankProgram::restore`].
    type Snapshot: crate::snapshot::ProgramSnapshot;

    /// Construction context needed to rebuild the incidental state on
    /// restore (typically the rank's `DistGraph` plus configuration).
    /// Not serialized — the transport already owns it.
    type Meta: Send;

    /// Round 0: initialize and send the first messages.
    fn on_start(&mut self, ctx: &mut RankCtx<Self::Msg>) -> Status;

    /// One round: process `inbox` (messages sent to this rank last round,
    /// grouped by source and sorted by source rank for determinism), do
    /// local work, send messages.
    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<Self::Msg>)>,
        ctx: &mut RankCtx<Self::Msg>,
    ) -> Status;

    /// Captures the program's algorithm state at a round edge.
    fn snapshot(&self) -> Self::Snapshot;

    /// Appends the encoded snapshot to `out` — the same bytes as
    /// `self.snapshot().encode_into(out)`, which is also the default.
    /// This is the checkpoint hot path: the net worker serializes the
    /// program at every checkpoint edge while peers wait at the
    /// barrier, so programs with bulky state override this to encode
    /// straight out of their live buffers (no intermediate snapshot
    /// clone). Overrides must stay byte-identical to the default.
    fn encode_snapshot_into(&self, out: &mut Vec<u8>) {
        use crate::snapshot::ProgramSnapshot;
        self.snapshot().encode_into(out);
    }

    /// Rebuilds a program from construction context plus a snapshot.
    /// Must be the exact inverse of [`RankProgram::snapshot`]: the
    /// restored program behaves bit-identically to the captured one.
    fn restore(meta: Self::Meta, snap: Self::Snapshot) -> Self;

    /// Extracts fresh construction context from a live program, so
    /// engines can roundtrip `snapshot → restore` generically (the
    /// sim/threaded `checkpoint_every` equivalence oracle).
    fn meta(&self) -> Self::Meta;
}

/// Warm-start contract: the serving-layer sibling of the snapshot
/// contract.
///
/// Where [`RankProgram::restore`] rebuilds a program *exactly* (same
/// graph, bit-identical resumption), `reseed` rebuilds it **under a
/// changed graph**: the caller retains a globally consistent view of
/// the previous run's result (`Retained` — e.g. the global mate vector
/// plus the set of invalidated vertices), and `reseed` constructs a
/// program whose non-invalidated state is pre-resolved, so the next
/// engine run only does protocol work on the dirty frontier. Every
/// rank must be reseeded from the *same* retained view: ghost states
/// derived from it are then consistent across ranks without any
/// catch-up communication.
///
/// Unlike restore, reseeded runs are not bit-identical to cold runs —
/// they promise *result* equivalence (the cmg-check oracles, and exact
/// result equality where the algorithm's fixed point is unique, e.g.
/// matching under distinct weights). See DESIGN.md §13.
pub trait WarmStart: RankProgram + Sized {
    /// The globally consistent retained state a reseed draws from.
    type Retained: ?Sized;

    /// Builds a program over `meta` (the rank's construction context on
    /// the *new* graph) with retained state pre-applied and only the
    /// invalidated frontier left active.
    fn reseed(meta: Self::Meta, retained: &Self::Retained) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_accumulates_work_and_packets() {
        let mut ctx: RankCtx<u32> = RankCtx::new(2, 4, true, cmg_obs::RecorderHandle::noop());
        assert_eq!(ctx.rank(), 2);
        assert_eq!(ctx.num_ranks(), 4);
        assert_eq!(ctx.round(), 0);
        ctx.charge(10);
        ctx.charge(5);
        ctx.send(0, &1);
        ctx.send(0, &2);
        ctx.send(3, &3);
        let (work, packets) = ctx.end_round();
        assert_eq!(work, 15);
        assert_eq!(packets.len(), 2);
        assert_eq!(ctx.round(), 1);
        let (work2, packets2) = ctx.end_round();
        assert_eq!(work2, 0);
        assert!(packets2.is_empty());
    }
}
