//! The rank-program abstraction: how distributed algorithms are expressed.

use crate::bundle::{OutBox, Parcel};
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
    /// feeds events; [`RankCtx::emit`] makes the same check itself.
    #[inline]
    pub fn observed(&self) -> bool {
        self.recorder.enabled()
    }

    /// Emits the event `event` builds from this rank at the current
    /// engine time. Free (a single branch, `event` never called) when no
    /// recorder is attached.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> cmg_obs::Event) {
        self.recorder.emit(self.rank, self.now, event);
    }

    /// Engine-side twin of [`RankCtx::emit`]: stamps the event with `at`
    /// (a packet's arrival, a phase's end) instead of the compute time.
    #[inline]
    pub(crate) fn emit_at(&self, at: f64, event: impl FnOnce() -> cmg_obs::Event) {
        self.recorder.emit(self.rank, at, event);
    }

    /// Engine SPI: updates the timestamp used for emitted events.
    pub(crate) fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    /// Engine SPI: positions the round counter mid-run. Used by
    /// checkpoint restore — a transport that revives a rank from a
    /// snapshot taken at round edge `round` resumes the context there,
    /// so `ctx.round()` (and everything derived from it) continues
    /// bit-identically.
    pub(crate) fn resume_at(&mut self, round: u64) {
        self.round = round;
    }

    /// Engine SPI: advances the round counter and drains the round's
    /// work and parcels.
    pub fn end_round(&mut self) -> (u64, Vec<Parcel<M>>) {
        let mut parcels = Vec::new();
        let work = self.end_round_into(&mut parcels);
        (work, parcels)
    }

    /// Engine SPI, allocation-aware twin of [`RankCtx::end_round`]:
    /// appends the round's parcels to the caller's recycled buffer
    /// (which must be empty) and returns the charged work.
    pub(crate) fn end_round_into(&mut self, parcels: &mut Vec<Parcel<M>>) -> u64 {
        self.round += 1;
        self.outbox.finish_into(parcels);
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
/// # Lifecycle
///
/// - A program's constructor takes ownership of its context (the rank's
///   graph slice, its config) and does O(1) work: nothing sized by the
///   slice or by the rank count. The caller builds all p programs on one
///   thread, before any rank runs.
/// - Rank-local set-up — indexes, per-vertex arrays, fan-out tables —
///   belongs in [`RankProgram::on_start`], which every engine runs on the
///   rank itself: on the rank's own thread under
///   [`ThreadedEngine`](crate::ThreadedEngine), in the worker process
///   under `cmg-net`, in the step loop under [`SimEngine`]. Set-up
///   charges no work units.
/// - [`RankProgram::restore`] builds its own index, because a resumed
///   rank gets no `on_start`.
///
/// A program that has not started yet must still be total: its
/// accessors give the not-run answer, and its snapshot restores to a
/// fresh rank.
///
/// [`SimEngine`]: crate::SimEngine
///
/// # State contract
///
/// Every program's algorithm state is an explicit serializable value:
/// [`RankProgram::snapshot`] captures it as a stream of
/// [`RankProgram::Record`]s (one `wire_codec!` enum, the same fixed
/// format as messages, written by
/// [`encode_snapshot`](crate::snapshot::encode_snapshot)) and
/// [`RankProgram::restore`] rebuilds the program from the records plus
/// its construction context ([`RankProgram::Meta`] — graphs, configs,
/// anything *not* carried on the wire). Taken at a round edge,
/// `restore(meta, snapshot)` must resume **bit-identically**: results,
/// statistics, and traces of the resumed run must equal the
/// uninterrupted run's. The engines verify this live when
/// `EngineConfig::checkpoint_every` is set, and the cmg-net supervisor
/// relies on it to respawn dead ranks from their last checkpoint.
pub trait RankProgram: Send {
    /// The algorithm's message type.
    type Msg: WireMessage;

    /// One record of the serializable algorithm state: pointers,
    /// proposals, palettes, phase counters, in-flight collective state.
    /// Incidental state (halo views, scratch buffers) stays out and is
    /// rebuilt by [`RankProgram::restore`].
    type Record: WireMessage;

    /// Construction context needed to rebuild the incidental state on
    /// restore (typically the rank's `DistGraph` plus configuration).
    /// Not serialized — the transport already owns it.
    type Meta: Send;

    /// Round 0, on the rank itself: build the rank-local index,
    /// initialize and send the first messages.
    fn on_start(&mut self, ctx: &mut RankCtx<Self::Msg>) -> Status;

    /// One round: process `inbox` (messages sent to this rank last round,
    /// grouped by source and sorted by source rank for determinism), do
    /// local work, send messages.
    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<Self::Msg>)>,
        ctx: &mut RankCtx<Self::Msg>,
    ) -> Status;

    /// Captures the program's algorithm state at a round edge, as
    /// records in the order [`RankProgram::restore`] reads them.
    fn snapshot(&self) -> Vec<Self::Record>;

    /// Rebuilds a program from construction context plus a snapshot,
    /// index included (the resumed rank gets no `on_start`). Must be the
    /// exact inverse of [`RankProgram::snapshot`]: the restored program
    /// behaves bit-identically to the captured one.
    fn restore(meta: Self::Meta, snap: Vec<Self::Record>) -> Self;

    /// Extracts fresh construction context from a live program, so
    /// engines can roundtrip `snapshot → restore` generically (the
    /// sim/threaded `checkpoint_every` equivalence oracle).
    fn meta(&self) -> Self::Meta;
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
        let (work, parcels) = ctx.end_round();
        assert_eq!(work, 15);
        assert_eq!(parcels.len(), 2);
        assert_eq!(parcels[0].msgs, vec![1, 2]);
        assert_eq!(ctx.round(), 1);
        let (work2, parcels2) = ctx.end_round();
        assert_eq!(work2, 0);
        assert!(parcels2.is_empty());
    }
}
