//! The rank step: the one round body every engine runs.
//!
//! From one rank's point of view a round is *deliver → compute → send*:
//! count and trace each arrived parcel and move its messages into the
//! inbox (grouped by source), call the program, count and trace each
//! parcel it produced. Parcels are typed, so the step never sees bytes,
//! only each parcel's encoded size: a transport that puts parcels on a
//! wire encodes them after [`RankStep::drain`] and decodes them before
//! [`RankStep::deliver`]. [`RankStep`] is that body, written once. An
//! engine keeps only how parcels travel and how a round ends, and the
//! engines differ inside the step in one respect only — *time* — which is
//! the [`StepClock`] parameter. (The dense reference in `sim.rs`
//! deliberately does not use this module: it is what the scheduled loop,
//! and so this step, is tested against.)

use crate::bundle::Parcel;
use crate::program::{Rank, RankCtx, RankProgram, Status};
use crate::stats::RankStats;
use crate::CostModel;
use cmg_obs::{Event, PhaseName};
use std::time::Instant;

/// Event time as one engine sees it.
pub trait StepClock {
    /// What the clock knows about a packet in flight: a virtual clock
    /// computes its arrival time, a wall clock nothing — the packet has
    /// arrived when it is read.
    type Arrival: Copy;

    /// Current event time in seconds.
    fn now(&self) -> f64;

    /// Consumes a packet that arrives at `at`, waiting for it if need be;
    /// returns the time its receipt is stamped with.
    fn receive(&mut self, at: Self::Arrival) -> f64;

    /// Accounts `work` units of compute.
    fn compute(&mut self, work: u64);

    /// Accounts the sending of a `bytes`-byte packet; returns its arrival.
    fn send(&mut self, bytes: usize) -> Self::Arrival;
}

/// Simulated time: advanced by the α–β–γ [`CostModel`], never by the host.
#[derive(Clone, Copy, Debug)]
pub struct VirtualClock {
    now: f64,
    cost: CostModel,
}

impl VirtualClock {
    /// A clock reading `now` that charges against `cost`.
    pub fn new(now: f64, cost: CostModel) -> Self {
        VirtualClock { now, cost }
    }
}

impl StepClock for VirtualClock {
    type Arrival = f64;

    fn now(&self) -> f64 {
        self.now
    }

    /// Asynchronous wait-for-data: the clock jumps to the arrival, and the
    /// receipt is stamped with it (not with the later of the two).
    fn receive(&mut self, at: f64) -> f64 {
        self.now = self.now.max(at);
        at
    }

    fn compute(&mut self, work: u64) {
        self.now += self.cost.compute_time(work);
    }

    /// The sender pays the overhead; the transfer delays only the arrival.
    fn send(&mut self, bytes: usize) -> f64 {
        self.now += self.cost.send_overhead;
        self.now + self.cost.transfer_time(bytes)
    }
}

/// Host time: wall seconds since an epoch shared by every rank of the run,
/// so the per-rank trace tracks line up.
#[derive(Clone, Copy, Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock reading seconds elapsed since `epoch`.
    pub fn since(epoch: Instant) -> Self {
        WallClock(epoch)
    }
}

impl StepClock for WallClock {
    type Arrival = ();

    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn receive(&mut self, (): ()) -> f64 {
        self.now()
    }

    fn compute(&mut self, _work: u64) {}

    fn send(&mut self, _bytes: usize) {}
}

/// One rank's step state. An engine drives it once per round —
/// [`deliver`](Self::deliver) for each arrived parcel in delivery order,
/// [`compute`](Self::compute), then [`drain`](Self::drain) — and routes
/// what `drain` yields.
pub struct RankStep<P: RankProgram> {
    ctx: RankCtx<P::Msg>,
    /// Handed to `on_round`; the outer vector is reused across rounds.
    inbox: Vec<(Rank, Vec<P::Msg>)>,
    /// The outbox drains into this each round (recycled).
    parcel_buf: Vec<Parcel<P::Msg>>,
    stats: RankStats,
    /// When the first parcel of the inbox being filled was delivered.
    delivery_start: f64,
}

impl<P: RankProgram> RankStep<P> {
    /// A step about to run round 0 on `ctx`'s rank.
    pub fn new(ctx: RankCtx<P::Msg>) -> Self {
        RankStep {
            ctx,
            inbox: Vec::new(),
            parcel_buf: Vec::new(),
            stats: RankStats::default(),
            delivery_start: 0.0,
        }
    }

    /// Re-enters a run at `round` with the counters accumulated up to it:
    /// a rank revived from a checkpoint taken at the previous round edge.
    pub fn resume(&mut self, round: u64, stats: RankStats) {
        self.ctx.resume_at(round);
        self.stats = stats;
    }

    /// The counters so far.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// The final counters.
    pub fn into_stats(self) -> RankStats {
        self.stats
    }

    /// Parcels the last [`compute`](Self::compute) produced that
    /// [`drain`](Self::drain) has not yielded yet.
    pub fn produced(&self) -> usize {
        self.parcel_buf.len()
    }

    /// Delivers one arrived parcel from `src`: counts it, traces it, and
    /// moves its messages onto the end of `src`'s inbox entry (one
    /// source's parcels must be delivered consecutively). `bytes` is the
    /// parcel's encoded size.
    pub fn deliver<C: StepClock>(
        &mut self,
        clock: &mut C,
        src: Rank,
        at: C::Arrival,
        mut msgs: Vec<P::Msg>,
        bytes: usize,
    ) {
        if self.inbox.is_empty() {
            self.delivery_start = clock.now();
        }
        let received = clock.receive(at);
        let logical = msgs.len() as u32;
        // The parcel's vector becomes the source's inbox entry.
        match self.inbox.last_mut() {
            Some((s, list)) if *s == src => list.append(&mut msgs),
            _ => self.inbox.push((src, msgs)),
        }
        let bytes = bytes as u64;
        self.stats.packets_received += 1;
        self.stats.bytes_received += bytes;
        self.stats.messages_received += u64::from(logical);
        self.ctx.emit_at(received, || Event::PacketRecv {
            src,
            bytes,
            logical,
        });
    }

    /// Runs the program on what was delivered (`on_start` in round 0,
    /// `on_round` after), collects its parcels for [`drain`](Self::drain)
    /// and returns its status.
    pub fn compute<C: StepClock>(&mut self, clock: &mut C, program: &mut P) -> Status {
        if !self.inbox.is_empty() {
            self.span(clock, PhaseName::Delivery, self.delivery_start);
        }
        let start = clock.now();
        self.ctx.set_now(start);
        let status = if self.ctx.round() == 0 {
            program.on_start(&mut self.ctx)
        } else {
            program.on_round(&mut self.inbox, &mut self.ctx)
        };
        self.inbox.clear();
        let work = self.ctx.end_round_into(&mut self.parcel_buf);
        self.stats.rounds_active += 1;
        self.stats.work += work;
        clock.compute(work);
        self.span(clock, PhaseName::Compute, start);
        status
    }

    /// Yields the parcels the round produced, each with its arrival,
    /// counting and tracing every one as it is handed over.
    pub fn drain<'a, C: StepClock>(
        &'a mut self,
        clock: &'a mut C,
    ) -> impl Iterator<Item = (Parcel<P::Msg>, C::Arrival)> + 'a {
        let (ctx, stats) = (&self.ctx, &mut self.stats);
        self.parcel_buf.drain(..).map(move |parcel| {
            let (bytes, logical) = (parcel.bytes, parcel.logical());
            stats.packets_sent += 1;
            stats.messages_sent += u64::from(logical);
            stats.bytes_sent += bytes as u64;
            let arrival = clock.send(bytes);
            // The guard also spares an unobserved run the clock read.
            if ctx.observed() {
                ctx.emit_at(clock.now(), || Event::PacketSent {
                    dst: parcel.dst,
                    bytes: bytes as u64,
                    logical,
                });
            }
            (parcel, arrival)
        })
    }

    /// Traces a phase of this rank's round that began at `start` and ends
    /// now. The step closes its own delivery and compute phases; an
    /// engine closes the ones it times itself (send, round edge).
    pub fn span<C: StepClock>(&self, clock: &C, name: PhaseName, start: f64) {
        if self.ctx.observed() {
            let end = clock.now();
            let dur = end - start;
            self.ctx.emit_at(end, || Event::Phase { name, start, dur });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;
    use cmg_obs::RecorderHandle;

    /// Sends a fixed script in round 0, then records every inbox it is
    /// handed.
    #[derive(Clone, Default)]
    struct Scripted {
        sends: Vec<(Rank, u32)>,
        seen: Vec<(Rank, Vec<u32>)>,
    }

    impl RankProgram for Scripted {
        type Msg = u32;
        crate::trivial_snapshot!();

        fn on_start(&mut self, ctx: &mut RankCtx<u32>) -> Status {
            for (dst, msg) in &self.sends {
                ctx.send(*dst, msg);
            }
            Status::Idle
        }

        fn on_round(
            &mut self,
            inbox: &mut Vec<(Rank, Vec<u32>)>,
            _ctx: &mut RankCtx<u32>,
        ) -> Status {
            self.seen.append(inbox);
            Status::Idle
        }
    }

    fn step_for(rank: Rank) -> RankStep<Scripted> {
        RankStep::new(RankCtx::new(rank, 4, true, RecorderHandle::noop()))
    }

    fn clock() -> VirtualClock {
        VirtualClock::new(0.0, CostModel::compute_only())
    }

    #[test]
    fn packets_of_one_source_share_an_inbox_entry_in_order() {
        let (mut step, mut clock, mut program) = (step_for(0), clock(), Scripted::default());
        step.compute(&mut clock, &mut program);
        step.deliver(&mut clock, 1, 0.0, vec![10, 11], 8);
        step.deliver(&mut clock, 1, 0.0, vec![12], 4);
        step.deliver(&mut clock, 3, 0.0, vec![30], 4);
        step.compute(&mut clock, &mut program);
        assert_eq!(program.seen, vec![(1, vec![10, 11, 12]), (3, vec![30])]);
        assert_eq!(step.stats().packets_received, 3);
        assert_eq!(step.stats().messages_received, 4);
        assert_eq!(step.stats().bytes_received, 16);
    }

    #[test]
    fn self_send_conserves_stats_across_drain_and_deliver() {
        let mut program = Scripted {
            sends: vec![(2, 7), (2, 8)],
            ..Scripted::default()
        };
        let (mut step, mut clock) = (step_for(2), clock());
        step.compute(&mut clock, &mut program);
        assert_eq!(step.produced(), 1);
        let sent: Vec<(Parcel<u32>, f64)> = step.drain(&mut clock).collect();
        assert_eq!(step.produced(), 0);
        for (parcel, at) in sent {
            assert_eq!((parcel.dst, parcel.bytes), (2, 8));
            step.deliver(&mut clock, 2, at, parcel.msgs, parcel.bytes);
        }
        step.compute(&mut clock, &mut program);
        assert_eq!(program.seen, vec![(2, vec![7, 8])]);
        let stats = step.into_stats();
        assert_eq!((stats.packets_sent, stats.messages_sent), (1, 2));
        let run = RunStats {
            per_rank: vec![stats],
            rounds: 2,
        };
        assert_eq!(run.conservation_violation(), None);
    }
}
