//! Threaded execution engine: one OS thread per rank, real channels, real
//! wall-clock time.
//!
//! This engine validates the algorithms under true concurrency and provides
//! the wall-time measurements for host-scale rank counts. It executes the
//! same round protocol as the simulation engine — messages sent in round
//! *t* are delivered in round *t + 1*, rounds are separated by barriers —
//! so both engines produce identical algorithm results.

use crate::program::{Rank, RankCtx, RankProgram, Status};
use crate::sim::checkpoint_roundtrip;
use crate::stats::{RankStats, RunStats};
use crate::step::{RankStep, StepClock, WallClock};
use crate::EngineConfig;
use cmg_obs::{Event, PhaseName, ENGINE_RANK};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What travels between threads: `(src, seq-within-src, messages, bytes)`,
/// a parcel's messages and encoded size moved as they are.
type WirePacket<M> = (Rank, u64, Vec<M>, usize);

/// Result of a threaded run.
pub struct ThreadedResult<P> {
    /// Final per-rank program state, indexed by rank.
    pub programs: Vec<P>,
    /// Execution statistics (virtual times are 0 — this engine measures
    /// real time instead).
    pub stats: RunStats,
    /// Measured wall-clock time of the whole run.
    pub wall_time: Duration,
    /// `true` if the run stopped at the round cap.
    pub hit_round_cap: bool,
}

/// The threaded engine. See the module docs.
pub struct ThreadedEngine<P: RankProgram> {
    programs: Vec<P>,
    config: EngineConfig,
}

impl<P: RankProgram> ThreadedEngine<P> {
    /// Creates an engine over one program per rank (rank = index).
    ///
    /// Keep the rank count within a small multiple of the host's cores:
    /// every rank is a real thread.
    pub fn new(programs: Vec<P>, config: EngineConfig) -> Self {
        ThreadedEngine { programs, config }
    }

    /// Runs to quiescence (or the round cap) and returns the result. A rank
    /// that panics fails the run with its panic; the other ranks stop.
    #[expect(clippy::expect_used, reason = "re-raises a panicked rank thread")]
    pub fn run(self) -> ThreadedResult<P> {
        let p = self.programs.len();
        if p == 0 {
            return ThreadedResult {
                programs: Vec::new(),
                stats: RunStats::default(),
                wall_time: Duration::ZERO,
                hit_round_cap: false,
            };
        }

        type Channel<M> = (Vec<Sender<WirePacket<M>>>, Vec<Receiver<WirePacket<M>>>);
        let (senders, receivers): Channel<P::Msg> = (0..p).map(|_| unbounded()).unzip();
        let barrier = RoundBarrier::new(p);
        // Double-buffered activity flags indexed by round parity (see the
        // protocol note in `run_rank`).
        let activity = [AtomicBool::new(false), AtomicBool::new(false)];
        let cap_hit = AtomicBool::new(false);

        let start = Instant::now();
        let mut results: Vec<Option<(P, RankStats, u64)>> = (0..p).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, (program, receiver)) in self.programs.into_iter().zip(receivers).enumerate()
            {
                let senders = senders.clone();
                let barrier = &barrier;
                let activity = &activity;
                let cap_hit = &cap_hit;
                let config = &self.config;
                handles.push(scope.spawn(move |_| {
                    run_rank::<P>(
                        rank as Rank,
                        p as Rank,
                        program,
                        receiver,
                        senders,
                        barrier,
                        activity,
                        cap_hit,
                        config,
                        start,
                    )
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(result) => results[rank] = Some(result),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        })
        .expect("threaded scope panicked");
        let wall_time = start.elapsed();

        let mut programs = Vec::with_capacity(p);
        let mut per_rank = Vec::with_capacity(p);
        let mut rounds = 0;
        for slot in results {
            let (program, stats, rank_rounds) = slot.expect("missing rank result");
            rounds = rounds.max(rank_rounds);
            programs.push(program);
            per_rank.push(stats);
        }
        let stats = RunStats { per_rank, rounds };
        let hit_round_cap = cap_hit.load(Ordering::Relaxed);
        // Debug builds verify send/receive conservation on every clean
        // run (a capped run may legitimately strand packets in channels).
        #[cfg(debug_assertions)]
        if !hit_round_cap {
            stats.assert_conservation();
        }
        ThreadedResult {
            programs,
            stats,
            wall_time,
            hit_round_cap,
        }
    }
}

/// The barrier between rounds. Unlike [`std::sync::Barrier`] it can be
/// broken: a rank thread that panics breaks it on the way out (see
/// [`BreakOnPanic`]), which releases every rank waiting on it, and every
/// rank arriving later, with `false`. They leave their round loops, so
/// the panic reaches [`ThreadedEngine::run`] instead of the other ranks
/// waiting for the dead one forever.
#[expect(
    clippy::disallowed_types,
    reason = "the round barrier's state; a rank holds it alone, and only to wait on `turned`"
)]
struct RoundBarrier {
    ranks: usize,
    turn: std::sync::Mutex<Turn>,
    turned: Condvar,
}

#[derive(Default)]
struct Turn {
    arrived: usize,
    generation: u64,
    broken: bool,
}

impl RoundBarrier {
    fn new(ranks: usize) -> Self {
        RoundBarrier {
            ranks,
            turn: Default::default(),
            turned: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Turn> {
        self.turn.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until every rank has arrived (`true`) or the barrier is
    /// broken (`false`).
    fn wait(&self) -> bool {
        let mut turn = self.lock();
        if turn.broken {
            return false;
        }
        let generation = turn.generation;
        turn.arrived += 1;
        if turn.arrived == self.ranks {
            turn.arrived = 0;
            turn.generation += 1;
            self.turned.notify_all();
            return true;
        }
        while turn.generation == generation && !turn.broken {
            turn = self
                .turned
                .wait(turn)
                .unwrap_or_else(PoisonError::into_inner);
        }
        turn.generation != generation
    }
}

/// Breaks the rank thread's [`RoundBarrier`] if the thread unwinds.
struct BreakOnPanic<'a>(&'a RoundBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken = true;
            self.0.turned.notify_all();
        }
    }
}

/// The per-thread round loop.
///
/// Protocol per round `r`:
/// 1. step the rank ([`RankStep`]) on the inbox drained at the end of
///    round `r − 1`;
/// 2. send produced packets; publish activity into `activity[r % 2]`,
///    clear `activity[(r + 1) % 2]` for the next round;
/// 3. barrier — all sends are now visible;
/// 4. drain the channel into the next inbox; read the global activity flag;
///    exit if no rank was active and nothing was sent.
#[allow(clippy::too_many_arguments)]
#[expect(clippy::expect_used, reason = "a dead peer")]
fn run_rank<P: RankProgram>(
    rank: Rank,
    num_ranks: Rank,
    mut program: P,
    receiver: Receiver<WirePacket<P::Msg>>,
    senders: Vec<Sender<WirePacket<P::Msg>>>,
    barrier: &RoundBarrier,
    activity: &[AtomicBool; 2],
    cap_hit: &AtomicBool,
    config: &EngineConfig,
    start: Instant,
) -> (P, RankStats, u64) {
    let recorder = config.recorder.clone();
    // Event timestamps: wall seconds since the run started (shared
    // epoch across ranks, so the trace tracks line up).
    let mut clock = WallClock::since(start);
    let mut step: RankStep<P> = RankStep::new(RankCtx::new(
        rank,
        num_ranks,
        config.bundling,
        recorder.clone(),
    ));
    let _break_on_panic = BreakOnPanic(barrier);
    let mut inbox_raw: Vec<WirePacket<P::Msg>> = Vec::new();
    let mut seq: u64 = 0;
    let mut round: u64 = 0;

    loop {
        if rank == 0 {
            recorder.emit(ENGINE_RANK, clock.now(), || Event::RoundStart {
                round: round as u32,
            });
        }
        // 1. Step. 0/1-packet inboxes skip the sort; the `(src, seq)` key
        // is unique, so an unstable sort is deterministic.
        if inbox_raw.len() > 1 {
            inbox_raw.sort_unstable_by_key(|&(src, sq, _, _)| (src, sq));
        }
        for (src, _, msgs, bytes) in inbox_raw.drain(..) {
            step.deliver(&mut clock, src, (), msgs, bytes);
        }
        let status = step.compute(&mut clock, &mut program);

        // 2. Send.
        let send_start = clock.now();
        let sent_any = step.produced() > 0;
        for (parcel, ()) in step.drain(&mut clock) {
            seq += 1;
            senders[parcel.dst as usize]
                .send((rank, seq, parcel.msgs, parcel.bytes))
                .map_err(drop)
                .expect("receiver dropped");
        }
        if sent_any {
            step.span(&clock, PhaseName::Send, send_start);
        }
        let parity = (round % 2) as usize;
        if status == Status::Active || sent_any {
            activity[parity].store(true, Ordering::SeqCst);
        }

        // 3. First barrier: all sends and activity stores are now visible.
        if !barrier.wait() {
            break;
        }

        // 4. Drain and decide. Every thread reads the same flag value
        // because nothing writes it between the two barriers.
        inbox_raw.extend(receiver.try_iter());
        let keep_going = activity[parity].load(Ordering::SeqCst);

        // 5. Second barrier: all reads done; this round's flag may now be
        // reset (it is next written in round r + 2, two barriers away, so
        // the reset cannot race with a future set).
        if !barrier.wait() {
            break;
        }
        activity[parity].store(false, Ordering::SeqCst);

        if rank == 0 {
            // Every rank steps every round in this engine, so all ranks
            // count as active.
            recorder.emit(ENGINE_RANK, clock.now(), || Event::RoundEnd {
                round: round as u32,
                active_ranks: num_ranks,
            });
        }

        round += 1;
        // Checkpoint equivalence oracle (see `EngineConfig::
        // checkpoint_every`): at every k-round edge the program is
        // round-tripped through its snapshot wire encoding in place.
        // Purely thread-local and deterministic, so the run must stay
        // bit-identical to an uninterrupted one.
        let k = config.checkpoint_every;
        if k > 0 && round.is_multiple_of(k) {
            checkpoint_roundtrip(&mut program);
        }
        if !keep_going {
            break;
        }
        if round >= config.max_rounds {
            cap_hit.store(true, Ordering::SeqCst);
            break;
        }
    }
    (program, step.into_stats(), round)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank sends its id to every other rank once, then sums what it
    /// receives.
    #[derive(Clone)]
    struct AllToAll {
        sum: u64,
    }

    impl RankProgram for AllToAll {
        type Msg = u32;
        crate::trivial_snapshot!();

        fn on_start(&mut self, ctx: &mut RankCtx<u32>) -> Status {
            for dst in 0..ctx.num_ranks() {
                if dst != ctx.rank() {
                    ctx.send(dst, &ctx.rank().clone());
                }
            }
            Status::Idle
        }

        fn on_round(
            &mut self,
            inbox: &mut Vec<(Rank, Vec<u32>)>,
            _ctx: &mut RankCtx<u32>,
        ) -> Status {
            for (_, msgs) in inbox.drain(..) {
                for m in msgs {
                    self.sum += m as u64;
                }
            }
            Status::Idle
        }
    }

    #[test]
    fn all_to_all_delivers_everything() {
        let p = 8u32;
        let programs = (0..p).map(|_| AllToAll { sum: 0 }).collect();
        let result = ThreadedEngine::new(programs, EngineConfig::default()).run();
        assert!(!result.hit_round_cap);
        let expected: u64 = (0..p as u64).sum();
        for (rank, prog) in result.programs.iter().enumerate() {
            assert_eq!(prog.sum, expected - rank as u64, "rank {rank}");
        }
        // p ranks × (p−1) messages, bundled into (p−1) packets each.
        assert_eq!(result.stats.total_messages(), (p * (p - 1)) as u64);
        assert_eq!(result.stats.total_packets(), (p * (p - 1)) as u64);
        // Everything sent over the channels was received.
        result.stats.assert_conservation();
    }

    /// Rank 1 panics in its third round; every rank would run forever.
    #[derive(Clone)]
    struct PanicsInRoundTwo;

    impl RankProgram for PanicsInRoundTwo {
        type Msg = u32;
        crate::trivial_snapshot!();

        fn on_start(&mut self, _ctx: &mut RankCtx<u32>) -> Status {
            Status::Active
        }

        fn on_round(
            &mut self,
            _inbox: &mut Vec<(Rank, Vec<u32>)>,
            ctx: &mut RankCtx<u32>,
        ) -> Status {
            assert!(ctx.rank() != 1 || ctx.round() != 2, "rank 1 fails");
            Status::Active
        }
    }

    /// The panic fails the run with its own message instead of leaving
    /// the other ranks at the round barrier.
    #[test]
    fn a_panicking_rank_fails_the_run_instead_of_hanging() {
        let programs = (0..4).map(|_| PanicsInRoundTwo).collect();
        let engine = ThreadedEngine::new(programs, EngineConfig::default());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()));
        let panic = run.err().expect("the run fails");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"rank 1 fails"));
    }

    #[test]
    fn single_rank_runs() {
        let result = ThreadedEngine::new(vec![AllToAll { sum: 0 }], EngineConfig::default()).run();
        assert_eq!(result.programs[0].sum, 0);
        assert_eq!(result.stats.rounds, 1);
    }

    #[test]
    fn empty_engine_is_noop() {
        let result = ThreadedEngine::<AllToAll>::new(vec![], EngineConfig::default()).run();
        assert!(result.programs.is_empty());
    }

    #[test]
    fn matches_sim_engine_results() {
        let p = 6u32;
        let threaded = ThreadedEngine::new(
            (0..p).map(|_| AllToAll { sum: 0 }).collect(),
            EngineConfig::default(),
        )
        .run();
        let sim = crate::SimEngine::new(
            (0..p).map(|_| AllToAll { sum: 0 }).collect::<Vec<_>>(),
            EngineConfig::default(),
        )
        .run();
        for r in 0..p as usize {
            assert_eq!(threaded.programs[r].sum, sim.programs[r].sum);
        }
        assert_eq!(threaded.stats.total_messages(), sim.stats.total_messages());
    }
}
