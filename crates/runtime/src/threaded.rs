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
use bytes::Bytes;
use cmg_obs::{Event, PhaseName, ENGINE_RANK};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What travels between threads: `(src, seq-within-src, payload, logical)`.
type WirePacket = (Rank, u64, Bytes, u32);

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

    /// Runs to quiescence (or the round cap) and returns the result.
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

        let (senders, receivers): (Vec<Sender<WirePacket>>, Vec<Receiver<WirePacket>>) =
            (0..p).map(|_| unbounded()).unzip();
        let barrier = Barrier::new(p);
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
                results[rank] = Some(handle.join().expect("rank thread panicked"));
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
fn run_rank<P: RankProgram>(
    rank: Rank,
    num_ranks: Rank,
    mut program: P,
    receiver: Receiver<WirePacket>,
    senders: Vec<Sender<WirePacket>>,
    barrier: &Barrier,
    activity: &[AtomicBool; 2],
    cap_hit: &AtomicBool,
    config: &EngineConfig,
    start: Instant,
) -> (P, RankStats, u64) {
    let recorder = config.recorder.clone();
    let observed = recorder.enabled();
    // Event timestamps: wall seconds since the run started (shared
    // epoch across ranks, so the trace tracks line up).
    let mut clock = WallClock::since(start);
    let mut step: RankStep<P> = RankStep::new(RankCtx::new(
        rank,
        num_ranks,
        config.bundling,
        recorder.clone(),
    ));
    let mut inbox_raw: Vec<WirePacket> = Vec::new();
    let mut seq: u64 = 0;
    let mut round: u64 = 0;

    loop {
        if observed && rank == 0 {
            recorder.emit(
                ENGINE_RANK,
                clock.now(),
                Event::RoundStart {
                    round: round as u32,
                },
            );
        }
        // 1. Step. 0/1-packet inboxes skip the sort; the `(src, seq)` key
        // is unique, so an unstable sort is deterministic.
        if inbox_raw.len() > 1 {
            inbox_raw.sort_unstable_by_key(|&(src, sq, _, _)| (src, sq));
        }
        for (src, _, payload, logical) in inbox_raw.drain(..) {
            step.deliver(&mut clock, src, (), payload, logical)
                .expect("malformed bundle: WireMessage encode/decode mismatch");
        }
        let status = step.compute(&mut clock, &mut program);

        // 2. Send.
        let send_start = clock.now();
        let sent_any = step.produced() > 0;
        for (packet, ()) in step.drain(&mut clock) {
            seq += 1;
            senders[packet.dst as usize]
                .send((rank, seq, packet.payload, packet.logical))
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
        barrier.wait();

        // 4. Drain and decide. Every thread reads the same flag value
        // because nothing writes it between the two barriers.
        inbox_raw.extend(receiver.try_iter());
        let keep_going = activity[parity].load(Ordering::SeqCst);

        // 5. Second barrier: all reads done; this round's flag may now be
        // reset (it is next written in round r + 2, two barriers away, so
        // the reset cannot race with a future set).
        barrier.wait();
        activity[parity].store(false, Ordering::SeqCst);

        if observed && rank == 0 {
            // Every rank steps every round in this engine, so all ranks
            // count as active.
            recorder.emit(
                ENGINE_RANK,
                clock.now(),
                Event::RoundEnd {
                    round: round as u32,
                    active_ranks: num_ranks,
                },
            );
        }

        round += 1;
        // Checkpoint equivalence oracle (see `EngineConfig::
        // checkpoint_every`): at every k-round edge the program is
        // round-tripped through its snapshot wire encoding in place.
        // Purely thread-local and deterministic, so the run must stay
        // bit-identical to an uninterrupted one.
        if let Some(k) = config.checkpoint_every.filter(|&k| k > 0) {
            if round.is_multiple_of(k) {
                checkpoint_roundtrip(&mut program);
            }
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
        // Everything sent over the channels was received and decoded.
        result.stats.assert_conservation();
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
