//! The active-set scheduler must be indistinguishable from the dense
//! reference round loop it replaced: identical stats, virtual times,
//! round counts, traces, and event streams — under every engine
//! configuration and delivery policy — plus the scaling property that
//! motivated it (quiet rounds cost O(active ranks), independent of p).

use cmg_obs::CollectingRecorder;
use cmg_runtime::{
    DeliveryPolicy, EngineConfig, Rank, RankCtx, RankProgram, SimEngine, SimResult, Status,
};
use proptest::prelude::*;

/// A configurable messaging workload: rank `r` starts `start_tokens`
/// tokens (if `r < starters`) that hop along a pseudo-random peer list
/// for `ttl` rounds, optionally fanning out; the rank also stays
/// `Status::Active` for its first `active_rounds` rounds even without
/// mail, exercising the worklist's status-driven re-scheduling.
#[derive(Clone)]
struct RandomProgram {
    starters: u32,
    start_tokens: u32,
    ttl: u32,
    fanout: u32,
    active_rounds: u64,
    quiet_work: u64,
    received: u64,
}

impl RandomProgram {
    fn peer(&self, ctx: &RankCtx<(u32, u32)>, salt: u32) -> Rank {
        // Deterministic pseudo-random neighbor (splitmix-style hash).
        let mut x = (ctx.rank() as u64) << 32 | salt as u64;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        x ^= x >> 31;
        (x % ctx.num_ranks() as u64) as Rank
    }

    fn status(&self, ctx: &RankCtx<(u32, u32)>) -> Status {
        if ctx.round() <= self.active_rounds {
            Status::Active
        } else {
            Status::Idle
        }
    }
}

impl RankProgram for RandomProgram {
    type Msg = (u32, u32);
    cmg_runtime::trivial_snapshot!();

    fn on_start(&mut self, ctx: &mut RankCtx<(u32, u32)>) -> Status {
        if ctx.rank() < self.starters {
            for t in 0..self.start_tokens {
                let dst = self.peer(ctx, t);
                ctx.send(dst, &(self.ttl, t));
            }
        }
        ctx.charge(self.quiet_work);
        self.status(ctx)
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<(u32, u32)>)>,
        ctx: &mut RankCtx<(u32, u32)>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for (ttl, tag) in msgs {
                self.received += 1;
                ctx.charge(1);
                if ttl > 0 {
                    for f in 0..self.fanout {
                        let dst = self.peer(ctx, tag.wrapping_add(f).wrapping_mul(31));
                        ctx.send(dst, &(ttl - 1, tag.wrapping_add(f)));
                    }
                }
            }
        }
        ctx.charge(self.quiet_work);
        self.status(ctx)
    }
}

#[derive(Clone, Copy)]
struct Workload {
    p: u32,
    starters: u32,
    start_tokens: u32,
    ttl: u32,
    fanout: u32,
    active_rounds: u64,
    quiet_work: u64,
}

impl Workload {
    fn programs(&self) -> Vec<RandomProgram> {
        (0..self.p)
            .map(|_| RandomProgram {
                starters: self.starters,
                start_tokens: self.start_tokens,
                ttl: self.ttl,
                fanout: self.fanout,
                active_rounds: self.active_rounds,
                quiet_work: self.quiet_work,
                received: 0,
            })
            .collect()
    }
}

struct Observed {
    result: SimResult<RandomProgram>,
    events: Vec<cmg_obs::TimedEvent>,
}

fn run_observed(w: Workload, cfg: &EngineConfig, dense: bool) -> Observed {
    let (recorder, handle) = CollectingRecorder::shared();
    let cfg = cfg.clone().with_recorder(handle);
    let engine = SimEngine::new(w.programs(), cfg);
    let result = if dense {
        engine.run_dense_reference()
    } else {
        engine.run()
    };
    Observed {
        result,
        events: recorder.take(),
    }
}

fn assert_equivalent(w: Workload, cfg: &EngineConfig) {
    let dense = run_observed(w, cfg, true);
    let sparse = run_observed(w, cfg, false);
    assert_eq!(dense.result.stats.rounds, sparse.result.stats.rounds);
    assert_eq!(dense.result.stats.per_rank, sparse.result.stats.per_rank);
    assert_eq!(dense.result.hit_round_cap, sparse.result.hit_round_cap);
    assert_eq!(dense.result.trace, sparse.result.trace);
    for (d, s) in dense.result.programs.iter().zip(&sparse.result.programs) {
        assert_eq!(d.received, s.received);
    }
    // Full event streams — timestamps included — must match, so the
    // golden Chrome trace can never drift.
    assert_eq!(dense.events, sparse.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random workloads through random engine configs: the dense
    /// reference and the active-set scheduler agree on everything.
    #[test]
    fn scheduler_matches_dense_reference(
        p in 1u32..12,
        starters in 1u32..4,
        start_tokens in 1u32..4,
        ttl in 0u32..6,
        fanout in 1u32..3,
        active_rounds in 0u64..4,
        quiet_work in 0u64..3,
        sync_rounds in any::<bool>(),
        bundling in any::<bool>(),
        policy_sel in 0u8..5,
        policy_seed in 0u64..1_000_000,
    ) {
        let w = Workload {
            p,
            starters: starters.min(p),
            start_tokens,
            ttl,
            fanout,
            active_rounds,
            quiet_work,
        };
        // The equivalence must hold under every non-default delivery
        // policy too: both loops share the same mailbox merge point, so
        // a permuted or delayed delivery order may change what the
        // programs do, but never dense-vs-scheduled agreement.
        let delivery = match policy_sel {
            0 => DeliveryPolicy::Arrival,
            1 => DeliveryPolicy::RandomPermutation { seed: policy_seed },
            2 => DeliveryPolicy::ReverseRank,
            3 => DeliveryPolicy::Lifo,
            _ => DeliveryPolicy::DelayRank {
                src: (policy_seed % p as u64) as Rank,
                rounds: 1 + policy_seed % 3,
            },
        };
        let cfg = EngineConfig {
            delivery,
            cost: cmg_runtime::CostModel {
                alpha: 1.0,
                beta: 0.25,
                gamma: 0.5,
                send_overhead: 0.125,
            },
            bundling,
            sync_rounds,
            max_rounds: 200,
            record_trace: true,
            ..Default::default()
        };
        assert_equivalent(w, &cfg);
    }
}

/// Zero-cost sends (send_overhead = 0, bundling off) make the delivery
/// sort key collide on `(src, arrival)`; the insertion-sequence
/// tiebreak must keep ordering identical to the old stable sort.
#[test]
fn equal_arrival_times_keep_delivery_order() {
    let w = Workload {
        p: 5,
        starters: 5,
        start_tokens: 3,
        ttl: 4,
        fanout: 2,
        active_rounds: 0,
        quiet_work: 1,
    };
    // Colliding sort keys are exactly where a permuting policy has the
    // most freedom, so sweep the non-scripted policies here too.
    for delivery in [
        DeliveryPolicy::Arrival,
        DeliveryPolicy::RandomPermutation { seed: 0xC0FFEE },
        DeliveryPolicy::ReverseRank,
        DeliveryPolicy::Lifo,
        DeliveryPolicy::DelayRank { src: 2, rounds: 2 },
    ] {
        let cfg = EngineConfig {
            cost: cmg_runtime::CostModel {
                alpha: 0.0,
                beta: 0.0,
                gamma: 1.0,
                send_overhead: 0.0,
            },
            bundling: false,
            max_rounds: 100,
            record_trace: true,
            delivery,
            ..Default::default()
        };
        assert_equivalent(w, &cfg);
    }
}

/// The scaling property the scheduler exists for: a run where only two
/// ranks ever communicate does per-round work independent of p. Pinned
/// via the scheduler-occupancy counters — after the all-rank round 0,
/// every round steps exactly the one rank holding the ball.
#[test]
fn quiet_ranks_cost_nothing_per_round() {
    /// Ranks 0 and 1 bounce a counter back and forth; everyone else is
    /// born idle and never hears a thing.
    #[derive(Clone)]
    struct PingPong {
        bounces: u64,
    }

    impl RankProgram for PingPong {
        type Msg = (u32, u32);
        cmg_runtime::trivial_snapshot!();

        fn on_start(&mut self, ctx: &mut RankCtx<(u32, u32)>) -> Status {
            if ctx.rank() == 0 {
                ctx.send(1, &(40, 0));
            }
            Status::Idle
        }

        fn on_round(
            &mut self,
            inbox: &mut Vec<(Rank, Vec<(u32, u32)>)>,
            ctx: &mut RankCtx<(u32, u32)>,
        ) -> Status {
            for (_, msgs) in inbox.drain(..) {
                for (ttl, tag) in msgs {
                    self.bounces += 1;
                    ctx.charge(1);
                    if ttl > 0 {
                        ctx.send(ctx.rank() ^ 1, &(ttl - 1, tag));
                    }
                }
            }
            Status::Idle
        }
    }

    fn ping_pong_at(p: u32) -> SimResult<PingPong> {
        let programs = (0..p).map(|_| PingPong { bounces: 0 }).collect();
        SimEngine::new(programs, EngineConfig::default()).run()
    }

    let small = ping_pong_at(512);
    let big = ping_pong_at(4096);

    for (p, r) in [(512u64, &small), (4096u64, &big)] {
        let sched = &r.sched;
        assert_eq!(sched.rounds, r.stats.rounds);
        // Round 0 steps all p ranks; every later round steps exactly
        // the rank the ball landed on.
        assert_eq!(sched.worklist_max, p);
        assert_eq!(
            sched.worklist_total,
            p + (sched.rounds - 1),
            "per-round work must be O(active), p = {p}"
        );
        assert_eq!(sched.ranks_skipped_total, (sched.rounds - 1) * (p - 1));
    }
    // Everything beyond the p-wide round 0 is identical across p: same
    // rounds, same steps, same bounces, same virtual times on the pair.
    assert_eq!(small.stats.rounds, big.stats.rounds);
    assert_eq!(
        small.sched.worklist_total - 512,
        big.sched.worklist_total - 4096
    );
    let total_bounces =
        |r: &SimResult<PingPong>| -> u64 { r.programs.iter().map(|p| p.bounces).sum() };
    assert_eq!(total_bounces(&small), 41);
    assert_eq!(total_bounces(&big), 41);
    for rank in 0..2 {
        assert_eq!(
            small.stats.per_rank[rank].virtual_time, big.stats.per_rank[rank].virtual_time,
            "pair virtual times must not depend on p"
        );
    }
}
