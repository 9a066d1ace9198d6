//! The bounded-exhaustive explorer drains a small configuration's choice
//! tree with every matching oracle holding, and self-sends enter the
//! schedule it enumerates. Named delivery policies are the digest sweep's
//! (`tests/sweep.rs`).

use cmg_check::explore::{explore_matching_exhaustive, schedule_fingerprint, ScriptSearch};
use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_partition::Partition;
use cmg_runtime::{
    CostModel, DeliveryPolicy, EngineConfig, Rank, RankCtx, RankProgram, SimEngine, Status,
};

/// A toy program whose ranks message *themselves* every round (plus a
/// ring neighbor, so the mailbox merge has real choices to make).
/// Self-sends are legal-but-logged: `RankCtx::self_sends` must count
/// them, and their deliveries must enter the packet schedule that the
/// exploration fingerprints.
#[derive(Clone)]
struct SelfSendLoop {
    rank: Rank,
    rounds_left: u32,
    observed_self_sends: u64,
}

impl RankProgram for SelfSendLoop {
    type Msg = u32;
    cmg_runtime::trivial_snapshot!();

    fn on_start(&mut self, ctx: &mut RankCtx<u32>) -> Status {
        ctx.send(self.rank, &0xd00d);
        ctx.send((self.rank + 1) % ctx.num_ranks(), &self.rank);
        self.observed_self_sends = ctx.self_sends();
        Status::Idle
    }

    fn on_round(&mut self, inbox: &mut Vec<(Rank, Vec<u32>)>, ctx: &mut RankCtx<u32>) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for _ in msgs {
                ctx.charge(1);
            }
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.send(self.rank, &self.rounds_left);
            ctx.send((self.rank + 1) % ctx.num_ranks(), &self.rounds_left);
        }
        self.observed_self_sends = ctx.self_sends();
        Status::Idle
    }
}

fn run_self_send(policy: DeliveryPolicy) -> (Vec<u64>, u64) {
    let programs: Vec<SelfSendLoop> = (0..4)
        .map(|rank| SelfSendLoop {
            rank,
            rounds_left: 2,
            observed_self_sends: 0,
        })
        .collect();
    let (recorder, handle) = cmg_obs::CollectingRecorder::shared();
    let cfg = EngineConfig {
        cost: CostModel::compute_only(),
        delivery: policy,
        recorder: handle,
        bundling: false,
        ..Default::default()
    };
    let result = SimEngine::new(programs, cfg).run();
    assert!(!result.hit_round_cap);
    let events = recorder.take();
    let self_recvs = events
        .iter()
        .filter(|e| matches!(e.event, cmg_obs::Event::PacketRecv { src, .. } if src == e.rank))
        .count();
    // 4 ranks × (1 on_start + 2 round) self-sends, all delivered.
    assert_eq!(self_recvs, 12, "self-send deliveries missing from schedule");
    let counts = result
        .programs
        .iter()
        .map(|p| p.observed_self_sends)
        .collect();
    (counts, schedule_fingerprint(&events))
}

#[test]
fn self_sends_are_logged_and_fingerprinted_deterministically() {
    // Fixed policies: the self-send counter is exact and the schedule
    // fingerprint is reproducible run-to-run.
    for policy in [
        DeliveryPolicy::Arrival,
        DeliveryPolicy::ReverseRank,
        DeliveryPolicy::Lifo,
    ] {
        let (counts_a, fp_a) = run_self_send(policy.clone());
        let (counts_b, fp_b) = run_self_send(policy.clone());
        assert_eq!(counts_a, vec![3, 3, 3, 3], "{policy:?}");
        assert_eq!(counts_a, counts_b, "{policy:?}");
        assert_eq!(fp_a, fp_b, "{policy:?}: fingerprint not reproducible");
    }

    // Scripted DFS: enumerating the choice tree twice must visit the
    // same schedules in the same order with identical fingerprints —
    // self-send packets are scheduled deterministically like any other.
    let enumerate = || {
        let mut fps = Vec::new();
        let mut search = ScriptSearch::new(64);
        while let Some(book) = search.next_book() {
            let (counts, fp) = run_self_send(DeliveryPolicy::Scripted(book.clone()));
            assert_eq!(counts, vec![3, 3, 3, 3]);
            fps.push(fp);
            if !search.advance(&book) {
                break;
            }
        }
        fps
    };
    let first = enumerate();
    let second = enumerate();
    assert!(!first.is_empty());
    assert_eq!(first, second, "Scripted DFS fingerprints diverged");
}

#[test]
fn bounded_exhaustive_exploration_on_small_config() {
    // 2x2 grid on 4 ranks, one vertex per rank: small enough that the
    // sleep-set-pruned choice tree drains inside the budget.
    let g = assign_weights(&grid2d(2, 2), WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, 7);
    let p = Partition::new(vec![0, 1, 2, 3], 4);
    let ex = explore_matching_exhaustive(&g, &p, 2_000);
    assert!(ex.ok(), "oracle violations:\n{}", ex.failures.join("\n"));
    assert!(ex.exhausted, "choice tree not drained within budget");
    assert!(ex.runs >= 2, "expected multiple scripted runs");
}
