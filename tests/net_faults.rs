//! Real fault injection against the net engine's link layer and
//! supervisor: duplicated and delayed frames must be absorbed by the
//! non-overtaking resequencer (bit-identical results), permanent drops
//! must surface as a clean diagnosed error, and a killed or wedged
//! worker must fail the run with the right typed `NetError` instead of
//! hanging. (Adversarial *graph inputs* live in `adversarial_inputs.rs`.)

use cmg_coloring::ColoringConfig;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph};
use cmg_net::{
    connect_with_backoff, run_coloring, run_matching, run_task, FaultPlan, KillSpec, NetConfig,
    NetError, NetSession, NetTask,
};
use cmg_partition::simple::block_partition;
use cmg_partition::DistGraph;
use std::time::{Duration, Instant};

fn weighted_grid() -> CsrGraph {
    assign_weights(
        &generators::grid2d(24, 24),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        7,
    )
}

fn parts(g: &CsrGraph, ranks: u32) -> Vec<DistGraph> {
    DistGraph::build_all(g, &block_partition(g.num_vertices(), ranks))
}

#[test]
fn duplicated_and_delayed_frames_leave_results_bit_identical() {
    let g = weighted_grid();
    let clean = run_matching(parts(&g, 4), &NetConfig::default()).expect("clean run");
    let faulty_cfg = NetConfig {
        fault: FaultPlan {
            seed: 0xfa417,
            drop_per_mille: 0,
            dup_per_mille: 150,
            delay_per_mille: 150,
            delay_depth: 3,
        },
        ..Default::default()
    };
    let faulty = run_matching(parts(&g, 4), &faulty_cfg).expect("faulty run terminates");
    assert_eq!(
        clean.matching, faulty.matching,
        "dup/delay faults must not change the result"
    );
    assert_eq!(clean.rounds, faulty.rounds);
    let total = &faulty.links.total;
    assert!(
        total.duplicated_by_fault > 0 && total.delayed_by_fault > 0,
        "the fault plan must actually have fired (dup={}, delay={})",
        total.duplicated_by_fault,
        total.delayed_by_fault
    );
    // A duplicate injected on a link's final frames can still be in
    // flight when the receiver snapshots its stats, so discards may
    // trail injections — but never exceed them.
    assert!(
        total.dup_discarded > 0 && total.dup_discarded <= total.duplicated_by_fault,
        "duplicates are discarded by the resequencer (discarded={}, injected={})",
        total.dup_discarded,
        total.duplicated_by_fault
    );
}

#[test]
fn coloring_survives_dup_delay_faults_bit_identically() {
    let g = weighted_grid().unweighted();
    let cfg = ColoringConfig::default();
    let clean = run_coloring(parts(&g, 4), cfg, &NetConfig::default()).expect("clean run");
    let faulty_cfg = NetConfig {
        fault: FaultPlan {
            seed: 0xc01,
            drop_per_mille: 0,
            dup_per_mille: 120,
            delay_per_mille: 120,
            delay_depth: 2,
        },
        ..Default::default()
    };
    let faulty = run_coloring(parts(&g, 4), cfg, &faulty_cfg).expect("faulty run terminates");
    assert_eq!(clean.coloring, faulty.coloring);
    assert_eq!(clean.phases, faulty.phases);
}

#[test]
fn frame_drops_fail_with_a_diagnosed_error_not_a_hang() {
    let g = weighted_grid();
    let cfg = NetConfig {
        fault: FaultPlan {
            seed: 9,
            drop_per_mille: 300,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_depth: 0,
        },
        gap_deadline: Duration::from_millis(300),
        stall_timeout: Duration::from_secs(3),
        ..Default::default()
    };
    let started = Instant::now();
    let err = run_task(parts(&g, 4), NetTask::Matching, &cfg)
        .map(|_| ())
        .expect_err("permanent frame loss must fail the run");
    assert!(
        matches!(
            err,
            NetError::FrameLoss { .. }
                | NetError::Stalled { .. }
                | NetError::WorkerFatal { .. }
                | NetError::RankDied { .. }
        ),
        "unexpected diagnosis: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "diagnosis must arrive within the deadline, took {:?}",
        started.elapsed()
    );
}

#[test]
fn sigkilled_worker_is_diagnosed_as_rank_died_within_the_deadline() {
    let g = weighted_grid();
    let cfg = NetConfig {
        kill: KillSpec::KillAtRound { rank: 1, round: 2 },
        heartbeat: Duration::from_millis(50),
        stall_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let started = Instant::now();
    let err = run_task(parts(&g, 4), NetTask::Matching, &cfg)
        .map(|_| ())
        .expect_err("a SIGKILLed rank must fail the run");
    match err {
        NetError::RankDied { rank, signal, .. } => {
            assert_eq!(rank, 1, "the killed rank is the one blamed");
            assert_eq!(signal, Some(9), "death by SIGKILL is reported");
        }
        other => panic!("expected RankDied, got: {other}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "RankDied must be diagnosed promptly, took {:?}",
        started.elapsed()
    );
}

#[test]
fn wedged_worker_is_diagnosed_as_stalled() {
    let g = weighted_grid();
    let cfg = NetConfig {
        kill: KillSpec::WedgeAtRound { rank: 2, round: 2 },
        heartbeat: Duration::from_millis(50),
        stall_timeout: Duration::from_millis(800),
        ..Default::default()
    };
    let err = run_task(parts(&g, 4), NetTask::Matching, &cfg)
        .map(|_| ())
        .expect_err("a wedged rank must fail the run");
    match err {
        NetError::Stalled { rank, .. } => assert_eq!(rank, 2, "the wedged rank is blamed"),
        other => panic!("expected Stalled, got: {other}"),
    }
}

#[test]
fn connect_backoff_is_capped_and_bounded() {
    let path = std::env::temp_dir().join(format!("cmg-net-nowhere-{}.sock", std::process::id()));
    let started = Instant::now();
    let err = connect_with_backoff(
        &path,
        Duration::from_millis(2),
        Duration::from_millis(20),
        Duration::from_millis(250),
    )
    .map(|_| ())
    .expect_err("dialing a nonexistent socket must fail");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, NetError::Connect { .. }),
        "unexpected error: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "no unbounded reconnect loop: gave up after {elapsed:?}"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint/restore. With `checkpoint_every > 0` workers snapshot their
// program and transport state at round edges and ship it home; the
// supervisor retains the last complete set and answers a worker death
// with a whole-fleet relaunch from it. The run then *completes*, and —
// because writer sequence numbers and resequencer floors ride in the
// snapshot, so gap replay is dup-discarded exactly — its results and
// engine statistics are bit-identical to an undisturbed run.
// ---------------------------------------------------------------------------

/// Jones–Plassmann runs the longest round loop of the three tasks on
/// this grid (~10 rounds), leaving room for checkpoint edges both
/// before and after the kill.
const RECOVERY_TASK: NetTask = NetTask::JonesPlassmann { seed: 11 };

#[test]
fn killed_worker_recovers_from_checkpoint_bit_identically() {
    let g = weighted_grid();
    let clean = run_task(parts(&g, 4), RECOVERY_TASK, &NetConfig::default()).expect("clean run");
    assert!(clean.rounds > 5, "kill round must fall inside the run");
    let cfg = NetConfig {
        kill: KillSpec::KillAtRound { rank: 1, round: 5 },
        checkpoint_every: 2,
        heartbeat: Duration::from_millis(50),
        ..Default::default()
    };
    let recovered = run_task(parts(&g, 4), RECOVERY_TASK, &cfg)
        .expect("a killed rank must recover from its checkpoint, not fail the run");
    assert_eq!(recovered.health.recoveries(), 1, "exactly one recovery");
    assert!(
        recovered.health.last_recovery_micros().is_some(),
        "recovery latency is recorded"
    );
    assert_eq!(
        clean.outcomes, recovered.outcomes,
        "recovered results must be bit-identical"
    );
    assert_eq!(clean.rounds, recovered.rounds, "round counts must agree");
    assert_eq!(
        clean.stats.per_rank, recovered.stats.per_rank,
        "engine statistics must survive the restart (they ride in the checkpoint)"
    );
}

/// Recovery while the links reorder and duplicate: a checkpoint edge
/// is a consistent cut only because "link FIFO + `RoundDone` after the
/// sends" makes the done wave prove bundle arrival, and the
/// resequencer is what keeps links FIFO under delay faults. A held
/// bundle that slipped past a checkpoint, or a duplicate that survived
/// the restored floors, would change the result or the counters.
#[test]
fn killed_worker_recovers_under_dup_delay_faults_bit_identically() {
    let g = weighted_grid();
    let clean = run_task(parts(&g, 4), RECOVERY_TASK, &NetConfig::default()).expect("clean run");
    let cfg = NetConfig {
        fault: FaultPlan {
            seed: 0xc0de,
            drop_per_mille: 0,
            dup_per_mille: 150,
            delay_per_mille: 150,
            delay_depth: 3,
        },
        kill: KillSpec::KillAtRound { rank: 2, round: 5 },
        checkpoint_every: 2,
        heartbeat: Duration::from_millis(50),
        ..Default::default()
    };
    let recovered = run_task(parts(&g, 4), RECOVERY_TASK, &cfg)
        .expect("a killed rank must recover on faulty links too");
    assert_eq!(recovered.health.recoveries(), 1);
    let t = &recovered.links.total;
    assert!(
        t.duplicated_by_fault > 0 && t.delayed_by_fault > 0,
        "the fault plan must actually have fired (dup={}, delay={})",
        t.duplicated_by_fault,
        t.delayed_by_fault
    );
    assert_eq!(clean.outcomes, recovered.outcomes);
    assert_eq!(clean.rounds, recovered.rounds);
    assert_eq!(clean.stats.per_rank, recovered.stats.per_rank);
}

/// Two scripted kills, recovered twice: the supervisor retires the
/// fired kill-plan entry at each relaunch and arms the next, and the
/// second recovery resumes from a *newer* checkpoint edge.
#[test]
fn double_kill_recovers_twice_bit_identically() {
    let g = weighted_grid();
    let clean = run_task(parts(&g, 4), RECOVERY_TASK, &NetConfig::default()).expect("clean run");
    assert!(
        clean.rounds > 6,
        "second kill round must fall inside the run"
    );
    let cfg = NetConfig {
        kill_plan: vec![
            KillSpec::KillAtRound { rank: 1, round: 3 },
            KillSpec::KillAtRound { rank: 3, round: 6 },
        ],
        checkpoint_every: 2,
        heartbeat: Duration::from_millis(50),
        ..Default::default()
    };
    let recovered =
        run_task(parts(&g, 4), RECOVERY_TASK, &cfg).expect("both kills must be recovered from");
    assert_eq!(recovered.health.recoveries(), 2, "two recoveries");
    assert_eq!(clean.outcomes, recovered.outcomes);
    assert_eq!(clean.rounds, recovered.rounds);
    assert_eq!(clean.stats.per_rank, recovered.stats.per_rank);
}

/// Death before any checkpoint set completes: recovery degenerates to
/// a fresh relaunch from round zero — still a completed, identical run.
#[test]
fn death_before_first_checkpoint_restarts_fresh() {
    let g = weighted_grid();
    let clean =
        run_task(parts(&g, 4), NetTask::Matching, &NetConfig::default()).expect("clean run");
    let cfg = NetConfig {
        kill: KillSpec::KillAtRound { rank: 0, round: 0 },
        checkpoint_every: 4,
        heartbeat: Duration::from_millis(50),
        ..Default::default()
    };
    let recovered = run_task(parts(&g, 4), NetTask::Matching, &cfg)
        .expect("a round-0 death restarts the run from scratch");
    assert_eq!(recovered.health.recoveries(), 1);
    assert_eq!(clean.outcomes, recovered.outcomes);
    assert_eq!(clean.stats.per_rank, recovered.stats.per_rank);
}

/// Regression: the stall watchdog must not blame a relaunched fleet.
/// During the recovery handshake `started` is cleared (suspending the
/// check), and `last_round` is reset so resumed beacons — numerically
/// no larger than the dead incarnation's — still register as progress.
#[test]
fn recovery_is_not_misdiagnosed_as_a_stall() {
    let g = weighted_grid();
    let cfg = NetConfig {
        kill: KillSpec::KillAtRound { rank: 1, round: 5 },
        checkpoint_every: 1,
        heartbeat: Duration::from_millis(25),
        stall_timeout: Duration::from_secs(1),
        ..Default::default()
    };
    let recovered = run_task(parts(&g, 4), RECOVERY_TASK, &cfg)
        .expect("a tight stall timeout must not abort a recovering run");
    assert_eq!(recovered.health.recoveries(), 1);
}

/// With checkpointing off (the default), a SIGKILLed worker still fails
/// the run with the usual typed diagnosis — recovery never engages (the
/// dedicated kill test above pins the exact error shape).
#[test]
fn checkpointing_off_leaves_death_diagnosis_unchanged() {
    let g = weighted_grid();
    let cfg = NetConfig {
        kill: KillSpec::KillAtRound { rank: 1, round: 2 },
        heartbeat: Duration::from_millis(50),
        ..Default::default()
    };
    let err = run_task(parts(&g, 4), NetTask::Matching, &cfg)
        .map(|_| ())
        .expect_err("without checkpoints, death must remain fatal");
    assert!(
        matches!(
            err,
            NetError::RankDied { .. } | NetError::WorkerFatal { .. }
        ),
        "expected the pre-recovery diagnosis, got {err}"
    );
}

// ---------------------------------------------------------------------------
// Coalesced-batch faults. Fault decisions are fixed
// per frame at enqueue time, so a batch is just the syscall envelope —
// these tests pin down that faults hitting batched frames behave exactly
// like faults hitting per-frame writes.
// ---------------------------------------------------------------------------

/// Dup/delay faults where frames ride in coalesced vectored batches:
/// results must stay bit-identical to the clean run and duplicate
/// batches must be discarded by the resequencer.
#[test]
fn coalesced_batches_survive_dup_delay_faults_bit_identically() {
    let g = weighted_grid();
    let fault = FaultPlan {
        seed: 0xba7c4,
        drop_per_mille: 0,
        dup_per_mille: 150,
        delay_per_mille: 150,
        delay_depth: 3,
    };
    let clean = run_matching(parts(&g, 4), &NetConfig::default()).expect("clean run");
    let faulty = run_matching(
        parts(&g, 4),
        &NetConfig {
            fault,
            ..Default::default()
        },
    )
    .expect("faulty run terminates");
    assert_eq!(clean.matching, faulty.matching);
    assert_eq!(clean.rounds, faulty.rounds);
    let t = &faulty.links.total;
    assert!(
        t.frames_coalesced > 0,
        "peer links must actually have batched frames"
    );
    assert!(
        t.duplicated_by_fault > 0 && t.delayed_by_fault > 0,
        "the fault plan must have fired inside batches (dup={}, delay={})",
        t.duplicated_by_fault,
        t.delayed_by_fault
    );
    assert!(
        t.dup_discarded > 0 && t.dup_discarded <= t.duplicated_by_fault,
        "dup batches are discarded bit-identically (discarded={}, injected={})",
        t.dup_discarded,
        t.duplicated_by_fault
    );
}

/// Dropping frames out of coalesced batches — including whole batches,
/// since consecutive frames of one round share one — must surface as a
/// clean diagnosed failure within the deadline, never a hang.
#[test]
fn batch_drops_are_diagnosed_not_hung_under_coalescing() {
    let g = weighted_grid();
    let started = Instant::now();
    let err = run_matching(
        parts(&g, 4),
        &NetConfig {
            fault: FaultPlan {
                seed: 0xd20b,
                drop_per_mille: 400,
                dup_per_mille: 0,
                delay_per_mille: 0,
                delay_depth: 0,
            },
            gap_deadline: Duration::from_millis(300),
            stall_timeout: Duration::from_secs(3),
            ..Default::default()
        },
    )
    .expect_err("a 40% drop rate cannot produce a clean run");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "diagnosis must beat the watchdog"
    );
    assert!(
        matches!(
            err,
            NetError::FrameLoss { .. }
                | NetError::Stalled { .. }
                | NetError::WorkerFatal { .. }
                | NetError::RankDied { .. }
        ),
        "expected a typed drop diagnosis, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Persistent-fleet sessions. A NetSession keeps one worker fleet
// resident across a sequence of tasks (the engine under cmg-serve's
// request loop); each task's results must match one-shot runs, a kill
// mid-session must recover from the task's checkpoints and leave the
// fleet serving, and an unrecoverable failure must poison the session
// with a typed error while the next submit relaunches cleanly.
// ---------------------------------------------------------------------------

#[test]
fn session_reuses_one_fleet_across_tasks_bit_identically() {
    let g = weighted_grid();
    let ccfg = ColoringConfig::default();
    let clean_m = run_matching(parts(&g, 4), &NetConfig::default()).expect("one-shot matching");
    let clean_c =
        run_coloring(parts(&g, 4), ccfg, &NetConfig::default()).expect("one-shot coloring");

    let mut session = NetSession::open(parts(&g, 4), NetConfig::default());
    let m1 = session
        .submit_matching(NetTask::Matching)
        .expect("first session task");
    let c = session
        .submit_coloring(NetTask::Coloring(ccfg))
        .expect("second session task on the same fleet");
    let m2 = session
        .submit_matching(NetTask::Matching)
        .expect("third session task on the same fleet");

    assert_eq!(m1, clean_m.matching, "session matching == one-shot run");
    assert_eq!(c, clean_c.coloring, "session coloring == one-shot run");
    assert_eq!(m2, clean_m.matching, "a repeated task stays bit-identical");
    assert!(session.is_live(), "the fleet survives all three tasks");
    session.close().expect("graceful shutdown");
    assert!(!session.is_live());
}

/// The kill-during-request case cmg-serve leans on: a worker SIGKILLed
/// mid-task on a resident fleet recovers from the task's own
/// checkpoints, the in-flight submit is answered bit-identically, and
/// the *recovered* fleet keeps serving subsequent tasks.
#[test]
fn killed_worker_mid_session_recovers_and_the_fleet_keeps_serving() {
    let g = weighted_grid();
    let clean = run_task(parts(&g, 4), RECOVERY_TASK, &NetConfig::default()).expect("clean run");
    assert!(clean.rounds > 5, "kill round must fall inside the run");
    let clean_m =
        run_matching(parts(&g, 4), &NetConfig::default()).expect("clean one-shot matching");

    let mut session = NetSession::open(
        parts(&g, 4),
        NetConfig {
            kill: KillSpec::KillAtRound { rank: 1, round: 5 },
            checkpoint_every: 2,
            heartbeat: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let recovered = session
        .submit(RECOVERY_TASK)
        .expect("the in-flight request must be re-answered after recovery");
    assert_eq!(recovered.health.recoveries(), 1, "exactly one recovery");
    assert_eq!(
        clean.outcomes, recovered.outcomes,
        "the recovered answer must be bit-identical to an undisturbed run"
    );
    assert!(session.is_live(), "recovery leaves the fleet resident");

    // The fired kill retired with the fleet relaunch; the next task
    // runs on the recovered fleet and must still be exact.
    let m = session
        .submit_matching(NetTask::Matching)
        .expect("the recovered fleet keeps serving");
    assert_eq!(m, clean_m.matching);
    session.close().expect("graceful shutdown");
}

/// Without checkpoints a mid-session death is unrecoverable: the
/// submit fails with the usual typed diagnosis, the session drops the
/// poisoned fleet, and the next submit relaunches from scratch.
#[test]
fn unrecoverable_session_failure_is_typed_and_the_next_submit_relaunches() {
    let g = weighted_grid();
    let clean_m =
        run_matching(parts(&g, 4), &NetConfig::default()).expect("clean one-shot matching");
    let mut session = NetSession::open(
        parts(&g, 4),
        NetConfig {
            kill: KillSpec::KillAtRound { rank: 2, round: 2 },
            heartbeat: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let err = session
        .submit(NetTask::Matching)
        .map(|_| ())
        .expect_err("without checkpoints, death must fail the request");
    assert!(
        matches!(
            err,
            NetError::RankDied { .. } | NetError::WorkerFatal { .. }
        ),
        "expected a typed death diagnosis, got {err:?}"
    );
    assert!(!session.is_live(), "the failed fleet is dropped");

    session.config_mut().kill = KillSpec::None;
    let m = session
        .submit_matching(NetTask::Matching)
        .expect("the next submit relaunches a fresh fleet");
    assert_eq!(m, clean_m.matching);
    session.close().expect("graceful shutdown");
}

// ---------------------------------------------------------------------------
// Property: coalescing choices are invisible on the wire. Whatever the
// flush threshold and whatever explicit flush points occur, the byte
// stream is identical to the per-frame path and the receiver delivers
// the same frames in the same order.
// ---------------------------------------------------------------------------

mod coalescing_order {
    use bytes::Bytes;
    use cmg_net::{Ctrl, Frame, FrameAssembler, LinkWriter, Resequencer};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::io::Write;
    use std::rc::Rc;

    /// A `Write` sink the test can read back while the writer owns it.
    #[derive(Clone, Default)]
    struct SharedSink(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn data_frame(i: usize, len: usize) -> Frame {
        if len == 0 {
            Frame::bare(Ctrl::RoundDone {
                round: i as u64,
                src: 0,
                active: u8::from(i.is_multiple_of(2)),
            })
        } else {
            Frame::with_payload(
                Ctrl::RoundBundle {
                    round: i as u64,
                    src: 0,
                    npackets: 0,
                    sent_micros: 0,
                },
                Bytes::from(vec![(i % 251) as u8; len]),
            )
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn coalescing_never_changes_bytes_or_delivery_order(
            sizes in proptest::collection::vec((0usize..200, any::<bool>()), 1..40),
            threshold in 1usize..2048,
            chunk in 1usize..97,
        ) {
            // Reference: the per-frame path (coalescing off).
            let plain_sink = SharedSink::default();
            let mut plain = LinkWriter::new(plain_sink.clone());
            // Under test: batched writes with arbitrary threshold and
            // arbitrary explicit flush points between frames.
            let batch_sink = SharedSink::default();
            let mut batched = LinkWriter::new(batch_sink.clone());
            batched.set_coalescing(threshold);

            for (i, &(len, flush_here)) in sizes.iter().enumerate() {
                let f = data_frame(i, len);
                plain.send(&f).unwrap();
                batched.send(&f).unwrap();
                if flush_here {
                    batched.flush_held().unwrap();
                }
            }
            plain.flush_held().unwrap();
            batched.flush_held().unwrap();

            let expected = plain_sink.0.borrow().clone();
            let got = batch_sink.0.borrow().clone();
            prop_assert_eq!(&got, &expected, "byte streams diverged");
            prop_assert_eq!(batched.stats().frames_sent, sizes.len() as u64);
            // Fewer (or equal) syscalls, never more.
            prop_assert!(batched.stats().syscalls <= plain.stats().syscalls);

            // Receive side: reassemble under arbitrary kernel chunking
            // and resequence; delivery order must be send order.
            let mut asm = FrameAssembler::new();
            let mut reseq = Resequencer::default();
            let mut delivered = Vec::new();
            for piece in got.chunks(chunk) {
                asm.extend(piece);
                while let Some((seq, frame)) = asm.next_frame().unwrap() {
                    let mut ready = Vec::new();
                    reseq.accept(seq, frame, &mut ready);
                    delivered.extend(ready);
                }
            }
            prop_assert_eq!(delivered.len(), sizes.len());
            for (i, (frame, &(len, _))) in delivered.iter().zip(sizes.iter()).enumerate() {
                match frame.ctrl {
                    Ctrl::RoundDone { round, .. } | Ctrl::RoundBundle { round, .. } => {
                        prop_assert_eq!(round, i as u64, "frame {} out of order", i);
                    }
                    ref other => prop_assert!(false, "unexpected ctrl {:?}", other),
                }
                prop_assert_eq!(frame.payload.len(), if len == 0 { 0 } else { len });
            }
        }
    }
}
