//! Deterministic discrete-event simulation engine.
//!
//! Runs any number of ranks on one host, advancing a per-rank virtual clock
//! according to the [`crate::CostModel`]. This is how the repository
//! reproduces the paper's 16,384-processor Blue Gene/P experiments: the
//! algorithms execute for real (producing a real matching / coloring), only
//! *time* is simulated.
//!
//! Timing model, per round and rank:
//! 1. delivery — the rank's clock jumps to the latest arrival among the
//!    packets it consumes (asynchronous wait-for-data);
//! 2. compute — the clock advances by γ · (charged work);
//! 3. send — each produced packet adds the sender overhead to the clock and
//!    is timestamped to arrive at `clock + α + β·bytes`;
//! 4. optionally (sync mode) a barrier max-synchronizes all clocks and adds
//!    `α·⌈log₂ p⌉`.
//!
//! Steps 1–3 are the [`RankStep`] every engine runs, here on a
//! [`VirtualClock`]; this module owns what is the simulation's alone —
//! mailbox order, the delivery policy, routing, and step 4.
//!
//! # Scheduling
//!
//! The round loop is event-driven: the engine keeps an explicit **worklist**
//! of runnable ranks (status [`Status::Active`] or a non-empty mailbox) and
//! steps only those, so a quiet round costs O(active), not O(p). Produced
//! packets are routed straight onto the next round's worklist (deduplicated
//! by a round-stamped mark table, then rank-sorted so routing order — and
//! therefore every mailbox, virtual time, and trace byte — matches the
//! dense 0..p sweep). Round aggregates (stepped ranks, packets, bytes,
//! max virtual time) are maintained incrementally instead of re-folding all
//! p slots. Ranks step one after another on the calling thread. Results
//! are bit-identical to the [`SimEngine::run_dense_reference`] baseline:
//! the digest sweep (`tests/sweep.rs`) runs every `dense` cell against its
//! scheduled twin, token workloads included.

use crate::bundle::Parcel;
use crate::delivery::{payload_fingerprint, DeliveryKey, DeliveryPolicy};
use crate::message::WireMessage;
use crate::program::{Rank, RankCtx, RankProgram, Status};
use crate::snapshot::{encode_snapshot, restore_encoded};
use crate::stats::{RankStats, RunStats};
use crate::step::{RankStep, StepClock, VirtualClock};
use crate::{CostModel, EngineConfig};
use cmg_obs::{Event, PhaseName, SchedStats, ENGINE_RANK};

/// A parcel in flight, with its computed arrival time.
struct InFlight<M> {
    src: Rank,
    arrival: f64,
    msgs: Vec<M>,
    /// The parcel's encoded size.
    bytes: usize,
    /// Mailbox insertion index: makes the delivery sort key
    /// `(src, arrival, seq)` a total order, so an unstable sort
    /// reproduces the stable `(src, arrival)` sort exactly.
    seq: u32,
}

impl<M> InFlight<M> {
    /// Puts a routed parcel from `src` into a mailbox as its `seq`-th entry.
    fn new(src: Rank, arrival: f64, parcel: Parcel<M>, seq: u32) -> Self {
        InFlight {
            src,
            arrival,
            msgs: parcel.msgs,
            bytes: parcel.bytes,
            seq,
        }
    }

    /// The canonical delivery order: by source, then arrival, then
    /// mailbox insertion.
    fn delivery_order(a: &Self, b: &Self) -> std::cmp::Ordering {
        (a.src.cmp(&b.src))
            .then(a.arrival.total_cmp(&b.arrival))
            .then(a.seq.cmp(&b.seq))
    }
}

/// Per-rank simulation state as [`SimEngine::new`] builds it and the
/// dense reference steps it: context and counters as plain fields, no
/// [`RankStep`] (the reference shares no step code with what it checks).
struct Slot<P: RankProgram> {
    program: P,
    ctx: RankCtx<P::Msg>,
    status: Status,
    vtime: f64,
    stats: RankStats,
    mailbox: Vec<InFlight<P::Msg>>,
    /// Packets a delaying [`DeliveryPolicy`] is holding back, paired with
    /// the round at which they become deliverable. Always empty under the
    /// default policy.
    withheld: Vec<(u64, InFlight<P::Msg>)>,
    /// Parcels produced this round with their arrival timestamps, drained
    /// by the (serial, deterministic) routing pass.
    produced: Vec<(Parcel<P::Msg>, f64)>,
}

/// Per-rank state of the scheduled loop: a [`Slot`] whose context and
/// counters have moved into the shared [`RankStep`].
struct Sched<P: RankProgram> {
    program: P,
    step: RankStep<P>,
    status: Status,
    vtime: f64,
    mailbox: Vec<InFlight<P::Msg>>,
    withheld: Vec<(u64, InFlight<P::Msg>)>,
    produced: Vec<(Parcel<P::Msg>, f64)>,
}

impl<P: RankProgram> From<Slot<P>> for Sched<P> {
    fn from(slot: Slot<P>) -> Self {
        Sched {
            program: slot.program,
            step: RankStep::new(slot.ctx),
            status: slot.status,
            vtime: slot.vtime,
            mailbox: slot.mailbox,
            withheld: slot.withheld,
            produced: slot.produced,
        }
    }
}

/// Aggregate counters of one simulation round (recorded when
/// `EngineConfig::record_trace` is set).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTrace {
    /// Round number (0 = the `on_start` round).
    pub round: u64,
    /// Ranks that actually stepped.
    pub ranks_stepped: u64,
    /// Wire packets produced this round.
    pub packets: u64,
    /// Logical messages produced this round.
    pub messages: u64,
    /// Payload bytes produced this round.
    pub bytes: u64,
    /// Maximum per-rank virtual time after the round.
    pub max_virtual_time: f64,
}

/// Result of a simulated run: the final rank programs (holding the computed
/// matching/coloring) plus execution statistics.
pub struct SimResult<P> {
    /// Final per-rank program state.
    pub programs: Vec<P>,
    /// Execution statistics (virtual times, message counts, …).
    pub stats: RunStats,
    /// `true` if the run stopped because it hit `max_rounds` instead of
    /// quiescing.
    pub hit_round_cap: bool,
    /// Per-round trace (empty unless `EngineConfig::record_trace`).
    pub trace: Vec<RoundTrace>,
    /// Scheduler-occupancy counters: worklist sizes and skipped ranks
    /// (all zero from the dense reference path).
    pub sched: SchedStats,
}

/// The simulation engine. See the module docs.
pub struct SimEngine<P: RankProgram> {
    slots: Vec<Slot<P>>,
    config: EngineConfig,
}

/// Applies a non-default [`DeliveryPolicy`] to a rank's incoming mail:
/// withholds newly delayed packets, re-injects ones that have become due,
/// then permutes delivery order. Leaves `mailbox` in final delivery order
/// (the caller must not re-sort it). Shared verbatim by the scheduled
/// loop and the dense reference, so the two stay bit-identical under
/// every policy.
fn apply_delivery_policy<M: WireMessage>(
    policy: &DeliveryPolicy,
    rank: Rank,
    round: u64,
    mailbox: &mut Vec<InFlight<M>>,
    withheld: &mut Vec<(u64, InFlight<M>)>,
) {
    // Withhold before re-injection so a released packet is never
    // re-delayed (which would starve it forever).
    let mut i = 0;
    while i < mailbox.len() {
        let hold = policy.hold_rounds(rank, round, mailbox[i].src);
        if hold > 0 {
            let pkt = mailbox.remove(i);
            withheld.push((round + hold, pkt));
        } else {
            i += 1;
        }
    }
    // Release due packets in withhold order (per-source FIFO: a source's
    // traffic is delayed uniformly, so hold order is send order).
    let mut i = 0;
    while i < withheld.len() {
        if withheld[i].0 <= round {
            let (_, pkt) = withheld.remove(i);
            mailbox.push(pkt);
        } else {
            i += 1;
        }
    }
    if mailbox.len() <= 1 {
        return;
    }
    // Canonical baseline order. Merged withheld + fresh packets may carry
    // colliding `seq` values (each round restarts the counter), so a
    // stable sort resolves ties by the deterministic merge order above.
    mailbox.sort_by(InFlight::delivery_order);
    let hash_payloads = policy.wants_payload_hash();
    // A payload hash is over the parcel's encoding (the back-to-back
    // format `encode_snapshot` writes), staged in one scratch buffer.
    let mut encoded = Vec::new();
    let keys: Vec<DeliveryKey> = mailbox
        .iter()
        .map(|m| DeliveryKey {
            src: m.src,
            arrival: m.arrival,
            seq: m.seq,
            bytes: m.bytes as u64,
            payload_hash: if hash_payloads {
                encoded.clear();
                encode_snapshot(&m.msgs, &mut encoded);
                payload_fingerprint(&encoded)
            } else {
                0
            },
        })
        .collect();
    if let Some(perm) = policy.permutation(rank, round, &keys) {
        debug_assert!(
            crate::delivery::preserves_source_fifo(&keys, &perm),
            "delivery policy broke per-source FIFO (MPI non-overtaking): {perm:?}"
        );
        let mut staged: Vec<Option<InFlight<M>>> = mailbox.drain(..).map(Some).collect();
        for idx in perm {
            if let Some(pkt) = staged.get_mut(idx).and_then(Option::take) {
                mailbox.push(pkt);
            }
        }
        // A malformed permutation (release build, asserts off) must not
        // lose packets: deliver any leftovers in canonical order.
        for pkt in staged.into_iter().flatten() {
            mailbox.push(pkt);
        }
    }
}

/// Steps one rank: order its mailbox, run the shared [`RankStep`] on a
/// virtual clock, keep the produced parcels for routing.
///
/// `floor` is the synchronized-clock lower bound (the previous round's
/// barrier time under `sync_rounds`, 0 otherwise): a slot that skipped
/// rounds while the barrier advanced catches its clock up lazily here.
fn step_slot<P: RankProgram>(
    slot: &mut Sched<P>,
    rank: Rank,
    cost: CostModel,
    policy: &DeliveryPolicy,
    round: u64,
    floor: f64,
) {
    let mut clock = VirtualClock::new(slot.vtime.max(floor), cost);
    if !policy.is_default() {
        if !slot.mailbox.is_empty() || !slot.withheld.is_empty() {
            apply_delivery_policy(policy, rank, round, &mut slot.mailbox, &mut slot.withheld);
        }
    } else if slot.mailbox.len() > 1 {
        // 0/1-packet mailboxes (the common case on interior-heavy
        // rounds) skip the sort; larger ones use an unstable sort on
        // the total (src, arrival, seq) key — see [`InFlight::seq`].
        slot.mailbox.sort_unstable_by(InFlight::delivery_order);
    }
    for m in slot.mailbox.drain(..) {
        slot.step
            .deliver(&mut clock, m.src, m.arrival, m.msgs, m.bytes);
    }
    slot.status = slot.step.compute(&mut clock, &mut slot.program);
    let send_start = clock.now();
    debug_assert!(
        slot.produced.is_empty(),
        "unrouted packets from a prior round"
    );
    slot.produced.extend(slot.step.drain(&mut clock));
    if !slot.produced.is_empty() {
        slot.step.span(&clock, PhaseName::Send, send_start);
    }
    slot.vtime = clock.now();
}

/// Checkpoint equivalence oracle: round-trips a program through
/// `snapshot → encode → decode → restore` in place. Called at every
/// `checkpoint_every` round edge; since the run must stay bit-identical
/// to an uninterrupted one, any algorithm state missing from the
/// snapshot (or mangled by its codec) surfaces as a test divergence
/// instead of a production deadlock.
#[expect(clippy::expect_used, reason = "oracle: a lossy snapshot stops the run")]
pub(crate) fn checkpoint_roundtrip<P: RankProgram>(program: &mut P) {
    let mut bytes = Vec::new();
    encode_snapshot(&program.snapshot(), &mut bytes);
    *program = restore_encoded(program.meta(), &bytes)
        .expect("snapshot did not round-trip through its wire encoding");
}

impl<P: RankProgram> SimEngine<P> {
    /// Creates an engine over one program per rank (rank = index).
    pub fn new(programs: Vec<P>, config: EngineConfig) -> Self {
        let p = programs.len() as Rank;
        let slots = programs
            .into_iter()
            .enumerate()
            .map(|(r, program)| Slot {
                program,
                ctx: RankCtx::new(r as Rank, p, config.bundling, config.recorder.clone()),
                status: Status::Active,
                vtime: 0.0,
                stats: RankStats::default(),
                mailbox: Vec::new(),
                withheld: Vec::new(),
                produced: Vec::new(),
            })
            .collect();
        SimEngine { slots, config }
    }

    /// Runs to quiescence (or the round cap) and returns the result: the
    /// active-set round loop (see the module docs).
    pub fn run(self) -> SimResult<P> {
        let mut slots: Vec<Sched<P>> = self.slots.into_iter().map(Sched::from).collect();
        let p = slots.len();
        let mut rounds: u64 = 0;
        let mut hit_round_cap = false;
        let mut trace: Vec<RoundTrace> = Vec::new();
        let mut sched = SchedStats::default();

        let recorder = self.config.recorder.clone();
        let cost = self.config.cost;
        let policy = self.config.delivery.clone();

        // The active set: every rank with status `Active` or a non-empty
        // mailbox, always sorted ascending (routing order determinism).
        // Round 0 steps everyone.
        let mut worklist: Vec<Rank> = (0..p as Rank).collect();
        let mut next_worklist: Vec<Rank> = Vec::new();
        // Round-stamped membership marks for O(1) worklist dedup.
        let mut enqueued: Vec<u64> = vec![0; p];
        // Incrementally maintained max over all per-rank virtual times
        // (exact: vtime is monotone per rank, so the max over stepped
        // ranks folded into the previous max equals the full fold).
        let mut max_vtime: f64 = 0.0;
        // Synchronized-clock lower bound under `sync_rounds`.
        let mut floor: f64 = 0.0;
        // Routing scratch, swapped with each slot's `produced` so both
        // allocations survive across rounds.
        let mut produced_scratch: Vec<(Parcel<P::Msg>, f64)> = Vec::new();

        if p > 0 {
            loop {
                let first = rounds == 0;
                let k = self.config.checkpoint_every;
                if k > 0 && !first && rounds.is_multiple_of(k) {
                    for slot in &mut slots {
                        checkpoint_roundtrip(&mut slot.program);
                    }
                }
                recorder.emit(ENGINE_RANK, max_vtime, || Event::RoundStart {
                    round: rounds as u32,
                });

                sched.rounds += 1;
                sched.worklist_total += worklist.len() as u64;
                sched.worklist_max = sched.worklist_max.max(worklist.len() as u64);
                sched.ranks_skipped_total += (p - worklist.len()) as u64;
                for &r in &worklist {
                    step_slot(&mut slots[r as usize], r, cost, &policy, rounds, floor);
                }
                let stepped = worklist.len() as u64;
                for &r in &worklist {
                    let v = slots[r as usize].vtime;
                    if v > max_vtime {
                        max_vtime = v;
                    }
                }

                // Route produced packets into destination mailboxes and
                // onto the next worklist. Worklist order is ascending, so
                // mailbox push order matches the dense 0..p sweep.
                // Recycled scratch, no allocation.
                let stamp = rounds + 1;
                let (mut pkts, mut msgs, mut bytes) = (0u64, 0u64, 0u64);
                debug_assert!(next_worklist.is_empty());
                for &r in &worklist {
                    let src_slot = &mut slots[r as usize];
                    // A rank stays runnable while it is `Active` or a
                    // delaying policy still withholds mail for it.
                    if (src_slot.status == Status::Active || !src_slot.withheld.is_empty())
                        && enqueued[r as usize] != stamp
                    {
                        enqueued[r as usize] = stamp;
                        next_worklist.push(r);
                    }
                    if src_slot.produced.is_empty() {
                        continue;
                    }
                    std::mem::swap(&mut produced_scratch, &mut src_slot.produced);
                    for (parcel, arrival) in produced_scratch.drain(..) {
                        pkts += 1;
                        msgs += parcel.msgs.len() as u64;
                        bytes += parcel.bytes as u64;
                        let dst = parcel.dst as usize;
                        if enqueued[dst] != stamp {
                            enqueued[dst] = stamp;
                            next_worklist.push(parcel.dst);
                        }
                        let mailbox = &mut slots[dst].mailbox;
                        let seq = mailbox.len() as u32;
                        mailbox.push(InFlight::new(r, arrival, parcel, seq));
                    }
                    std::mem::swap(&mut produced_scratch, &mut slots[r as usize].produced);
                }

                if self.config.record_trace {
                    trace.push(RoundTrace {
                        round: rounds,
                        ranks_stepped: stepped,
                        packets: pkts,
                        messages: msgs,
                        bytes,
                        max_virtual_time: max_vtime,
                    });
                }
                rounds += 1;

                if self.config.sync_rounds {
                    floor = max_vtime + self.config.cost.barrier_time(p);
                    max_vtime = floor;
                }

                recorder.emit(ENGINE_RANK, max_vtime, || Event::RoundEnd {
                    round: rounds as u32 - 1,
                    active_ranks: stepped as u32,
                });

                // Double-buffer swap; sort restores ascending order.
                std::mem::swap(&mut worklist, &mut next_worklist);
                next_worklist.clear();
                worklist.sort_unstable();

                // Empty worklist ⟺ all ranks idle and nothing in flight.
                if worklist.is_empty() {
                    break;
                }
                if rounds >= self.config.max_rounds {
                    hit_round_cap = true;
                    break;
                }
            }
        }

        let mut per_rank = Vec::with_capacity(p);
        let mut programs = Vec::with_capacity(p);
        for s in slots {
            let mut stats = s.step.into_stats();
            // Ranks that skipped the last rounds catch up to the final
            // barrier time here (no-op when `sync_rounds` is off).
            stats.virtual_time = s.vtime.max(floor);
            per_rank.push(stats);
            programs.push(s.program);
        }
        let stats = RunStats { per_rank, rounds };
        // Debug builds verify send/receive conservation on every clean
        // run; a run cut off by the round cap legitimately has packets
        // still in flight.
        #[cfg(debug_assertions)]
        if !hit_round_cap {
            stats.assert_conservation();
        }
        SimResult {
            programs,
            stats,
            hit_round_cap,
            trace,
            sched,
        }
    }

    /// The pre-scheduler dense round loop, kept verbatim as the reference
    /// implementation: every round folds over all `p` slots and steps each
    /// in rank order. The digest sweep's `dense` cells (`tests/sweep.rs`)
    /// assert [`SimEngine::run`] reproduces its results bit-for-bit. It writes
    /// its own deliver → compute → send body instead of driving a
    /// [`RankStep`] — a reference that called the code under test would
    /// check nothing. Not part of the supported API.
    #[doc(hidden)]
    pub fn run_dense_reference(mut self) -> SimResult<P> {
        let p = self.slots.len();
        let mut rounds: u64 = 0;
        let mut hit_round_cap = false;
        let mut trace: Vec<RoundTrace> = Vec::new();

        let recorder = self.config.recorder.clone();
        if p > 0 {
            loop {
                let first = rounds == 0;
                let k = self.config.checkpoint_every;
                if k > 0 && !first && rounds.is_multiple_of(k) {
                    for slot in &mut self.slots {
                        checkpoint_roundtrip(&mut slot.program);
                    }
                }
                let active_before: u64 = if recorder.enabled() {
                    let t = self.slots.iter().map(|s| s.vtime).fold(0.0, f64::max);
                    recorder.emit(ENGINE_RANK, t, || Event::RoundStart {
                        round: rounds as u32,
                    });
                    self.slots.iter().map(|s| s.stats.rounds_active).sum()
                } else {
                    0
                };
                let before: (u64, u64, u64, u64) = if self.config.record_trace {
                    self.slots.iter().fold((0, 0, 0, 0), |acc, s| {
                        (
                            acc.0 + s.stats.rounds_active,
                            acc.1 + s.stats.packets_sent,
                            acc.2 + s.stats.messages_sent,
                            acc.3 + s.stats.bytes_sent,
                        )
                    })
                } else {
                    (0, 0, 0, 0)
                };
                self.dense_step_all(rounds, first);
                if self.config.record_trace {
                    let after = self.slots.iter().fold((0, 0, 0, 0), |acc, s| {
                        (
                            acc.0 + s.stats.rounds_active,
                            acc.1 + s.stats.packets_sent,
                            acc.2 + s.stats.messages_sent,
                            acc.3 + s.stats.bytes_sent,
                        )
                    });
                    trace.push(RoundTrace {
                        round: rounds,
                        ranks_stepped: after.0 - before.0,
                        packets: after.1 - before.1,
                        messages: after.2 - before.2,
                        bytes: after.3 - before.3,
                        max_virtual_time: self.slots.iter().map(|s| s.vtime).fold(0.0, f64::max),
                    });
                }
                rounds += 1;

                if self.config.sync_rounds {
                    let tmax = self.slots.iter().map(|s| s.vtime).fold(0.0, f64::max)
                        + self.config.cost.barrier_time(p);
                    for s in &mut self.slots {
                        s.vtime = tmax;
                    }
                }

                // Route produced packets into destination mailboxes
                // (rank-ordered: deterministic). Withheld packets count
                // as in flight: a delaying policy must not fake quiescence.
                let mut any_in_flight = false;
                for r in 0..p {
                    any_in_flight |= !self.slots[r].withheld.is_empty();
                    let produced = std::mem::take(&mut self.slots[r].produced);
                    for (parcel, arrival) in produced {
                        any_in_flight = true;
                        let mailbox = &mut self.slots[parcel.dst as usize].mailbox;
                        let seq = mailbox.len() as u32;
                        mailbox.push(InFlight::new(r as Rank, arrival, parcel, seq));
                    }
                }

                if recorder.enabled() {
                    let stepped: u64 = self
                        .slots
                        .iter()
                        .map(|s| s.stats.rounds_active)
                        .sum::<u64>()
                        - active_before;
                    let t = self.slots.iter().map(|s| s.vtime).fold(0.0, f64::max);
                    recorder.emit(ENGINE_RANK, t, || Event::RoundEnd {
                        round: rounds as u32 - 1,
                        active_ranks: stepped as u32,
                    });
                }

                let all_idle = self.slots.iter().all(|s| s.status == Status::Idle);
                if all_idle && !any_in_flight {
                    break;
                }
                if rounds >= self.config.max_rounds {
                    hit_round_cap = true;
                    break;
                }
            }
        }

        let mut per_rank = Vec::with_capacity(p);
        let mut programs = Vec::with_capacity(p);
        for mut s in self.slots {
            s.stats.virtual_time = s.vtime;
            per_rank.push(s.stats);
            programs.push(s.program);
        }
        let stats = RunStats { per_rank, rounds };
        #[cfg(debug_assertions)]
        if !hit_round_cap {
            stats.assert_conservation();
        }
        SimResult {
            programs,
            stats,
            hit_round_cap,
            trace,
            sched: SchedStats::default(),
        }
    }

    /// Dense-reference step: scans every rank, skipping the quiescent
    /// ones one by one (the O(p)-per-round pattern the scheduler
    /// replaces).
    fn dense_step_all(&mut self, round: u64, first: bool) {
        let cost = self.config.cost;
        let recorder = self.config.recorder.clone();
        let policy = self.config.delivery.clone();
        let step_one = move |slot: &mut Slot<P>| {
            if !first
                && slot.status == Status::Idle
                && slot.mailbox.is_empty()
                && slot.withheld.is_empty()
            {
                return;
            }
            let rank = slot.ctx.rank();
            let default_policy = policy.is_default();
            if !default_policy && (!slot.mailbox.is_empty() || !slot.withheld.is_empty()) {
                apply_delivery_policy(&policy, rank, round, &mut slot.mailbox, &mut slot.withheld);
            }
            // Deliver: jump the clock to the latest consumed arrival.
            let delivery_start = slot.vtime;
            let mut inbox: Vec<(Rank, Vec<P::Msg>)> = Vec::new();
            let had_mail = !slot.mailbox.is_empty();
            if had_mail {
                let mut mail = std::mem::take(&mut slot.mailbox);
                if default_policy {
                    mail.sort_by(|a, b| a.src.cmp(&b.src).then(a.arrival.total_cmp(&b.arrival)));
                }
                for m in &mail {
                    slot.vtime = slot.vtime.max(m.arrival);
                }
                for m in mail {
                    let logical = m.msgs.len() as u32;
                    slot.stats.packets_received += 1;
                    slot.stats.bytes_received += m.bytes as u64;
                    slot.stats.messages_received += u64::from(logical);
                    recorder.emit(rank, m.arrival, || Event::PacketRecv {
                        src: m.src,
                        bytes: m.bytes as u64,
                        logical,
                    });
                    match inbox.last_mut() {
                        Some((src, list)) if *src == m.src => list.extend(m.msgs),
                        _ => inbox.push((m.src, m.msgs)),
                    }
                }
                recorder.emit(rank, slot.vtime, || Event::Phase {
                    name: PhaseName::Delivery,
                    start: delivery_start,
                    dur: slot.vtime - delivery_start,
                });
            }
            // Compute.
            let compute_start = slot.vtime;
            slot.ctx.set_now(compute_start);
            slot.status = if first {
                slot.program.on_start(&mut slot.ctx)
            } else {
                slot.program.on_round(&mut inbox, &mut slot.ctx)
            };
            let (work, parcels) = slot.ctx.end_round();
            slot.stats.rounds_active += 1;
            slot.stats.work += work;
            slot.vtime += cost.compute_time(work);
            recorder.emit(rank, slot.vtime, || Event::Phase {
                name: PhaseName::Compute,
                start: compute_start,
                dur: slot.vtime - compute_start,
            });
            // Send: overhead advances the sender; transfer delays arrival.
            let send_start = slot.vtime;
            slot.produced = parcels
                .into_iter()
                .map(|parcel| {
                    slot.stats.packets_sent += 1;
                    slot.stats.messages_sent += parcel.msgs.len() as u64;
                    slot.stats.bytes_sent += parcel.bytes as u64;
                    slot.vtime += cost.send_overhead;
                    recorder.emit(rank, slot.vtime, || Event::PacketSent {
                        dst: parcel.dst,
                        bytes: parcel.bytes as u64,
                        logical: parcel.msgs.len() as u32,
                    });
                    let arrival = slot.vtime + cost.transfer_time(parcel.bytes);
                    (parcel, arrival)
                })
                .collect();
            if !slot.produced.is_empty() {
                recorder.emit(rank, slot.vtime, || Event::Phase {
                    name: PhaseName::Send,
                    start: send_start,
                    dur: slot.vtime - send_start,
                });
            }
        };

        for slot in &mut self.slots {
            step_one(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank 0 sends `hops` tokens around the ring one at a time; every
    /// other rank forwards. Terminates when the token has moved `hops`
    /// times.
    #[derive(Clone)]
    struct RingToken {
        hops_left: u32,
        forwarded: u64,
    }

    impl RankProgram for RingToken {
        type Msg = u32;
        crate::trivial_snapshot!();

        fn on_start(&mut self, ctx: &mut RankCtx<u32>) -> Status {
            if ctx.rank() == 0 && self.hops_left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                ctx.send(next, &(self.hops_left - 1));
            }
            Status::Idle
        }

        fn on_round(
            &mut self,
            inbox: &mut Vec<(Rank, Vec<u32>)>,
            ctx: &mut RankCtx<u32>,
        ) -> Status {
            for (_, msgs) in inbox.drain(..) {
                for hops in msgs {
                    self.forwarded += 1;
                    ctx.charge(1);
                    if hops > 0 {
                        let next = (ctx.rank() + 1) % ctx.num_ranks();
                        ctx.send(next, &(hops - 1));
                    }
                }
            }
            Status::Idle
        }
    }

    fn free_config() -> EngineConfig {
        EngineConfig {
            cost: crate::CostModel::compute_only(),
            ..Default::default()
        }
    }

    #[test]
    fn ring_token_terminates_and_counts() {
        let p = 4;
        let programs = (0..p)
            .map(|_| RingToken {
                hops_left: 10,
                forwarded: 0,
            })
            .collect();
        let result = SimEngine::new(programs, free_config()).run();
        assert!(!result.hit_round_cap);
        let total: u64 = result.programs.iter().map(|r| r.forwarded).sum();
        assert_eq!(total, 10);
        assert_eq!(result.stats.total_messages(), 10);
        assert_eq!(result.stats.total_work(), 10);
        // Every packet injected into a mailbox was delivered.
        result.stats.assert_conservation();
    }

    #[test]
    fn quiescent_program_stops_immediately() {
        #[derive(Clone)]
        struct Nop;
        impl RankProgram for Nop {
            type Msg = u32;
            crate::trivial_snapshot!();
            fn on_start(&mut self, _: &mut RankCtx<u32>) -> Status {
                Status::Idle
            }
            fn on_round(&mut self, _: &mut Vec<(Rank, Vec<u32>)>, _: &mut RankCtx<u32>) -> Status {
                panic!("must not be called");
            }
        }
        let result = SimEngine::new(vec![Nop, Nop], free_config()).run();
        assert_eq!(result.stats.rounds, 1);
    }

    #[test]
    fn round_cap_trips_on_livelock() {
        /// Sends itself a message forever.
        #[derive(Clone)]
        struct Livelock;
        impl RankProgram for Livelock {
            type Msg = u32;
            crate::trivial_snapshot!();
            fn on_start(&mut self, ctx: &mut RankCtx<u32>) -> Status {
                ctx.send(ctx.rank(), &0);
                Status::Idle
            }
            fn on_round(
                &mut self,
                _: &mut Vec<(Rank, Vec<u32>)>,
                ctx: &mut RankCtx<u32>,
            ) -> Status {
                ctx.send(ctx.rank(), &0);
                Status::Idle
            }
        }
        let cfg = EngineConfig {
            max_rounds: 50,
            ..free_config()
        };
        let result = SimEngine::new(vec![Livelock], cfg).run();
        assert!(result.hit_round_cap);
        assert_eq!(result.stats.rounds, 50);
    }

    #[test]
    fn virtual_time_reflects_cost_model() {
        let cost = crate::CostModel {
            alpha: 1.0,
            beta: 0.5,
            gamma: 2.0,
            send_overhead: 0.25,
        };
        let cfg = EngineConfig {
            cost,
            ..Default::default()
        };
        let programs = (0..2)
            .map(|_| RingToken {
                hops_left: 1,
                forwarded: 0,
            })
            .collect();
        let result = SimEngine::<RingToken>::new(programs, cfg).run();
        // Rank 0: one packet of 4 bytes: overhead 0.25 -> t0 = 0.25.
        // Arrival at rank 1: 0.25 + 1.0 + 0.5·4 = 3.25; + work 1·γ = 5.25.
        let t1 = result.stats.per_rank[1].virtual_time;
        assert!((t1 - 5.25).abs() < 1e-12, "t1 = {t1}");
        assert!((result.stats.makespan() - 5.25).abs() < 1e-12);
    }

    #[test]
    fn sync_rounds_synchronize_clocks() {
        let cost = crate::CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 1.0,
            send_overhead: 0.0,
        };
        let cfg = EngineConfig {
            cost,
            sync_rounds: true,
            ..Default::default()
        };
        let programs = (0..2)
            .map(|_| RingToken {
                hops_left: 3,
                forwarded: 0,
            })
            .collect();
        let result = SimEngine::<RingToken>::new(programs, cfg).run();
        let times: Vec<f64> = result
            .stats
            .per_rank
            .iter()
            .map(|r| r.virtual_time)
            .collect();
        assert_eq!(times[0], times[1], "barrier must equalize clocks");
    }

    #[test]
    fn dense_reference_matches_scheduled_run() {
        for sync_rounds in [false, true] {
            let mk = || {
                (0..6)
                    .map(|_| RingToken {
                        hops_left: 25,
                        forwarded: 0,
                    })
                    .collect::<Vec<_>>()
            };
            let cfg = EngineConfig {
                cost: crate::CostModel {
                    alpha: 1.0,
                    beta: 0.5,
                    gamma: 2.0,
                    send_overhead: 0.25,
                },
                sync_rounds,
                record_trace: true,
                ..Default::default()
            };
            let dense = SimEngine::<RingToken>::new(mk(), cfg.clone()).run_dense_reference();
            let sparse = SimEngine::<RingToken>::new(mk(), cfg).run();
            assert_eq!(dense.stats.rounds, sparse.stats.rounds);
            assert_eq!(dense.stats.per_rank, sparse.stats.per_rank);
            assert_eq!(dense.trace, sparse.trace);
            assert_eq!(dense.hit_round_cap, sparse.hit_round_cap);
        }
    }

    /// The scaling property the scheduler exists for: after the all-rank
    /// round 0, a round steps only the rank holding the token, so a run's
    /// rounds, steps and the token ranks' clocks do not depend on p.
    #[test]
    fn sched_counters_track_quiet_rounds() {
        let run = |p: u64| {
            let programs = (0..p)
                .map(|_| RingToken {
                    hops_left: 10,
                    forwarded: 0,
                })
                .collect();
            SimEngine::<RingToken>::new(programs, EngineConfig::default()).run()
        };
        let small = run(64);
        for p in [64, 512, 4096] {
            let result = run(p);
            let sched = &result.sched;
            assert_eq!(sched.rounds, result.stats.rounds);
            // Round 0 steps everyone; every later round steps exactly the
            // one rank holding the token.
            assert_eq!(sched.worklist_max, p);
            assert_eq!(sched.worklist_total, p + (sched.rounds - 1), "p = {p}");
            assert_eq!(sched.ranks_skipped_total, (sched.rounds - 1) * (p - 1));
            assert_eq!(result.stats.rounds, small.stats.rounds, "p = {p}");
            let forwarded: u64 = result.programs.iter().map(|r| r.forwarded).sum();
            assert_eq!(forwarded, 10);
            for rank in 0..=10 {
                let (a, b) = (&result.stats.per_rank[rank], &small.stats.per_rank[rank]);
                assert_eq!(a.virtual_time, b.virtual_time, "rank {rank}, p = {p}");
            }
        }
    }

    #[test]
    fn trace_records_round_aggregates() {
        let cfg = EngineConfig {
            record_trace: true,
            ..free_config()
        };
        let programs = (0..3)
            .map(|_| RingToken {
                hops_left: 5,
                forwarded: 0,
            })
            .collect();
        let result = SimEngine::<RingToken>::new(programs, cfg).run();
        assert_eq!(result.trace.len() as u64, result.stats.rounds);
        let traced_msgs: u64 = result.trace.iter().map(|t| t.messages).sum();
        assert_eq!(traced_msgs, result.stats.total_messages());
        assert_eq!(result.trace[0].round, 0);
        assert_eq!(result.trace[0].ranks_stepped, 3);
        // Later rounds only step the rank holding the token.
        assert_eq!(result.trace[2].ranks_stepped, 1);
        // The trace is off (and empty) by default.
        let programs = (0..3)
            .map(|_| RingToken {
                hops_left: 5,
                forwarded: 0,
            })
            .collect();
        let silent = SimEngine::<RingToken>::new(programs, free_config()).run();
        assert!(silent.trace.is_empty());
    }

    #[test]
    fn zero_ranks_is_a_noop() {
        let result = SimEngine::<RingToken>::new(vec![], free_config()).run();
        assert_eq!(result.stats.rounds, 0);
        assert!(result.programs.is_empty());
    }
}
