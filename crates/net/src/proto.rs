//! Payload codecs of the supervisor ↔ worker protocol.
//!
//! The [`Ctrl`](crate::frame::Ctrl) vocabulary gives every frame a
//! fixed-width header; the variable-size content — a rank's partition
//! slice, the task description, result vectors, stats — travels in the
//! frame payload, encoded by the functions here. Decoding is fully
//! checked: malformed bytes come back as [`NetError::Protocol`], never
//! a panic, because the payload crossed a process boundary and the
//! other side may be a different build.

use crate::error::NetError;
use crate::frame::Ctrl;
use crate::link::{FaultPlan, LinkStats, LinkWriter};
use bytes::{Buf, BufMut};
use cmg_coloring::{ColorChoice, ColoringConfig, CommVariant, LocalOrder};
use cmg_partition::dist::DistGraph;
use cmg_runtime::RankStats;
use std::io::Write;

/// Sentinel for [`RunOptions::die_at_round`]: never wedge.
pub const NEVER: u64 = u64::MAX;

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<(), NetError> {
    if buf.remaining() < n {
        Err(NetError::protocol(format!(
            "payload truncated: need {n} more bytes for {what}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn take_u8(buf: &mut impl Buf, what: &str) -> Result<u8, NetError> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

fn take_u32(buf: &mut impl Buf, what: &str) -> Result<u32, NetError> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

fn take_u64(buf: &mut impl Buf, what: &str) -> Result<u64, NetError> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

fn take_i64(buf: &mut impl Buf, what: &str) -> Result<i64, NetError> {
    // Two's-complement through u64: the wire codec's only integer
    // primitive is unsigned.
    need(buf, 8, what)?;
    Ok(buf.get_u64_le() as i64)
}

fn take_f64(buf: &mut impl Buf, what: &str) -> Result<f64, NetError> {
    need(buf, 8, what)?;
    Ok(buf.get_f64_le())
}

/// Reads a length prefix and sanity-checks it against the bytes
/// actually left, so a corrupt length cannot drive a huge allocation.
fn take_len(buf: &mut impl Buf, elem_size: usize, what: &str) -> Result<usize, NetError> {
    let n = take_u64(buf, what)? as usize;
    if n.saturating_mul(elem_size) > buf.remaining() {
        return Err(NetError::protocol(format!(
            "length prefix for {what} claims {n} elements but only {} bytes remain",
            buf.remaining()
        )));
    }
    Ok(n)
}

/// Rejects bytes left over after the last field: a payload from a build
/// with a different layout must fail, not be silently half-read.
fn no_trailing(buf: &impl Buf, what: &str) -> Result<(), NetError> {
    if buf.has_remaining() {
        return Err(NetError::protocol(format!(
            "{} trailing bytes after the {what} payload",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Appends `xs` as a `u64` length and then one `W`-byte little-endian
/// `word` per element: the output grows once, and each element is one
/// fixed-width copy into it — never one cursor call per element.
fn put_array<T: Copy, const W: usize>(out: &mut Vec<u8>, xs: &[T], word: impl Fn(T) -> [u8; W]) {
    out.put_u64_le(xs.len() as u64);
    let at = out.len();
    out.resize(at + W * xs.len(), 0);
    for (dst, &x) in out[at..].chunks_exact_mut(W).zip(xs) {
        dst.copy_from_slice(&word(x));
    }
}

/// Reads an array [`put_array`] wrote into one exact-size allocation,
/// refusing a length the payload cannot hold before allocating.
fn take_array<T, const W: usize>(
    buf: &mut &[u8],
    what: &str,
    value: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, NetError> {
    let n = take_len(buf, W, what)?;
    let (words, rest) = buf.split_at(W * n);
    *buf = rest;
    let mut le = [0; W];
    Ok(words
        .chunks_exact(W)
        .map(|w| {
            le.copy_from_slice(w);
            value(le)
        })
        .collect())
}

/// Everything a worker needs to run its rank: the partition slice, the
/// algorithm to run, and the run options. Travels as the payload of
/// `Ctrl::Assignment`.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// The local graph of this rank.
    pub dg: DistGraph,
    /// Which algorithm to run.
    pub task: NetTask,
    /// Engine knobs and failure-model deadlines.
    pub opts: RunOptions,
    /// When the fleet is being relaunched after a failure, the rank's
    /// snapshot from the last complete checkpoint set. `None` on a
    /// fresh launch (round 0).
    pub resume: Option<ResumeFrom>,
}

/// The resume section of a relaunch [`Assignment`]: the checkpoint this
/// rank restores before re-entering the round loop. The payload is the
/// opaque [`Ctrl::Checkpoint`](crate::frame::Ctrl::Checkpoint) blob the
/// rank's previous incarnation shipped — the supervisor retains it
/// verbatim and never decodes it.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeFrom {
    /// The round edge the snapshot was taken at; the rank resumes at
    /// `round + 1`.
    pub round: u64,
    /// The checkpoint blob (see [`encode_checkpoint`]).
    pub payload: Vec<u8>,
}

/// The algorithm a net run executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetTask {
    /// Distributed greedy weighted matching (§3 of the paper).
    Matching,
    /// Distributed speculative coloring (§4).
    Coloring(ColoringConfig),
    /// Jones–Plassmann coloring baseline.
    JonesPlassmann {
        /// Priority seed.
        seed: u64,
    },
}

/// Run options shipped to every worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOptions {
    /// Bundle messages per destination per round (both existing engines
    /// default to this; the net engine requires it for bit-identical
    /// results, and the supervisor enforces it).
    pub bundling: bool,
    /// Whether workers should collect and ship obs events home.
    pub observed: bool,
    /// Round cap (safety net against protocol bugs).
    pub max_rounds: u64,
    /// Worker heartbeat period, milliseconds.
    pub heartbeat_millis: u64,
    /// How long a receiver waits for a missing frame behind newer ones
    /// before declaring [`NetError::FrameLoss`], milliseconds.
    pub gap_deadline_millis: u64,
    /// Fault-injection plan for data-plane frames.
    pub fault: FaultPlan,
    /// Test hook: wedge (stop participating, keep the process alive
    /// but silent) at the start of this round. [`NEVER`] disables it.
    pub die_at_round: u64,
    /// Trace context: identifies this run in merged traces and
    /// telemetry (supervisor-generated, same for every rank).
    pub run_id: u64,
    /// Whether workers accumulate phase/link counters and piggyback
    /// them on heartbeats (cheap, on by default; off for overhead
    /// A/B runs).
    pub telemetry: bool,
    /// Ship a [`Ctrl::Checkpoint`](crate::frame::Ctrl::Checkpoint)
    /// every this many rounds (at round edges where `completed % k ==
    /// 0`, matching the in-process engines' oracle cadence). 0 = off;
    /// when off, a rank death fails the run with a typed diagnosis
    /// instead of triggering recovery.
    pub checkpoint_every: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            bundling: true,
            observed: false,
            max_rounds: 1_000_000,
            heartbeat_millis: 100,
            gap_deadline_millis: 2_000,
            fault: FaultPlan::default(),
            die_at_round: NEVER,
            run_id: 0,
            telemetry: true,
            checkpoint_every: 0,
        }
    }
}

fn encode_coloring_config(out: &mut impl BufMut, cfg: &ColoringConfig) {
    out.put_u64_le(cfg.superstep_size as u64);
    out.put_u8(match cfg.comm {
        CommVariant::Fiab => 0,
        CommVariant::Fiac => 1,
        CommVariant::Neighbor => 2,
    });
    out.put_u8(match cfg.color_choice {
        ColorChoice::FirstFit => 0,
        ColorChoice::StaggeredFirstFit => 1,
        ColorChoice::LeastUsed => 2,
    });
    out.put_u8(match cfg.order {
        LocalOrder::InteriorFirst => 0,
        LocalOrder::BoundaryFirst => 1,
    });
    out.put_u64_le(cfg.seed);
}

fn decode_coloring_config(buf: &mut impl Buf) -> Result<ColoringConfig, NetError> {
    let superstep_size = take_u64(buf, "superstep_size")? as usize;
    let comm = match take_u8(buf, "comm variant")? {
        0 => CommVariant::Fiab,
        1 => CommVariant::Fiac,
        2 => CommVariant::Neighbor,
        t => return Err(NetError::protocol(format!("unknown comm variant tag {t}"))),
    };
    let color_choice = match take_u8(buf, "color choice")? {
        0 => ColorChoice::FirstFit,
        1 => ColorChoice::StaggeredFirstFit,
        2 => ColorChoice::LeastUsed,
        t => return Err(NetError::protocol(format!("unknown color choice tag {t}"))),
    };
    let order = match take_u8(buf, "local order")? {
        0 => LocalOrder::InteriorFirst,
        1 => LocalOrder::BoundaryFirst,
        t => return Err(NetError::protocol(format!("unknown local order tag {t}"))),
    };
    let seed = take_u64(buf, "coloring seed")?;
    Ok(ColoringConfig {
        superstep_size,
        comm,
        color_choice,
        order,
        seed,
    })
}

fn encode_task(out: &mut impl BufMut, task: &NetTask) {
    match task {
        NetTask::Matching => out.put_u8(0),
        NetTask::Coloring(cfg) => {
            out.put_u8(1);
            encode_coloring_config(out, cfg);
        }
        NetTask::JonesPlassmann { seed } => {
            out.put_u8(2);
            out.put_u64_le(*seed);
        }
    }
}

fn decode_task(buf: &mut impl Buf) -> Result<NetTask, NetError> {
    match take_u8(buf, "task tag")? {
        0 => Ok(NetTask::Matching),
        1 => Ok(NetTask::Coloring(decode_coloring_config(buf)?)),
        2 => Ok(NetTask::JonesPlassmann {
            seed: take_u64(buf, "jp seed")?,
        }),
        t => Err(NetError::protocol(format!("unknown task tag {t}"))),
    }
}

fn encode_options(out: &mut impl BufMut, opts: &RunOptions) {
    out.put_u8(u8::from(opts.bundling));
    out.put_u8(u8::from(opts.observed));
    out.put_u64_le(opts.max_rounds);
    out.put_u64_le(opts.heartbeat_millis);
    out.put_u64_le(opts.gap_deadline_millis);
    out.put_u64_le(opts.fault.seed);
    out.put_u32_le(opts.fault.drop_per_mille);
    out.put_u32_le(opts.fault.dup_per_mille);
    out.put_u32_le(opts.fault.delay_per_mille);
    out.put_u32_le(opts.fault.delay_depth);
    out.put_u64_le(opts.die_at_round);
    out.put_u64_le(opts.run_id);
    out.put_u8(u8::from(opts.telemetry));
    out.put_u64_le(opts.checkpoint_every);
}

fn decode_options(buf: &mut impl Buf) -> Result<RunOptions, NetError> {
    Ok(RunOptions {
        bundling: take_u8(buf, "bundling flag")? != 0,
        observed: take_u8(buf, "observed flag")? != 0,
        max_rounds: take_u64(buf, "max_rounds")?,
        heartbeat_millis: take_u64(buf, "heartbeat_millis")?,
        gap_deadline_millis: take_u64(buf, "gap_deadline_millis")?,
        fault: FaultPlan {
            seed: take_u64(buf, "fault seed")?,
            drop_per_mille: take_u32(buf, "drop_per_mille")?,
            dup_per_mille: take_u32(buf, "dup_per_mille")?,
            delay_per_mille: take_u32(buf, "delay_per_mille")?,
            delay_depth: take_u32(buf, "delay_depth")?,
        },
        die_at_round: take_u64(buf, "die_at_round")?,
        run_id: take_u64(buf, "run_id")?,
        telemetry: take_u8(buf, "telemetry flag")? != 0,
        checkpoint_every: take_u64(buf, "checkpoint_every")?,
    })
}

/// Serializes a rank's assignment (partition slice + task + options).
pub fn encode_assignment(a: &Assignment) -> Vec<u8> {
    let resume = a.resume.as_ref().map(|r| (r.round, r.payload.as_slice()));
    let mut out = Vec::with_capacity(assignment_len(&a.dg, resume));
    encode_assignment_into(&mut out, &a.dg, &a.task, &a.opts, resume);
    out
}

/// Ships `dg.rank` its assignment over `w`, encoded from the borrowed
/// slice straight into the frame buffer: one payload-sized allocation and
/// no staging copy, whether the supervisor is launching, relaunching from
/// a checkpoint (`resume` = the round and that rank's blob) or retasking.
pub fn send_assignment<W: Write>(
    w: &mut LinkWriter<W>,
    dg: &DistGraph,
    task: &NetTask,
    opts: &RunOptions,
    resume: Option<(u64, &[u8])>,
) -> Result<(), NetError> {
    let len = assignment_len(dg, resume);
    w.send_streamed(Ctrl::Assignment { rank: dg.rank }, len, |out| {
        encode_assignment_into(out, dg, task, opts, resume);
    })
}

/// At least the encoded size of an assignment: the arrays exactly, plus
/// 184 B of fixed fields, task, options and resume header at most.
fn assignment_len(dg: &DistGraph, resume: Option<(u64, &[u8])>) -> usize {
    192 + 8 * (dg.xadj.len() + dg.weights.len())
        + 4 * (dg.adj.len() + dg.global_ids.len() + dg.ghost_owner.len())
        + 4 * dg.neighbor_ranks.len()
        + dg.is_boundary.len()
        + resume.map_or(0, |(_, blob)| blob.len())
}

fn encode_assignment_into(
    out: &mut Vec<u8>,
    dg: &DistGraph,
    task: &NetTask,
    opts: &RunOptions,
    resume: Option<(u64, &[u8])>,
) {
    out.put_u32_le(dg.rank);
    out.put_u32_le(dg.num_ranks);
    out.put_u64_le(dg.n_local as u64);
    put_array(out, &dg.xadj, |x| (x as u64).to_le_bytes());
    put_array(out, &dg.adj, u32::to_le_bytes);
    put_array(out, &dg.weights, f64::to_le_bytes);
    put_array(out, &dg.global_ids, u32::to_le_bytes);
    put_array(out, &dg.ghost_owner, u32::to_le_bytes);
    put_array(out, &dg.is_boundary, |b| [u8::from(b)]);
    put_array(out, &dg.neighbor_ranks, u32::to_le_bytes);
    encode_task(out, task);
    encode_options(out, opts);
    match resume {
        None => out.put_u8(0),
        Some((round, blob)) => {
            out.put_u8(1);
            out.put_u64_le(round);
            out.put_u64_le(blob.len() as u64);
            out.extend_from_slice(blob);
        }
    }
}

/// Reconstructs an [`Assignment`]. The slice's ghost table is not on
/// the wire — [`DistGraph::from_fields`] rebuilds it, after checking every
/// invariant the worker's readers index by, so a slice that would panic
/// the worker is a [`NetError::Protocol`] here instead.
pub fn decode_assignment(mut buf: &[u8]) -> Result<Assignment, NetError> {
    let buf = &mut buf;
    let rank = take_u32(buf, "rank")?;
    let num_ranks = take_u32(buf, "num_ranks")?;
    let n_local = take_u64(buf, "n_local")? as usize;
    let xadj = take_array(buf, "xadj", |w| u64::from_le_bytes(w) as usize)?;
    let adj = take_array(buf, "adj", u32::from_le_bytes)?;
    let weights = take_array(buf, "weights", f64::from_le_bytes)?;
    let global_ids = take_array(buf, "global_ids", u32::from_le_bytes)?;
    let ghost_owner = take_array(buf, "ghost_owner", u32::from_le_bytes)?;
    let is_boundary = take_array(buf, "is_boundary", |[b]| b != 0)?;
    let neighbor_ranks = take_array(buf, "neighbor_ranks", u32::from_le_bytes)?;
    let task = decode_task(buf)?;
    let opts = decode_options(buf)?;
    let resume = match take_u8(buf, "resume flag")? {
        0 => None,
        1 => {
            let round = take_u64(buf, "resume round")?;
            let payload = take_array(buf, "resume payload", |[b]| b)?;
            Some(ResumeFrom { round, payload })
        }
        t => return Err(NetError::protocol(format!("unknown resume flag {t}"))),
    };
    no_trailing(buf, "assignment")?;

    let dg = DistGraph::from_fields(
        rank,
        num_ranks,
        n_local,
        xadj,
        adj,
        weights,
        global_ids,
        ghost_owner,
        is_boundary,
        neighbor_ranks,
    )
    .map_err(|e| NetError::protocol(format!("assignment inconsistent: {e}")))?;
    Ok(Assignment {
        dg,
        task,
        opts,
        resume,
    })
}

/// A worker's final clock-sync estimate, shipped with its stats so the
/// supervisor can shift that rank's trace timestamps onto the
/// supervisor clock when merging.
///
/// `offset_micros` is "supervisor clock minus this worker's clock" at
/// the minimum-RTT heartbeat/ack exchange; adding it to a worker
/// timestamp yields supervisor time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockReport {
    /// Supervisor minus worker clock, microseconds (NTP-style
    /// midpoint estimate at the best exchange).
    pub offset_micros: i64,
    /// Round-trip time of the best (minimum) exchange, microseconds —
    /// the offset's error bound.
    pub rtt_micros: u64,
    /// False when no heartbeat/ack pair completed (offset is 0 and
    /// must not be trusted).
    pub valid: bool,
}

/// The rank's own measurement of its round loop (`Start` receipt to
/// the final round edge), shipped with the `Stats` frame so benches can
/// measure round cost without spawn, handshake, or result-shipping
/// noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopClock {
    /// Wall-clock microseconds of the round loop.
    pub wall_micros: u64,
    /// CPU microseconds the whole worker process (all threads) spent
    /// during the loop window, when the platform exposes per-task
    /// clocks (Linux `schedstat`; 0 elsewhere). Unlike wall time this
    /// is immune to scheduler contention on an oversubscribed host.
    pub cpu_micros: u64,
}

fn encode_rank_stats(out: &mut impl BufMut, rank_stats: &RankStats) {
    out.put_u64_le(rank_stats.packets_sent);
    out.put_u64_le(rank_stats.packets_received);
    out.put_u64_le(rank_stats.messages_sent);
    out.put_u64_le(rank_stats.bytes_sent);
    out.put_u64_le(rank_stats.bytes_received);
    out.put_u64_le(rank_stats.messages_received);
    out.put_u64_le(rank_stats.work);
    out.put_u64_le(rank_stats.rounds_active);
    out.put_f64_le(rank_stats.virtual_time);
}

fn decode_rank_stats(buf: &mut impl Buf) -> Result<RankStats, NetError> {
    Ok(RankStats {
        packets_sent: take_u64(buf, "packets_sent")?,
        packets_received: take_u64(buf, "packets_received")?,
        messages_sent: take_u64(buf, "messages_sent")?,
        bytes_sent: take_u64(buf, "bytes_sent")?,
        bytes_received: take_u64(buf, "bytes_received")?,
        messages_received: take_u64(buf, "messages_received")?,
        work: take_u64(buf, "work")?,
        rounds_active: take_u64(buf, "rounds_active")?,
        virtual_time: take_f64(buf, "virtual_time")?,
    })
}

/// Serializes the per-rank counters shipped inside a `Stats` frame.
pub(crate) fn encode_stats(
    rank_stats: &RankStats,
    link: &LinkStats,
    clock: &ClockReport,
    loop_clock: &LoopClock,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(21 * 8);
    encode_rank_stats(&mut out, rank_stats);
    out.put_u64_le(link.frames_sent);
    out.put_u64_le(link.frames_received);
    out.put_u64_le(link.bytes_sent);
    out.put_u64_le(link.dropped_by_fault);
    out.put_u64_le(link.duplicated_by_fault);
    out.put_u64_le(link.delayed_by_fault);
    out.put_u64_le(link.dup_discarded);
    out.put_u64_le(link.syscalls);
    out.put_u64_le(link.frames_coalesced);
    out.put_u64_le(clock.offset_micros as u64);
    out.put_u64_le(clock.rtt_micros);
    out.put_u8(u8::from(clock.valid));
    out.put_u64_le(loop_clock.wall_micros);
    out.put_u64_le(loop_clock.cpu_micros);
    out
}

/// Decodes a `Stats` payload.
pub(crate) fn decode_stats(
    mut buf: &[u8],
) -> Result<(RankStats, LinkStats, ClockReport, LoopClock), NetError> {
    let buf = &mut buf;
    let rank_stats = decode_rank_stats(buf)?;
    let link = LinkStats {
        frames_sent: take_u64(buf, "frames_sent")?,
        frames_received: take_u64(buf, "frames_received")?,
        bytes_sent: take_u64(buf, "link bytes_sent")?,
        dropped_by_fault: take_u64(buf, "dropped_by_fault")?,
        duplicated_by_fault: take_u64(buf, "duplicated_by_fault")?,
        delayed_by_fault: take_u64(buf, "delayed_by_fault")?,
        dup_discarded: take_u64(buf, "dup_discarded")?,
        syscalls: take_u64(buf, "syscalls")?,
        frames_coalesced: take_u64(buf, "frames_coalesced")?,
    };
    let clock = ClockReport {
        offset_micros: take_i64(buf, "clock offset")?,
        rtt_micros: take_u64(buf, "clock rtt")?,
        valid: take_u8(buf, "clock valid flag")? != 0,
    };
    let loop_clock = LoopClock {
        wall_micros: take_u64(buf, "loop wall_micros")?,
        cpu_micros: take_u64(buf, "loop cpu_micros")?,
    };
    Ok((rank_stats, link, clock, loop_clock))
}

/// The transport half of a rank's checkpoint: every table the worker's
/// `Transport` needs to re-enter the round loop mid-run on fresh
/// sockets. Indexed vectors are `num_ranks` long with the own-rank slot
/// zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransportSnapshot {
    /// Per-peer outbound sequence counter (`LinkWriter::next_seq`) at
    /// the checkpoint edge. A restored rank resumes each writer here so
    /// re-executed rounds re-send their frames under the original
    /// numbering.
    pub writer_next_seq: Vec<u64>,
    /// Per-peer resequencer floor (`next` expected sequence number).
    /// Restored so gap re-sends the rank already consumed before the
    /// crash are dup-discarded instead of double-delivered.
    pub reseq_next: Vec<u64>,
    /// In-flight done-wave counters: `(phase, count)`.
    pub wave_in_flight: Vec<(u32, u64)>,
    /// Per-round OR of peer activity bits not yet consumed by the wave:
    /// `(round, active)`.
    pub peer_active: Vec<(u64, u8)>,
    /// Buffered round packets awaiting delivery, keyed by the round
    /// they were sent in: `(round, [(src, logical_bytes, payload)])`.
    pub pending: Vec<(u64, Vec<PendingPacket>)>,
}

/// One buffered round packet inside [`TransportSnapshot::pending`]:
/// `(src rank, logical byte count, payload)`.
pub type PendingPacket = (u32, u32, Vec<u8>);

/// One rank's full checkpoint: the payload of a
/// [`Ctrl::Checkpoint`](crate::frame::Ctrl::Checkpoint) frame and of
/// the resume section on relaunch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointState {
    /// The round edge the snapshot was taken at.
    pub round: u64,
    /// The rank's accumulated [`RankStats`] through `round`, restored
    /// so a recovered run's final stats are bit-identical to an
    /// uninterrupted one.
    pub stats: RankStats,
    /// The rank program's encoded snapshot
    /// (`ProgramSnapshot::encode_bytes`).
    pub program: Vec<u8>,
    /// The transport tables.
    pub transport: TransportSnapshot,
}

/// Serializes a [`CheckpointState`].
pub fn encode_checkpoint(c: &CheckpointState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_checkpoint_into(
        &mut out,
        c.round,
        &c.stats,
        &c.transport,
        c.program.len(),
        |out| out.extend_from_slice(&c.program),
    );
    out
}

/// Serializes a checkpoint into `out` with the program snapshot
/// written **in place** by `write_program` — the worker's checkpoint
/// hot path. The program's length prefix is back-patched after the
/// closure runs, so the snapshot encodes once, straight into the frame
/// payload, with no intermediate blob. `program_len_hint` sizes the
/// reservation; when it is at least the real encoded size, the buffer
/// never reallocates.
pub(crate) fn encode_checkpoint_into(
    out: &mut Vec<u8>,
    round: u64,
    stats: &RankStats,
    t: &TransportSnapshot,
    program_len_hint: usize,
    write_program: impl FnOnce(&mut Vec<u8>),
) {
    // Exact sizes of every section below: round + stats + 6 length
    // words, plus the per-element widths the decoder assumes.
    let cap = 8
        + 72
        + 6 * 8
        + program_len_hint
        + 8 * (t.writer_next_seq.len() + t.reseq_next.len())
        + 12 * t.wave_in_flight.len()
        + 9 * t.peer_active.len()
        + t.pending
            .iter()
            .map(|(_, ps)| 16 + ps.iter().map(|(_, _, p)| 16 + p.len()).sum::<usize>())
            .sum::<usize>();
    out.reserve(cap);
    out.put_u64_le(round);
    encode_rank_stats(out, stats);
    let len_at = out.len();
    out.put_u64_le(0);
    write_program(out);
    let program_len = ((out.len() - len_at - 8) as u64).to_le_bytes();
    if let Some(slot) = out.get_mut(len_at..len_at + 8) {
        slot.copy_from_slice(&program_len);
    }
    put_array(out, &t.writer_next_seq, u64::to_le_bytes);
    put_array(out, &t.reseq_next, u64::to_le_bytes);
    out.put_u64_le(t.wave_in_flight.len() as u64);
    for &(phase, count) in &t.wave_in_flight {
        out.put_u32_le(phase);
        out.put_u64_le(count);
    }
    out.put_u64_le(t.peer_active.len() as u64);
    for &(round, active) in &t.peer_active {
        out.put_u64_le(round);
        out.put_u8(active);
    }
    out.put_u64_le(t.pending.len() as u64);
    for (round, packets) in &t.pending {
        out.put_u64_le(*round);
        out.put_u64_le(packets.len() as u64);
        for (src, logical, payload) in packets {
            out.put_u32_le(*src);
            out.put_u32_le(*logical);
            out.put_u64_le(payload.len() as u64);
            out.extend_from_slice(payload);
        }
    }
}

/// Decodes a [`CheckpointState`]; fully checked like every supervisor
/// plane payload.
pub fn decode_checkpoint(mut buf: &[u8]) -> Result<CheckpointState, NetError> {
    let buf = &mut buf;
    let round = take_u64(buf, "checkpoint round")?;
    let stats = decode_rank_stats(buf)?;
    let program = take_array(buf, "program snapshot", |[b]| b)?;
    let mut t = TransportSnapshot {
        writer_next_seq: take_array(buf, "writer seqs", u64::from_le_bytes)?,
        reseq_next: take_array(buf, "reseq floors", u64::from_le_bytes)?,
        ..TransportSnapshot::default()
    };
    let n = take_len(buf, 12, "wave in-flight")?;
    for _ in 0..n {
        t.wave_in_flight.push((buf.get_u32_le(), buf.get_u64_le()));
    }
    let n = take_len(buf, 9, "peer_active")?;
    for _ in 0..n {
        t.peer_active.push((buf.get_u64_le(), buf.get_u8()));
    }
    let n = take_len(buf, 16, "pending rounds")?;
    for _ in 0..n {
        let r = take_u64(buf, "pending round")?;
        let np = take_len(buf, 16, "pending packets")?;
        let mut packets = Vec::with_capacity(np);
        for _ in 0..np {
            let src = take_u32(buf, "pending src")?;
            let logical = take_u32(buf, "pending logical bytes")?;
            let payload = take_array(buf, "pending payload", |[b]| b)?;
            packets.push((src, logical, payload));
        }
        t.pending.push((r, packets));
    }
    no_trailing(buf, "checkpoint")?;
    Ok(CheckpointState {
        round,
        stats,
        program,
        transport: t,
    })
}

/// Serializes the cumulative telemetry block a worker piggybacks on a
/// `Heartbeat` frame's payload (see [`cmg_obs::RankTelemetry`]).
pub(crate) fn encode_telemetry(t: &cmg_obs::RankTelemetry) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 10 * 8);
    out.put_u32_le(t.rank);
    out.put_u64_le(t.round);
    out.put_u64_le(t.delivery_ns);
    out.put_u64_le(t.compute_ns);
    out.put_u64_le(t.serialize_ns);
    out.put_u64_le(t.edge_wait_ns);
    out.put_u64_le(t.reseq_hold_ns);
    out.put_u64_le(t.frames_sent);
    out.put_u64_le(t.bytes_sent);
    out.put_u64_le(t.reseq_pending);
    out.put_u64_le(t.max_bundle_lag_micros);
    out
}

/// Decodes a heartbeat telemetry block.
pub(crate) fn decode_telemetry(mut buf: &[u8]) -> Result<cmg_obs::RankTelemetry, NetError> {
    let buf = &mut buf;
    Ok(cmg_obs::RankTelemetry {
        rank: take_u32(buf, "telemetry rank")?,
        round: take_u64(buf, "telemetry round")?,
        delivery_ns: take_u64(buf, "delivery_ns")?,
        compute_ns: take_u64(buf, "compute_ns")?,
        serialize_ns: take_u64(buf, "serialize_ns")?,
        edge_wait_ns: take_u64(buf, "edge_wait_ns")?,
        reseq_hold_ns: take_u64(buf, "reseq_hold_ns")?,
        frames_sent: take_u64(buf, "telemetry frames_sent")?,
        bytes_sent: take_u64(buf, "telemetry bytes_sent")?,
        reseq_pending: take_u64(buf, "reseq_pending")?,
        max_bundle_lag_micros: take_u64(buf, "max_bundle_lag_micros")?,
    })
}

/// What one worker hands back as its share of the global result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// `(vertex, mate)` global-id pairs for owned vertices
    /// (`NO_VERTEX` mate = unmatched).
    Matching(Vec<(u32, u32)>),
    /// `(vertex, color)` pairs for owned vertices, plus the number of
    /// boundary phases this rank executed (0 for Jones–Plassmann).
    Coloring {
        /// Owned `(vertex, color)` assignments.
        pairs: Vec<(u32, u32)>,
        /// Boundary phases executed.
        phases: u32,
    },
}

/// Serializes an `Outcome` payload.
pub fn encode_outcome(outcome: &WorkerOutcome) -> Vec<u8> {
    let (tag, pairs, phases) = match outcome {
        WorkerOutcome::Matching(pairs) => (0, pairs, None),
        WorkerOutcome::Coloring { pairs, phases } => (1, pairs, Some(*phases)),
    };
    let mut out = Vec::with_capacity(13 + 8 * pairs.len());
    out.put_u8(tag);
    // A `(vertex, value)` pair is its two `u32` words back to back.
    put_array(&mut out, pairs, |(v, x)| {
        (u64::from(v) | u64::from(x) << 32).to_le_bytes()
    });
    if let Some(phases) = phases {
        out.put_u32_le(phases);
    }
    out
}

/// Decodes an `Outcome` payload.
pub fn decode_outcome(mut buf: &[u8]) -> Result<WorkerOutcome, NetError> {
    let buf = &mut buf;
    let tag = take_u8(buf, "outcome tag")?;
    let pairs = take_array(buf, "outcome pairs", |w| {
        let w = u64::from_le_bytes(w);
        (w as u32, (w >> 32) as u32)
    })?;
    match tag {
        0 => Ok(WorkerOutcome::Matching(pairs)),
        1 => Ok(WorkerOutcome::Coloring {
            pairs,
            phases: take_u32(buf, "phases")?,
        }),
        t => Err(NetError::protocol(format!("unknown outcome tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::GraphBuilder;
    use cmg_partition::Partition;

    fn sample_dist_graph() -> DistGraph {
        // A 6-cycle split across 2 ranks: real ghosts, boundaries,
        // weights.
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.add_edge(v, (v + 1) % 6, 1.0 + f64::from(v));
        }
        let g = b.build();
        let partition = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        DistGraph::build_all(&g, &partition).swap_remove(0)
    }

    #[test]
    fn assignment_round_trips_exactly() {
        let dg = sample_dist_graph();
        for task in [
            NetTask::Matching,
            NetTask::Coloring(ColoringConfig {
                superstep_size: 7,
                comm: CommVariant::Fiac,
                color_choice: ColorChoice::LeastUsed,
                order: LocalOrder::BoundaryFirst,
                seed: 99,
            }),
            NetTask::JonesPlassmann { seed: 1234 },
        ] {
            let a = Assignment {
                dg: dg.clone(),
                task,
                opts: RunOptions {
                    bundling: true,
                    observed: true,
                    max_rounds: 500,
                    heartbeat_millis: 50,
                    gap_deadline_millis: 750,
                    fault: FaultPlan {
                        seed: 3,
                        drop_per_mille: 1,
                        dup_per_mille: 2,
                        delay_per_mille: 3,
                        delay_depth: 4,
                    },
                    die_at_round: 12,
                    run_id: 0xDEAD_BEEF_0042,
                    telemetry: false,
                    checkpoint_every: 3,
                },
                resume: None,
            };
            let bytes = encode_assignment(&a);
            let back = decode_assignment(&bytes).unwrap();
            assert_eq!(back, a);
            for (l, &g) in a.dg.global_ids.iter().enumerate() {
                assert_eq!(back.dg.local(g), Some(l as u32));
            }
            // The v5 layout carried one more flag byte (the transport
            // selector) ahead of `checkpoint_every` + the resume flag.
            let mut v5 = bytes.clone();
            v5.insert(bytes.len() - 9, 1);
            let err = decode_assignment(&v5).unwrap_err().to_string();
            assert!(err.contains("trailing bytes"), "{err}");

            // Same assignment with a resume section attached.
            let resumed = Assignment {
                resume: Some(ResumeFrom {
                    round: 17,
                    payload: vec![1, 2, 3, 4, 5],
                }),
                ..a
            };
            let bytes = encode_assignment(&resumed);
            assert_eq!(decode_assignment(&bytes).unwrap(), resumed);
        }
    }

    #[test]
    fn truncated_assignment_is_a_protocol_error_not_a_panic() {
        let a = Assignment {
            dg: sample_dist_graph(),
            task: NetTask::Matching,
            opts: RunOptions::default(),
            resume: None,
        };
        let bytes = encode_assignment(&a);
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_assignment(&bytes[..cut]).err();
            assert!(err.is_some(), "cut at {cut} must fail");
        }
    }

    /// A slice that decodes byte for byte but would index out of bounds
    /// (or silently misresolve an id) in the worker is refused typed: one
    /// corrupted field per row, each a `Protocol` error naming it.
    #[test]
    fn inconsistent_slices_are_protocol_errors_not_panics() {
        type Corrupt = fn(&mut DistGraph);
        // Rank 0 of the 6-cycle: owns 0, 1, 2 (1 interior), ghosts 5, 3.
        let rows: [(&str, Corrupt); 16] = [
            ("rank", |dg| dg.rank = 2),
            ("xadj", |dg| {
                dg.xadj.pop();
            }),
            ("xadj", |dg| dg.xadj[0] = 1),
            ("xadj", |dg| dg.xadj[1] = dg.xadj[2] + 1),
            ("xadj", |dg| *dg.xadj.last_mut().unwrap() -= 1),
            ("adjacency entry", |dg| {
                dg.adj[0] = dg.global_ids.len() as u32
            }),
            ("weights", |dg| {
                dg.weights.pop();
            }),
            ("boundary flags", |dg| {
                dg.is_boundary.pop();
            }),
            ("boundary flag", |dg| dg.is_boundary[1] = true),
            ("ghost owner", |dg| dg.ghost_owner[0] = 0),
            ("ghost owner", |dg| dg.ghost_owner[1] = 2),
            ("global ids for", |dg| {
                dg.global_ids.pop();
            }),
            ("ascending", |dg| dg.global_ids.swap(0, 1)),
            ("listed twice", |dg| dg.global_ids[3] = dg.global_ids[0]),
            ("listed twice", |dg| dg.global_ids[4] = dg.global_ids[3]),
            ("neighbor_ranks", |dg| dg.neighbor_ranks = vec![1, 1]),
        ];
        let valid = Assignment {
            dg: sample_dist_graph(),
            task: NetTask::Matching,
            opts: RunOptions::default(),
            resume: None,
        };
        assert_eq!(valid.dg.n_local, 3);
        assert_eq!(valid.dg.global_ids, vec![0, 1, 2, 5, 3]);
        assert_eq!(
            decode_assignment(&encode_assignment(&valid)).unwrap(),
            valid
        );
        for (i, (what, corrupt)) in rows.iter().enumerate() {
            let mut bad = valid.clone();
            corrupt(&mut bad.dg);
            match decode_assignment(&encode_assignment(&bad)) {
                Err(NetError::Protocol { detail }) => {
                    assert!(detail.contains(what), "row {i}: {detail}");
                }
                other => panic!("row {i} ({what}): {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocating() {
        // A huge u64 length prefix right at the xadj length slot.
        let mut bytes = Vec::new();
        bytes.put_u32_le(0); // rank
        bytes.put_u32_le(1); // num_ranks
        bytes.put_u64_le(3); // n_local
        bytes.put_u64_le(u64::MAX); // absurd xadj length
        let err = decode_assignment(&bytes).err();
        assert!(err.is_some());
        let msg = err
            .into_iter()
            .next()
            .map_or_else(String::new, |e| e.to_string());
        assert!(msg.contains("length prefix"), "{msg}");
    }

    #[test]
    fn stats_round_trip() {
        let rs = RankStats {
            packets_sent: 1,
            packets_received: 2,
            messages_sent: 3,
            bytes_sent: 4,
            bytes_received: 5,
            messages_received: 6,
            work: 7,
            rounds_active: 8,
            virtual_time: 9.5,
        };
        let ls = LinkStats {
            frames_sent: 10,
            frames_received: 11,
            bytes_sent: 12,
            dropped_by_fault: 13,
            duplicated_by_fault: 14,
            delayed_by_fault: 15,
            dup_discarded: 16,
            syscalls: 17,
            frames_coalesced: 18,
        };
        let ck = ClockReport {
            offset_micros: -1234,
            rtt_micros: 89,
            valid: true,
        };
        let lc = LoopClock {
            wall_micros: 4242,
            cpu_micros: 1717,
        };
        let bytes = encode_stats(&rs, &ls, &ck, &lc);
        let (rs2, ls2, ck2, lc2) = decode_stats(&bytes).unwrap();
        assert_eq!(rs2, rs);
        assert_eq!(ls2, ls);
        assert_eq!(ck2, ck);
        assert_eq!(lc2, lc);
    }

    #[test]
    fn telemetry_round_trip() {
        let t = cmg_obs::RankTelemetry {
            rank: 3,
            round: 17,
            delivery_ns: 2,
            compute_ns: 3,
            serialize_ns: 4,
            edge_wait_ns: 5,
            reseq_hold_ns: 6,
            frames_sent: 7,
            bytes_sent: 8,
            reseq_pending: 9,
            max_bundle_lag_micros: 10,
        };
        let bytes = encode_telemetry(&t);
        assert_eq!(decode_telemetry(&bytes).unwrap(), t);
        assert!(decode_telemetry(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn checkpoint_round_trip() {
        let c = CheckpointState {
            round: 12,
            stats: RankStats {
                packets_sent: 40,
                packets_received: 38,
                messages_sent: 90,
                bytes_sent: 720,
                bytes_received: 700,
                messages_received: 88,
                work: 300,
                rounds_active: 13,
                virtual_time: 0.0,
            },
            program: vec![9, 8, 7, 6],
            transport: TransportSnapshot {
                writer_next_seq: vec![0, 14, 15],
                reseq_next: vec![0, 13, 16],
                wave_in_flight: vec![(13, 2)],
                peer_active: vec![(13, 1)],
                pending: vec![
                    (12, vec![(1, 40, vec![1, 2, 3]), (2, 8, vec![])]),
                    (13, vec![(2, 16, vec![4, 5])]),
                ],
            },
        };
        let bytes = encode_checkpoint(&c);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), c);
        // Truncations are diagnosed, never panics.
        for cut in [0, 8, 72, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // An empty checkpoint (degenerate but legal) round-trips too.
        let empty = CheckpointState::default();
        let bytes = encode_checkpoint(&empty);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), empty);
        // The v5 layout had three more tables (tree accumulators after
        // the reseq floors; bundle counts and barrier verdicts after
        // `peer_active`). Empty, they are three extra length words…
        let mut v5 = bytes.clone();
        v5.extend_from_slice(&[0u8; 24]);
        let err = decode_checkpoint(&v5).unwrap_err().to_string();
        assert!(err.contains("trailing bytes"), "{err}");
        // …populated, the first one shifts every later table: one tree
        // entry `(phase 13, count 1, value u64::MAX)` where v6 expects
        // the wave table makes the next length word absurd, which is
        // refused before anything is allocated for it.
        let at = 8 + 72 + 8 + 8 + 8;
        let mut v5 = bytes[..at].to_vec();
        v5.put_u64_le(1);
        v5.put_u32_le(13);
        v5.put_u64_le(1);
        v5.put_u64_le(u64::MAX);
        v5.extend_from_slice(&bytes[at..]);
        v5.extend_from_slice(&[0u8; 16]);
        let err = decode_checkpoint(&v5).unwrap_err().to_string();
        assert!(err.contains("length prefix"), "{err}");
    }

    #[test]
    fn outcome_round_trip() {
        let m = WorkerOutcome::Matching(vec![(0, 3), (1, u32::MAX)]);
        assert_eq!(decode_outcome(&encode_outcome(&m)).unwrap(), m);
        let c = WorkerOutcome::Coloring {
            pairs: vec![(4, 0), (5, 2)],
            phases: 3,
        };
        assert_eq!(decode_outcome(&encode_outcome(&c)).unwrap(), c);
        assert!(decode_outcome(&[9]).is_err(), "unknown tag rejected");
    }
}
