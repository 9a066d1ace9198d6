//! The supervisor: spawns one worker process per rank, referees the
//! handshake, watches the run, and assembles the results.
//!
//! The supervisor is the failure-diagnosis layer of the net engine. A
//! distributed run can go wrong in ways a single-process engine cannot
//! — a worker process dies, a worker wedges without dying, a
//! fault-injected link permanently drops a frame — and the supervisor's
//! job is to turn every one of those into a typed [`NetError`] within a
//! deadline instead of hanging:
//!
//! - **death** — every tick it polls each worker's exit status; a child
//!   that exited without reporting `Done` becomes
//!   [`NetError::RankDied`] (with the killing signal, if any);
//! - **wedge** — workers heartbeat their round progress from a
//!   dedicated thread; a rank whose round stops advancing past the
//!   stall deadline while its process stays alive becomes
//!   [`NetError::Stalled`];
//! - **frame loss** — workers diagnose unfilled sequence gaps
//!   themselves and report a structured `Fatal` frame the supervisor
//!   re-types as [`NetError::FrameLoss`].
//!
//! With `NetConfig::checkpoint_every > 0` the supervisor is also the
//! *recovery* layer: workers ship consistent per-rank snapshots at
//! round edges ([`Ctrl::Checkpoint`]), the supervisor retains the most
//! recent complete set, and a worker loss triggers a whole-fleet
//! relaunch from it (see [`Run::recover`]) instead of failing the run.
//!
//! On success the per-rank results are merged into the same shapes the
//! other engines produce: a [`RunStats`] over all ranks, an assembled
//! global matching/coloring (cross-validated between ranks — two ranks
//! disagreeing is [`NetError::Inconsistent`], not a panic), and the
//! workers' buffered obs events replayed, in time order, into the
//! configured recorder so `--trace-out`/`--report-out` work unchanged.

use crate::error::NetError;
use crate::frame::{hello_rank, read_frame, Ctrl, Frame};
use crate::link::{FaultPlan, LinkStats, LinkWriter};
use crate::proto::{
    decode_outcome, decode_stats, decode_telemetry, send_assignment, ClockReport, NetTask,
    RunOptions, WorkerOutcome, NEVER,
};
use crate::worker::NO_STAMP;
use cmg_coloring::{assemble_colors, Coloring, ColoringConfig};
use cmg_matching::{assemble_mates, Matching};
use cmg_obs::{replay, Event, RecorderHandle, RunHealth, TimedEvent};
use cmg_partition::dist::DistGraph;
use cmg_runtime::{RankStats, RunStats};
use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Event-loop tick: bounds how stale death/stall checks can get.
const TICK: Duration = Duration::from_millis(20);
/// How long the launch loop waits between polls for a new worker
/// connection: bounds the latency of every hello it accepts.
const HANDSHAKE_POLL: Duration = Duration::from_micros(250);
/// How long a dead child's already-sent frames may take to drain before
/// the supervisor gives up waiting for a self-diagnosis.
const DEATH_DRAIN: Duration = Duration::from_millis(300);
/// How long a worker that closed its link gets to actually exit.
const CLOSE_GRACE: Duration = Duration::from_secs(2);
/// How long a `Fatal` symptom report keeps polling for a real corpse
/// before it is accepted as the diagnosis. A dying peer closes its
/// sockets during exit *before* it becomes reapable, so the broken-pipe
/// report it triggers can beat the exit status to the supervisor.
const FATAL_SWEEP_GRACE: Duration = Duration::from_millis(250);
/// How long workers get to exit after `Shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(10);
/// Checkpoint recoveries one run may attempt before the supervisor
/// gives up and reports the underlying failure. Bounds the
/// kill/respawn loop when a fault is persistent rather than transient.
const MAX_RECOVERIES: u64 = 5;

/// Scripted mid-run failure, for exercising the supervisor's
/// diagnosis paths deterministically in tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KillSpec {
    /// No scripted failure.
    #[default]
    None,
    /// The worker for `rank` reports a `FaultPoint` frame at the start
    /// of `round` and wedges; the supervisor SIGKILLs it on receipt.
    /// The run must fail with [`NetError::RankDied`].
    KillAtRound {
        /// The doomed rank.
        rank: u32,
        /// The round it dies at.
        round: u64,
    },
    /// The worker for `rank` wedges at the start of `round` (alive,
    /// heartbeating, never advancing) and is left alone. The run must
    /// fail with [`NetError::Stalled`].
    WedgeAtRound {
        /// The wedging rank.
        rank: u32,
        /// The round it wedges at.
        round: u64,
    },
}

impl KillSpec {
    /// The `die_at_round` option shipped to `rank`'s worker.
    fn die_at_round(self, rank: u32) -> u64 {
        match self {
            KillSpec::KillAtRound { rank: r, round }
            | KillSpec::WedgeAtRound { rank: r, round }
                if r == rank =>
            {
                round
            }
            KillSpec::None | KillSpec::KillAtRound { .. } | KillSpec::WedgeAtRound { .. } => NEVER,
        }
    }
}

/// Supervisor-side configuration of a net run.
#[derive(Clone)]
pub struct NetConfig {
    /// Round cap (safety net against protocol bugs).
    pub max_rounds: u64,
    /// Worker heartbeat period.
    pub heartbeat: Duration,
    /// How long a receiver waits for a missing frame behind newer ones
    /// before declaring [`NetError::FrameLoss`].
    pub gap_deadline: Duration,
    /// How long a rank may go without round progress (while its process
    /// stays alive) before the run fails with [`NetError::Stalled`].
    pub stall_timeout: Duration,
    /// How long the hello/ready handshake may take end to end.
    pub handshake_timeout: Duration,
    /// Fault-injection plan applied to every peer link.
    pub fault: FaultPlan,
    /// Scripted mid-run failures (tests), armed one at a time: the next
    /// entry arms only after the previous one has fired (and, with
    /// checkpointing on, the fleet has relaunched), so a test can kill a
    /// recovered run again. Empty: no scripted failure.
    pub kill_plan: Vec<KillSpec>,
    /// Every how many completed rounds workers snapshot their program
    /// and transport state and ship it to the supervisor
    /// ([`Ctrl::Checkpoint`]). `0` disables checkpointing — worker
    /// death then fails the run with the usual typed [`NetError`].
    /// With a non-zero interval the supervisor retains the most recent
    /// *complete* snapshot set (one per rank, same round edge) and, on
    /// [`NetError::RankDied`]/[`NetError::WorkerFatal`], relaunches the
    /// whole fleet from it instead of failing: sequence-numbered replay
    /// of the gap rounds makes the completed run bit-identical to an
    /// undisturbed one (link-layer counters excepted).
    pub checkpoint_every: u64,
    /// Where merged obs events are replayed. Workers only collect and
    /// ship events when this handle is enabled.
    pub recorder: RecorderHandle,
    /// Explicit worker binary path; `None` = locate or build it.
    pub worker_binary: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_rounds: 1_000_000,
            heartbeat: Duration::from_millis(100),
            gap_deadline: Duration::from_secs(2),
            stall_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(20),
            fault: FaultPlan::default(),
            kill_plan: Vec::new(),
            checkpoint_every: 0,
            recorder: RecorderHandle::noop(),
            worker_binary: None,
        }
    }
}

/// Link-layer counters aggregated over the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTotals {
    /// Per-rank link counters, indexed by rank.
    pub per_rank: Vec<LinkStats>,
    /// Element-wise sum over all ranks.
    pub total: LinkStats,
}

/// The raw result of a net run: per-rank outcomes plus merged stats.
#[derive(Clone, Debug)]
pub struct NetOutcome {
    /// Each rank's share of the algorithm result, indexed by rank.
    pub outcomes: Vec<WorkerOutcome>,
    /// Merged per-rank engine statistics.
    pub stats: RunStats,
    /// Merged link-layer counters.
    pub links: LinkTotals,
    /// Rounds the run executed (max over ranks).
    pub rounds: u64,
    /// Wall-clock seconds: spawn to last worker exit from
    /// [`run_task`], submit to assembled results from a resident
    /// [`NetSession`].
    pub wall_time: f64,
    /// Wall-clock seconds of the round protocol alone: the slowest
    /// rank's own `Start`-receipt-to-final-edge loop clock.
    /// Excludes process spawn, mesh connect, handshake, and result
    /// shipping — the number to compare when the transport itself is
    /// being measured.
    pub round_wall_time: f64,
    /// CPU seconds the worker processes spent inside their round
    /// loops, summed over ranks (all threads; 0 when the platform
    /// exposes no per-task clock). Immune to scheduler contention, so
    /// it is the number to compare on an oversubscribed host.
    pub round_cpu_time: f64,
    /// Final live-telemetry snapshot (the workers' heartbeat counters).
    pub health: RunHealth,
    /// Per-rank clock-offset estimates from the heartbeat/ack
    /// exchanges, indexed by rank (`valid: false` when a rank never
    /// completed an exchange).
    pub clocks: Vec<ClockReport>,
}

impl NetOutcome {
    /// The matching the ranks reported over `n` vertices, checked by
    /// [`assemble_mates`], and its weight: the ranks' own sums, added in
    /// rank order as the in-process runners add them.
    pub fn matching(&self, n: usize) -> Result<(Matching, f64), NetError> {
        let mut shares = Vec::with_capacity(self.outcomes.len());
        let mut weights = Vec::with_capacity(self.outcomes.len());
        for (rank, outcome) in self.outcomes.iter().enumerate() {
            let WorkerOutcome::Matching { pairs, weight } = outcome else {
                return Err(inconsistent(format!(
                    "rank {rank} reported a coloring outcome for a matching run"
                )));
            };
            shares.push(pairs.iter().copied());
            weights.push(*weight);
        }
        let mate = assemble_mates(n, shares).map_err(inconsistent)?;
        Ok((Matching::from_mates(mate), weights.into_iter().sum()))
    }

    /// The coloring the ranks reported over `n` vertices, checked by
    /// [`assemble_colors`], the most boundary phases a rank executed, and
    /// the conflict count: the ranks' own counts, added in rank order.
    pub fn coloring(&self, n: usize) -> Result<(Coloring, u32, usize), NetError> {
        let mut shares = Vec::with_capacity(self.outcomes.len());
        let (mut phases, mut conflicts) = (0, 0);
        for (rank, outcome) in self.outcomes.iter().enumerate() {
            let WorkerOutcome::Coloring {
                pairs,
                phases: p,
                conflicts: c,
            } = outcome
            else {
                return Err(inconsistent(format!(
                    "rank {rank} reported a matching outcome for a coloring run"
                )));
            };
            shares.push(pairs.iter().copied());
            phases = phases.max(*p);
            conflicts += *c as usize;
        }
        let colors = assemble_colors(n, shares).map_err(inconsistent)?;
        Ok((Coloring::from_colors(colors), phases, conflicts))
    }
}

/// Ranks whose reports do not add up to one answer.
fn inconsistent(detail: String) -> NetError {
    NetError::Inconsistent { detail }
}

/// A completed distributed matching run.
#[derive(Clone, Debug)]
pub struct NetMatchingRun {
    /// The assembled global matching.
    pub matching: Matching,
    /// Merged per-rank engine statistics.
    pub stats: RunStats,
    /// Merged link-layer counters.
    pub links: LinkTotals,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Wall-clock seconds.
    pub wall_time: f64,
    /// Wall-clock seconds of the round protocol alone (see
    /// [`NetOutcome::round_wall_time`]).
    pub round_wall_time: f64,
    /// Summed worker round-loop CPU seconds (see
    /// [`NetOutcome::round_cpu_time`]).
    pub round_cpu_time: f64,
}

/// A completed distributed coloring run.
#[derive(Clone, Debug)]
pub struct NetColoringRun {
    /// The assembled global coloring.
    pub coloring: Coloring,
    /// Boundary phases executed (max over ranks).
    pub phases: u32,
    /// Merged per-rank engine statistics.
    pub stats: RunStats,
    /// Merged link-layer counters.
    pub links: LinkTotals,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Wall-clock seconds.
    pub wall_time: f64,
}

/// Runs `task` over `parts` (one [`DistGraph`] per rank) as a
/// multi-process run, returning the raw per-rank outcomes: a
/// [`NetSession`] that lives for one task.
pub fn run_task(
    parts: Vec<DistGraph>,
    task: NetTask,
    cfg: &NetConfig,
) -> Result<NetOutcome, NetError> {
    let started = Instant::now();
    let mut session = NetSession::open(parts, cfg.clone());
    let mut out = session.submit(task)?;
    session.close()?;
    // A one-shot run pays for its fleet's whole life: launch to last
    // worker exit, not just submit to results.
    out.wall_time = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs the distributed matching over `parts` and assembles the global
/// matching, cross-validating the ranks' reports against each other.
pub fn run_matching(parts: Vec<DistGraph>, cfg: &NetConfig) -> Result<NetMatchingRun, NetError> {
    let n: usize = parts.iter().map(|p| p.n_local).sum();
    let out = run_task(parts, NetTask::Matching, cfg)?;
    let (matching, _) = out.matching(n)?;
    Ok(NetMatchingRun {
        matching,
        stats: out.stats,
        links: out.links,
        rounds: out.rounds,
        wall_time: out.wall_time,
        round_wall_time: out.round_wall_time,
        round_cpu_time: out.round_cpu_time,
    })
}

/// Runs the distributed speculative coloring over `parts` and assembles
/// the global coloring.
pub fn run_coloring(
    parts: Vec<DistGraph>,
    config: ColoringConfig,
    cfg: &NetConfig,
) -> Result<NetColoringRun, NetError> {
    let n: usize = parts.iter().map(|p| p.n_local).sum();
    let out = run_task(parts, NetTask::Coloring(config), cfg)?;
    let (coloring, phases, _) = out.coloring(n)?;
    Ok(NetColoringRun {
        coloring,
        phases,
        stats: out.stats,
        links: out.links,
        rounds: out.rounds,
        wall_time: out.wall_time,
    })
}

/// A resident worker fleet that runs a *sequence* of tasks over the
/// same partitions without respawning processes between them.
///
/// [`run_task`] pays the full fleet lifecycle — spawn, handshake,
/// mesh dial — for every task. A session pays it once: workers stay
/// alive after their `Done`, waiting on the supervisor link for either
/// a `Shutdown` or the next `Assignment`, and each retask rebuilds
/// only the peer mesh (over the same bound rank sockets).
///
/// Checkpoint recovery composes unchanged: a worker death mid-task
/// respawns the whole fleet from the task's `last_good` snapshot set
/// (the fresh workers enter the same resident session loop), and the
/// recovery budget resets at each retask. A task that fails
/// unrecoverably poisons the fleet — the session drops it (killing the
/// workers) and the next submit relaunches from scratch.
///
/// Every task in a session shares one `run_id`: traces and telemetry
/// from the whole session merge into a single timeline.
pub struct NetSession {
    /// Shared with the resident [`Run`], which keeps them for recovery.
    parts: Arc<Vec<DistGraph>>,
    cfg: NetConfig,
    run: Option<Run>,
}

impl NetSession {
    /// Creates a session over `parts`. The fleet launches lazily on
    /// the first submit (the wire protocol delivers a task with every
    /// handshake, so there is nothing to start until one exists).
    pub fn open(parts: Vec<DistGraph>, cfg: NetConfig) -> NetSession {
        NetSession {
            parts: Arc::new(parts),
            cfg,
            run: None,
        }
    }

    pub fn num_ranks(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Whether the fleet is currently resident (a prior submit
    /// succeeded and nothing has poisoned it since).
    pub fn is_live(&self) -> bool {
        self.run.is_some()
    }

    /// Mutable access to the session configuration. Changes apply at
    /// the next fleet *launch* — i.e. after a [`close`](Self::close)
    /// or a poisoning failure — not to a resident fleet, which keeps
    /// the configuration it was launched with.
    pub fn config_mut(&mut self) -> &mut NetConfig {
        &mut self.cfg
    }

    /// Runs one task on the resident fleet (launching it first if
    /// needed) and returns the assembled outcome. On any error the
    /// fleet is torn down; the error is returned typed and the next
    /// submit starts a fresh fleet.
    pub fn submit(&mut self, task: NetTask) -> Result<NetOutcome, NetError> {
        let result = self.submit_inner(task);
        if result.is_err() {
            // A failed task leaves the fleet in an unknown protocol
            // state. Dropping the run kills the workers and removes
            // the socket directory.
            self.run = None;
        }
        result
    }

    fn submit_inner(&mut self, task: NetTask) -> Result<NetOutcome, NetError> {
        let started = Instant::now();
        let run = match self.run.as_mut() {
            Some(run) => {
                run.retask(task)?;
                run
            }
            None => {
                let run = Run::launch(Arc::clone(&self.parts), task, &self.cfg)?;
                self.run.insert(run)
            }
        };
        let mut out = run.drive()?;
        if self.cfg.recorder.enabled() {
            run.replay_events(&self.cfg.recorder)?;
        }
        out.wall_time = started.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Gracefully shuts the resident fleet down. Subsequent submits
    /// relaunch. A session dropped without closing still kills its
    /// workers (via the fleet's drop), just less politely.
    pub fn close(&mut self) -> Result<(), NetError> {
        match self.run.take() {
            Some(mut run) => run.shutdown_fleet(),
            None => Ok(()),
        }
    }
}

/// Every partition must be labeled with its index and the fleet size.
fn check_labels(parts: &[DistGraph]) -> Result<(), NetError> {
    let num_ranks = parts.len() as u32;
    for (i, p) in parts.iter().enumerate() {
        if p.rank != i as u32 || p.num_ranks != num_ranks {
            return Err(NetError::Inconsistent {
                detail: format!(
                    "partition {i} labeled rank {}/{} in a {num_ranks}-rank run",
                    p.rank, p.num_ranks
                ),
            });
        }
    }
    Ok(())
}

/// Re-types a worker's `Fatal` payload: structured `FRAME_LOSS`
/// reports become [`NetError::FrameLoss`], everything else
/// [`NetError::WorkerFatal`].
fn parse_fatal(rank: u32, message: &str) -> NetError {
    if let Some(rest) = message.strip_prefix("FRAME_LOSS ") {
        let head = rest.split(';').next().unwrap_or_default();
        let mut from = None;
        let mut seq = None;
        let mut waited_ms = None;
        for token in head.split_whitespace() {
            if let Some(v) = token.strip_prefix("from=") {
                from = v.parse::<u32>().ok();
            } else if let Some(v) = token.strip_prefix("seq=") {
                seq = v.parse::<u64>().ok();
            } else if let Some(v) = token.strip_prefix("waited_ms=") {
                waited_ms = v.parse::<u64>().ok();
            }
        }
        if let (Some(from), Some(expected_seq), Some(ms)) = (from, seq, waited_ms) {
            return NetError::FrameLoss {
                rank,
                from,
                expected_seq,
                waited: Duration::from_millis(ms),
            };
        }
    }
    NetError::WorkerFatal {
        rank,
        message: message.to_string(),
    }
}

/// Monotonic per-process run counter, keeping socket directories of
/// concurrent runs (parallel tests) disjoint.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh, short socket directory (Unix socket paths are limited to
/// ~108 bytes, so this stays terse).
fn fresh_sock_dir() -> Result<PathBuf, NetError> {
    let dir = std::env::temp_dir().join(format!(
        "cmg-net-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| NetError::io("creating socket directory", e))?;
    Ok(dir)
}

/// Locates the worker binary: explicit config, `CMG_NET_WORKER`, a
/// `cargo build` for test binaries, a sibling of the current executable,
/// or a `cargo build` fallback.
fn worker_binary_path(explicit: Option<&Path>) -> Result<PathBuf, NetError> {
    if let Some(p) = explicit {
        if p.exists() {
            return Ok(p.to_path_buf());
        }
        return Err(NetError::WorkerBinary {
            detail: format!("configured path {} does not exist", p.display()),
        });
    }
    if let Ok(p) = std::env::var("CMG_NET_WORKER") {
        let p = PathBuf::from(p);
        if p.exists() {
            return Ok(p);
        }
        return Err(NetError::WorkerBinary {
            detail: format!("CMG_NET_WORKER={} does not exist", p.display()),
        });
    }
    let exe = std::env::current_exe().ok();
    let built = if let Some(target) = exe.as_deref().and_then(test_target_dir) {
        // A test binary runs the worker it was compiled with, never a
        // stale one an earlier build left in its target directory: cargo
        // rebuilds it if anything it depends on changed, once per process.
        static BUILT: OnceLock<Result<PathBuf, String>> = OnceLock::new();
        BUILT
            .get_or_init(|| build_worker_binary(Some(&target)))
            .clone()
    } else {
        match exe.and_then(|exe| Some(exe.parent()?.join("cmg-net-worker"))) {
            Some(sibling) if sibling.exists() => Ok(sibling),
            _ => build_worker_binary(None),
        }
    };
    built.map_err(|detail| NetError::WorkerBinary { detail })
}

/// The cargo target directory a test binary (`<target>/<profile>/deps/`)
/// was built in; `None` for any other executable.
fn test_target_dir(exe: &Path) -> Option<PathBuf> {
    let deps = exe.parent()?;
    let target = deps.parent()?.parent()?;
    (deps.file_name()? == "deps").then(|| target.to_path_buf())
}

/// Builds the worker binary via cargo into `target` (the workspace's
/// `target/` when `None`): tests of dependent packages do not build this
/// crate's binaries, and the cargo file lock serializes concurrent
/// builders.
fn build_worker_binary(target: Option<&Path>) -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(workspace) = manifest.ancestors().nth(2) else {
        return Err(format!("no workspace root above {}", manifest.display()));
    };
    let target = target.map_or_else(|| workspace.join("target"), Path::to_path_buf);
    let release = cfg!(not(debug_assertions));
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "-q", "-p", "cmg-net", "--bin", "cmg-net-worker"])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(workspace)
        .stdout(Stdio::null());
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("running cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build exited with {status}"));
    }
    let built = target
        .join(if release { "release" } else { "debug" })
        .join("cmg-net-worker");
    if built.exists() {
        Ok(built)
    } else {
        Err(format!(
            "cargo build succeeded but {} is absent",
            built.display()
        ))
    }
}

/// What a supervisor-side reader thread can report.
enum SupEvent {
    /// A frame from `rank`'s worker.
    Frame { rank: u32, frame: Frame },
    /// `rank`'s worker closed its link.
    Closed { rank: u32 },
    /// Reading `rank`'s link failed.
    ReadFailed { rank: u32, error: NetError },
}

/// Owns the worker processes and the socket directory; killing and
/// removing both on drop is what makes every early error return clean.
struct Fleet {
    dir: PathBuf,
    procs: Vec<Child>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.procs {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything one fleet launch needs to spawn and admit its workers —
/// shared between the first launch and checkpoint-recovery relaunches.
struct LaunchPlan<'a> {
    parts: &'a [DistGraph],
    task: NetTask,
    cfg: &'a NetConfig,
    observed: bool,
    run_id: u64,
    /// The currently armed scripted failure (front of the kill queue).
    kill: KillSpec,
    /// `Some((round, per-rank payloads))` relaunches every rank from
    /// the checkpoint set taken at that round edge; `None` starts
    /// from round zero.
    resume: Option<&'a (u64, Vec<Vec<u8>>)>,
}

impl LaunchPlan<'_> {
    /// Ships `rank` its assignment, encoded from the borrowed slice
    /// straight into the wire buffer. The one function first launches,
    /// checkpoint relaunches and session retasks all ship through, so run
    /// options can never drift between the paths.
    fn ship(&self, rank: u32, w: &mut LinkWriter<UnixStream>) -> Result<(), NetError> {
        let opts = RunOptions {
            observed: self.observed,
            max_rounds: self.cfg.max_rounds,
            heartbeat_millis: self.cfg.heartbeat.as_millis() as u64,
            gap_deadline_millis: self.cfg.gap_deadline.as_millis() as u64,
            fault: self.cfg.fault,
            die_at_round: self.kill.die_at_round(rank),
            run_id: self.run_id,
            checkpoint_every: self.cfg.checkpoint_every,
        };
        let resume = self
            .resume
            .map(|(round, blobs)| (*round, blobs[rank as usize].as_slice()));
        send_assignment(w, &self.parts[rank as usize], &self.task, &opts, resume)
    }
}

/// One in-flight run: the fleet, the per-worker links, and the
/// event-loop state.
struct Run {
    num_ranks: u32,
    // Retained inputs, so a checkpoint recovery can relaunch the fleet.
    parts: Arc<Vec<DistGraph>>,
    task: NetTask,
    cfg: NetConfig,
    observed: bool,
    run_id: u64,
    fleet: Fleet,
    writers: Vec<LinkWriter<UnixStream>>,
    rx: Receiver<SupEvent>,
    /// Remaining scripted failures; the front entry is armed.
    kill_queue: VecDeque<KillSpec>,
    launched: Instant,
    ready: Vec<bool>,
    started: Option<Instant>,
    last_round: Vec<u64>,
    last_progress: Vec<Instant>,
    /// Set when a stall first times out; blame is assigned only after a
    /// short grace so in-flight heartbeat beacons can land first (a
    /// starved-but-healthy rank's stale beacon must not out-stall the
    /// genuinely wedged rank's frozen one).
    stall_since: Option<Instant>,
    done: Vec<Option<(u64, bool)>>,
    stats: Vec<Option<(RankStats, LinkStats)>>,
    outcomes: Vec<Option<WorkerOutcome>>,
    events: Vec<Option<String>>,
    health: RunHealth,
    clocks: Vec<Option<ClockReport>>,
    max_loop_micros: u64,
    sum_cpu_micros: u64,
    /// Checkpoint sets still missing some rank's payload, by round edge.
    pending_sets: BTreeMap<u64, Vec<Option<Vec<u8>>>>,
    /// The most recent complete checkpoint set: every rank's payload
    /// for the same round edge. What a recovery relaunches from.
    last_good: Option<(u64, Vec<Vec<u8>>)>,
    /// Checkpoint recoveries performed so far.
    recoveries: u64,
    /// Set while a recovery relaunch is waiting for its `Start`;
    /// cleared (and its latency recorded) when the fleet restarts.
    recovering_since: Option<Instant>,
}

/// Everything a freshly spawned fleet hands back to the supervisor loop:
/// the process table, one writer per rank, and the merged event channel.
type SpawnedFleet = (Fleet, Vec<LinkWriter<UnixStream>>, Receiver<SupEvent>);

/// Spawns one worker per rank in a fresh socket directory, referees the
/// hello handshake, ships assignments (with the plan's resume section,
/// if any), and starts the reader threads. Shared by the first launch
/// and checkpoint-recovery relaunches; each call gets its own socket
/// directory and event channel, so a relaunch is fully isolated from
/// any straggling process of the fleet it replaces.
fn spawn_fleet(plan: &LaunchPlan) -> Result<SpawnedFleet, NetError> {
    let num_ranks = plan.parts.len() as u32;
    let dir = fresh_sock_dir()?;
    let mut fleet = Fleet {
        dir: dir.clone(),
        procs: Vec::with_capacity(num_ranks as usize),
    };
    let listener = UnixListener::bind(dir.join("sup.sock"))
        .map_err(|e| NetError::io("binding the supervisor socket", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("making the supervisor socket non-blocking", e))?;
    let binary = worker_binary_path(plan.cfg.worker_binary.as_deref())?;

    // Spawn the workers and accept one connection per worker; its Hello
    // says which rank dialed. Each accepted worker is admitted on its own
    // scoped thread, so the ranks' encode → transfer → decode chains
    // overlap each other and the spawning of later ranks, while this loop
    // keeps accepting and watching for workers that die first.
    let mut writers: Vec<Option<LinkWriter<UnixStream>>> = (0..num_ranks).map(|_| None).collect();
    let claimed: Vec<AtomicBool> = (0..num_ranks).map(|_| AtomicBool::new(false)).collect();
    let (tx, rx) = channel();
    let (admitted_tx, admitted_rx) = channel();
    let handshake_started = Instant::now();
    std::thread::scope(|s| -> Result<(), NetError> {
        let mut connected = 0;
        while connected < num_ranks {
            let spawned = fleet.procs.len() as u32;
            if spawned < num_ranks {
                let child = Command::new(&binary)
                    .arg(&dir)
                    .arg(spawned.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|source| NetError::Spawn {
                        rank: spawned,
                        source,
                    })?;
                fleet.procs.push(child);
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let (admitted_tx, tx, claimed) = (admitted_tx.clone(), tx.clone(), &claimed);
                    s.spawn(move || {
                        let _ = admitted_tx.send(admit(stream, plan, claimed, &tx));
                    });
                    continue;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io("accepting a worker connection", e)),
            }
            let spawning = fleet.procs.len() < num_ranks as usize;
            let wait = if spawning {
                Duration::ZERO
            } else {
                HANDSHAKE_POLL
            };
            if let Ok(admitted) = admitted_rx.recv_timeout(wait) {
                let (rank, writer) = admitted?;
                writers[rank as usize] = Some(writer);
                connected += 1;
                continue;
            }
            if handshake_started.elapsed() > plan.cfg.handshake_timeout {
                return Err(NetError::Handshake {
                    waiting_for: format!(
                        "hello from {} of {num_ranks} workers",
                        num_ranks - connected
                    ),
                    waited: handshake_started.elapsed(),
                });
            }
            // A worker that died before it was admitted would
            // otherwise burn the whole handshake timeout.
            for (rank, child) in fleet.procs.iter_mut().enumerate() {
                if writers[rank].is_none() {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(NetError::RankDied {
                            rank: rank as u32,
                            signal: status.signal(),
                            status: Some(status),
                            context: "during the handshake".into(),
                        });
                    }
                }
            }
        }
        Ok(())
    })?;
    let writers = writers
        .into_iter()
        .map(|w| w.ok_or_else(|| NetError::protocol("handshake finished with a missing worker")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((fleet, writers, rx))
}

/// Admits one accepted connection: reads its Hello, claims the rank,
/// ships the matching assignment, and starts its reader thread.
fn admit(
    stream: UnixStream,
    plan: &LaunchPlan,
    claimed: &[AtomicBool],
    tx: &Sender<SupEvent>,
) -> Result<(u32, LinkWriter<UnixStream>), NetError> {
    stream
        .set_nonblocking(false)
        .map_err(|e| NetError::io("making a worker stream blocking", e))?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| NetError::io("setting a worker write timeout", e))?;
    let mut read_half = stream
        .try_clone()
        .map_err(|e| NetError::io("cloning a worker stream", e))?;
    let (_, hello) = match read_frame(&mut read_half)? {
        Some(pair) => pair,
        None => return Err(NetError::protocol("worker closed during its hello")),
    };
    let rank = hello_rank(&hello, "worker")?;
    match claimed.get(rank as usize) {
        None => {
            return Err(NetError::protocol(format!(
                "hello from out-of-range rank {rank}"
            )))
        }
        Some(slot) if slot.swap(true, Ordering::Relaxed) => {
            return Err(NetError::protocol(format!("rank {rank} dialed twice")));
        }
        Some(_) => {}
    }
    let mut writer = LinkWriter::new(stream);
    plan.ship(rank, &mut writer)?;
    let tx = tx.clone();
    let _ = std::thread::spawn(move || loop {
        match read_frame(&mut read_half) {
            Ok(Some((_, frame))) => {
                if tx.send(SupEvent::Frame { rank, frame }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(SupEvent::Closed { rank });
                return;
            }
            Err(error) => {
                let _ = tx.send(SupEvent::ReadFailed { rank, error });
                return;
            }
        }
    });
    Ok((rank, writer))
}

impl Run {
    /// Spawns the fleet, runs the hello handshake, and ships every rank
    /// its assignment.
    fn launch(parts: Arc<Vec<DistGraph>>, task: NetTask, cfg: &NetConfig) -> Result<Run, NetError> {
        let num_ranks = parts.len() as u32;
        if num_ranks == 0 {
            return Err(NetError::Inconsistent {
                detail: "a run needs at least one partition".into(),
            });
        }
        check_labels(&parts)?;

        let observed = cfg.recorder.enabled();
        // A compact run identity carried in every assignment, so traces
        // and telemetry from different concurrent runs never merge:
        // this process plus this process's run counter. Relaunched
        // fleets keep the identity of the run they resume.
        let run_id =
            (u64::from(std::process::id()) << 32) | RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let kill_queue: VecDeque<KillSpec> = cfg.kill_plan.iter().copied().collect();
        let plan = LaunchPlan {
            parts: &parts,
            task,
            cfg,
            observed,
            run_id,
            kill: kill_queue.front().copied().unwrap_or_default(),
            resume: None,
        };
        let (fleet, writers, rx) = spawn_fleet(&plan)?;

        let now = Instant::now();
        Ok(Run {
            num_ranks,
            parts,
            task,
            cfg: cfg.clone(),
            observed,
            run_id,
            fleet,
            writers,
            rx,
            kill_queue,
            launched: now,
            ready: vec![false; num_ranks as usize],
            started: None,
            last_round: vec![0; num_ranks as usize],
            last_progress: vec![now; num_ranks as usize],
            stall_since: None,
            done: vec![None; num_ranks as usize],
            stats: vec![None; num_ranks as usize],
            outcomes: vec![None; num_ranks as usize],
            events: vec![None; num_ranks as usize],
            health: RunHealth::new(num_ranks as usize),
            clocks: vec![None; num_ranks as usize],
            max_loop_micros: 0,
            sum_cpu_micros: 0,
            pending_sets: BTreeMap::new(),
            last_good: None,
            recoveries: 0,
            recovering_since: None,
        })
    }

    /// The event loop: drives the task to completion (all ranks `Done`)
    /// or to a diagnosed failure, then assembles the merged results.
    /// The fleet stays resident, ready for a [`retask`](Self::retask) or
    /// a shutdown. With checkpointing enabled, a worker death is not
    /// final: the fleet relaunches from the last complete snapshot set
    /// (bounded by [`MAX_RECOVERIES`]) — its workers enter the same
    /// session loop — and the loop re-enters.
    fn drive(&mut self) -> Result<NetOutcome, NetError> {
        loop {
            match self.drive_to_done() {
                Ok(()) => break,
                Err(e) if self.recoverable(&e) => self.recover()?,
                Err(e) => return Err(e),
            }
        }
        self.assemble()
    }

    /// Ships a fresh assignment to every resident worker and resets the
    /// per-task event-loop state, leaving the fleet (processes, links,
    /// reader threads) in place. Only valid after the previous task
    /// fully assembled — the results plane is strictly ordered
    /// (Stats/Outcome/Events precede Done on each per-link FIFO), so no
    /// frame of the finished task can still be in flight here.
    fn retask(&mut self, task: NetTask) -> Result<(), NetError> {
        self.task = task;
        // The writers step aside while the plan borrows the rest of `self`.
        let mut writers = std::mem::take(&mut self.writers);
        let shipped = (0..)
            .zip(&mut writers)
            .try_for_each(|(r, w)| self.plan(None).ship(r, w));
        self.writers = writers;
        shipped?;
        self.reset_progress();
        // Checkpoints belong to the task that took them; resuming the
        // new task from an old task's snapshot would be corruption, so
        // the recovery budget and baseline reset together.
        self.last_good = None;
        self.recoveries = 0;
        self.recovering_since = None;
        Ok(())
    }

    /// The launch plan of the current task under the armed kill;
    /// `resume` relaunches every rank from that checkpoint set.
    fn plan<'a>(&'a self, resume: Option<&'a (u64, Vec<Vec<u8>>)>) -> LaunchPlan<'a> {
        LaunchPlan {
            parts: &self.parts,
            task: self.task,
            cfg: &self.cfg,
            observed: self.observed,
            run_id: self.run_id,
            kill: self.kill_queue.front().copied().unwrap_or_default(),
            resume,
        }
    }

    /// Forgets everything the previous task or fleet incarnation
    /// reported: nothing ready, started, done or half-checkpointed.
    fn reset_progress(&mut self) {
        let n = self.num_ranks as usize;
        let now = Instant::now();
        self.launched = now;
        self.ready = vec![false; n];
        self.started = None;
        self.last_round = vec![0; n];
        self.last_progress = vec![now; n];
        self.stall_since = None;
        self.done = vec![None; n];
        self.stats = vec![None; n];
        self.outcomes = vec![None; n];
        self.events = vec![None; n];
        self.clocks = vec![None; n];
        self.max_loop_micros = 0;
        self.sum_cpu_micros = 0;
        // Incomplete sets died with the old task or fleet; a relaunched
        // fleet re-ships identical checkpoints at the same future edges.
        self.pending_sets.clear();
    }

    /// Runs the event loop until every rank reports `Done` or a failure
    /// is diagnosed.
    fn drive_to_done(&mut self) -> Result<(), NetError> {
        while !self.done.iter().all(Option::is_some) {
            match self.rx.recv_timeout(TICK) {
                Ok(ev) => self.dispatch(ev)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.sweep(None)?;
                    return Err(NetError::protocol("every worker link closed mid-run"));
                }
            }
            while let Ok(ev) = self.rx.try_recv() {
                self.dispatch(ev)?;
            }
            self.sweep(None)?;
            self.maybe_start()?;
            self.check_stall()?;
            if self.started.is_none() && self.launched.elapsed() > self.cfg.handshake_timeout {
                return Err(NetError::Handshake {
                    waiting_for: format!(
                        "ready from {} workers",
                        self.ready.iter().filter(|&&r| !r).count()
                    ),
                    waited: self.launched.elapsed(),
                });
            }
        }
        Ok(())
    }

    /// Whether a failure is worth a checkpoint recovery: checkpointing
    /// is on, the retry budget remains, and the diagnosis is a worker
    /// loss (dead process or self-reported fatal) rather than a
    /// protocol bug, a stall, or an infrastructure error.
    fn recoverable(&self, e: &NetError) -> bool {
        self.cfg.checkpoint_every > 0
            && self.recoveries < MAX_RECOVERIES
            && matches!(e, NetError::RankDied { .. } | NetError::WorkerFatal { .. })
    }

    /// Relaunches the whole fleet from the last complete checkpoint
    /// set (or from round zero if none completed yet).
    ///
    /// BSP makes the per-rank snapshots taken at the same round edge a
    /// consistent global state: every message of rounds `<= R` has been
    /// delivered, none of round `R + 1` sent. Surviving workers hold
    /// state *past* that edge which cannot be rolled back piecemeal, so
    /// recovery is collective — kill the survivors, respawn all ranks
    /// in a fresh socket directory, and hand each its own snapshot.
    /// Every rank resumes at round `R + 1` with its writer sequence
    /// numbers and resequencer floors restored, so any frames the
    /// previous incarnation had sent beyond the edge are re-sent under
    /// their original sequence numbers and dup-discarded by receivers
    /// that already consumed them. The resumed run's results and
    /// engine statistics are bit-identical to an undisturbed run.
    fn recover(&mut self) -> Result<(), NetError> {
        let detected = Instant::now();
        // Kill the survivors first: their post-edge state is tainted,
        // and a straggler must not keep dialing while we relaunch.
        for c in &mut self.fleet.procs {
            let _ = c.kill();
            let _ = c.wait();
        }
        let (fleet, writers, rx) = spawn_fleet(&self.plan(self.last_good.as_ref()))?;
        // Dropping the old fleet reaps the corpses and removes its
        // socket directory; dropping the old receiver makes the old
        // reader threads exit on their next send.
        self.fleet = fleet;
        self.writers = writers;
        self.rx = rx;
        self.reset_progress();
        self.recoveries += 1;
        self.recovering_since = Some(detected);
        Ok(())
    }

    fn dispatch(&mut self, ev: SupEvent) -> Result<(), NetError> {
        match ev {
            SupEvent::Frame { rank, frame } => self.on_frame(rank, frame),
            SupEvent::Closed { rank } => self.on_closed(rank, None),
            SupEvent::ReadFailed { rank, error } => self.on_closed(rank, Some(error)),
        }
    }

    fn on_frame(&mut self, rank: u32, frame: Frame) -> Result<(), NetError> {
        let r = rank as usize;
        if r >= self.num_ranks as usize {
            return Err(NetError::protocol(format!(
                "frame from out-of-range rank {rank}"
            )));
        }
        match frame.ctrl {
            Ctrl::Ready { rank: said } if said == rank => {
                self.ready[r] = true;
                Ok(())
            }
            Ctrl::Heartbeat {
                rank: said,
                round,
                sent_micros,
            } if said == rank => {
                if round > self.last_round[r] {
                    self.last_round[r] = round;
                    self.last_progress[r] = Instant::now();
                }
                self.health.observe(decode_telemetry(&frame.payload)?);
                // Echo the worker's stamp with our own clock so it can
                // estimate its offset (NTP-style); nothing to estimate
                // against until both clocks have an epoch.
                if sent_micros != NO_STAMP {
                    if let Some(started) = self.started {
                        let ack = Frame::bare(Ctrl::HeartbeatAck {
                            rank,
                            echo_micros: sent_micros,
                            sup_micros: started.elapsed().as_micros() as u64,
                        });
                        self.writers[r].send(&ack)?;
                    }
                }
                Ok(())
            }
            Ctrl::FaultPoint { rank: said, .. } if said == rank => {
                if matches!(
                    self.kill_queue.front(),
                    Some(KillSpec::KillAtRound { rank: k, .. }) if *k == rank
                ) {
                    // `Child::kill` is SIGKILL on Unix: the worker gets
                    // no chance to report anything, which is the point.
                    // The fired entry retires so a recovery relaunch
                    // arms the next one instead of re-killing forever.
                    let _ = self.fleet.procs[r].kill();
                    self.kill_queue.pop_front();
                }
                Ok(())
            }
            Ctrl::Checkpoint {
                rank: said, round, ..
            } if said == rank => {
                self.note_checkpoint(r, round, frame.payload.to_vec());
                Ok(())
            }
            Ctrl::Stats { rank: said } if said == rank => {
                let (rank_stats, link, clock, loop_clock) = decode_stats(&frame.payload)?;
                self.stats[r] = Some((rank_stats, link));
                self.clocks[r] = Some(clock);
                self.max_loop_micros = self.max_loop_micros.max(loop_clock.wall_micros);
                self.sum_cpu_micros += loop_clock.cpu_micros;
                Ok(())
            }
            Ctrl::Outcome { rank: said } if said == rank => {
                self.outcomes[r] = Some(decode_outcome(&frame.payload)?);
                Ok(())
            }
            Ctrl::Events { rank: said } if said == rank => {
                let text = String::from_utf8(frame.payload.to_vec()).map_err(|_| {
                    NetError::protocol(format!("rank {rank} sent non-UTF-8 events"))
                })?;
                self.events[r] = Some(text);
                Ok(())
            }
            Ctrl::Done {
                rank: said,
                rounds,
                cap,
            } if said == rank => {
                self.done[r] = Some((rounds, cap != 0));
                // `last_round` is in the worker's half-round beacon units.
                self.last_round[r] = rounds.saturating_mul(2);
                self.last_progress[r] = Instant::now();
                Ok(())
            }
            Ctrl::Fatal { rank: said } if said == rank => {
                let message = String::from_utf8_lossy(&frame.payload).to_string();
                // A worker reporting someone else's symptom (e.g. "peer
                // link closed") must not outrank the actual death:
                // check every OTHER worker's pulse first, and keep
                // polling through the exit-vs-reapable window (see
                // `FATAL_SWEEP_GRACE`) before settling for the symptom.
                let deadline = Instant::now() + FATAL_SWEEP_GRACE;
                loop {
                    self.sweep(Some(rank))?;
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(parse_fatal(rank, &message))
            }
            other @ (Ctrl::Hello { .. }
            | Ctrl::Assignment { .. }
            | Ctrl::Ready { .. }
            | Ctrl::Start
            | Ctrl::RoundBundle { .. }
            | Ctrl::Heartbeat { .. }
            | Ctrl::FaultPoint { .. }
            | Ctrl::Stats { .. }
            | Ctrl::Outcome { .. }
            | Ctrl::Events { .. }
            | Ctrl::Done { .. }
            | Ctrl::Shutdown
            | Ctrl::Fatal { .. }
            | Ctrl::HeartbeatAck { .. }
            | Ctrl::RoundDone { .. }
            | Ctrl::Checkpoint { .. }
            | Ctrl::MutateBatch { .. }
            | Ctrl::MutateAck { .. }
            | Ctrl::Query { .. }
            | Ctrl::QueryReply { .. }
            | Ctrl::SessionEnd) => Err(NetError::protocol(format!(
                "unexpected {other:?} frame from rank {rank} on the supervisor plane"
            ))),
        }
    }

    /// Files one rank's checkpoint payload under its round edge. When
    /// the set completes (every rank shipped that edge) it becomes the
    /// new `last_good` and every older partial set is pruned — a rank
    /// death can only strand *newer* edges incomplete, and those stay
    /// pending until their missing payloads arrive or a recovery
    /// clears them.
    fn note_checkpoint(&mut self, r: usize, round: u64, payload: Vec<u8>) {
        let n = self.num_ranks as usize;
        let set = self
            .pending_sets
            .entry(round)
            .or_insert_with(|| vec![None; n]);
        set[r] = Some(payload);
        if set.iter().all(Option::is_some) {
            let Some(set) = self.pending_sets.remove(&round) else {
                return;
            };
            let full: Vec<Vec<u8>> = set.into_iter().flatten().collect();
            if full.len() == n && self.last_good.as_ref().is_none_or(|(g, _)| *g < round) {
                self.last_good = Some((round, full));
            }
            self.pending_sets.retain(|&edge, _| edge > round);
        }
    }

    /// A worker hung up (EOF or read error) without `Done`: its exit
    /// status is the real diagnosis, so give it a moment to exit.
    fn on_closed(&mut self, rank: u32, error: Option<NetError>) -> Result<(), NetError> {
        let r = rank as usize;
        if r >= self.num_ranks as usize || self.done[r].is_some() {
            return Ok(());
        }
        let deadline = Instant::now() + CLOSE_GRACE;
        loop {
            match self.fleet.procs[r].try_wait() {
                Ok(Some(status)) => return Err(self.diagnose_dead(rank, status)),
                Ok(None) => {}
                Err(e) => return Err(NetError::io("polling a worker exit status", e)),
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(error.unwrap_or_else(|| {
            NetError::protocol(format!(
                "rank {rank} closed its supervisor link mid-run but its process is still alive"
            ))
        }))
    }

    /// Polls every unfinished worker's exit status; a dead one fails
    /// the run as [`NetError::RankDied`]. `excluding` skips the rank
    /// whose own report is currently being handled.
    fn sweep(&mut self, excluding: Option<u32>) -> Result<(), NetError> {
        for r in 0..self.num_ranks as usize {
            if self.done[r].is_some() || excluding == Some(r as u32) {
                continue;
            }
            match self.fleet.procs[r].try_wait() {
                Ok(Some(status)) => return Err(self.diagnose_dead(r as u32, status)),
                Ok(None) => {}
                Err(e) => return Err(NetError::io("polling a worker exit status", e)),
            }
        }
        Ok(())
    }

    /// A worker is dead without `Done`. Drain its already-queued frames
    /// briefly: a `Fatal` it managed to send before exiting is a better
    /// diagnosis than the bare exit status.
    fn diagnose_dead(&mut self, rank: u32, status: ExitStatus) -> NetError {
        let deadline = Instant::now() + DEATH_DRAIN;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.rx.recv_timeout(left) {
                Ok(SupEvent::Frame { rank: r, frame }) if r == rank => {
                    if let Ctrl::Fatal { .. } = frame.ctrl {
                        return parse_fatal(rank, &String::from_utf8_lossy(&frame.payload));
                    }
                }
                // A survivor's checkpoint racing the death may complete
                // a set; filing it here lets the recovery resume from
                // the freshest edge instead of silently dropping it.
                Ok(SupEvent::Frame { rank: r, frame }) => {
                    if let Ctrl::Checkpoint { round, .. } = frame.ctrl {
                        self.note_checkpoint(r as usize, round, frame.payload.to_vec());
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        NetError::RankDied {
            rank,
            signal: status.signal(),
            status: Some(status),
            context: format!(
                "mid-run, last reported round {}",
                self.last_round[rank as usize] / 2
            ),
        }
    }

    /// Sends `Start` once every rank reported `Ready`.
    fn maybe_start(&mut self) -> Result<(), NetError> {
        if self.started.is_some() || !self.ready.iter().all(|&r| r) {
            return Ok(());
        }
        for w in &mut self.writers {
            w.send(&Frame::bare(Ctrl::Start))?;
        }
        let now = Instant::now();
        self.started = Some(now);
        for p in &mut self.last_progress {
            *p = now;
        }
        // A relaunched fleet just restarted: the detection-to-restart
        // latency is the recovery cost the benches report.
        if let Some(t0) = self.recovering_since.take() {
            self.health.note_recovery(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Fails the run if any unfinished rank has gone a full stall
    /// timeout without round progress while its process stayed alive.
    /// The least-advanced such rank is the culprit (its peers are
    /// usually just blocked waiting for it).
    fn check_stall(&mut self) -> Result<(), NetError> {
        if self.started.is_none() {
            return Ok(());
        }
        let mut worst: Option<usize> = None;
        for r in 0..self.num_ranks as usize {
            if self.done[r].is_some() || self.last_progress[r].elapsed() < self.cfg.stall_timeout {
                continue;
            }
            if worst.is_none_or(|w| self.last_round[r] < self.last_round[w]) {
                worst = Some(r);
            }
        }
        let Some(r) = worst else {
            self.stall_since = None;
            return Ok(());
        };
        // Blame grace: the timeout fires on the supervisor's *view* of
        // the beacons, and on a loaded host a healthy rank's heartbeat
        // thread can be starved long enough that its stale beacon reads
        // further behind than the truly wedged rank's frozen one. Keep
        // draining events for a couple of heartbeat periods before
        // assigning blame — late beacons refresh healthy ranks out of
        // the timed-out set, while a wedged rank's beacon can never
        // advance, so waiting only sharpens the verdict.
        let grace = self
            .cfg
            .heartbeat
            .saturating_mul(2)
            .max(Duration::from_millis(100));
        match self.stall_since {
            None => {
                self.stall_since = Some(Instant::now());
                return Ok(());
            }
            Some(t0) if t0.elapsed() < grace => return Ok(()),
            // Grace over: `worst`, recomputed fresh above this call,
            // now reflects every beacon that landed during the grace.
            Some(_) => {}
        }
        Err(NetError::Stalled {
            rank: r as u32,
            // Beacon units are half-rounds; report whole rounds.
            round: self.last_round[r] / 2,
            waited: self.last_progress[r].elapsed(),
        })
    }

    /// Sends `Shutdown` to every worker, waits (bounded) for each one's
    /// link EOF — a worker's sockets close as its process exits, and the
    /// reader threads report exactly that — and reaps those; stragglers
    /// are killed by the fleet's drop.
    fn shutdown_fleet(&mut self) -> Result<(), NetError> {
        for w in &mut self.writers {
            w.send(&Frame::bare(Ctrl::Shutdown))?;
        }
        let deadline = Instant::now() + EXIT_GRACE;
        let mut closed = vec![false; self.num_ranks as usize];
        while !closed.iter().all(|&c| c) {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(SupEvent::Closed { rank } | SupEvent::ReadFailed { rank, .. }) => {
                    closed[rank as usize] = true;
                }
                Ok(SupEvent::Frame { .. }) => {}
                Err(_) => break,
            }
        }
        for (c, _) in self
            .fleet
            .procs
            .iter_mut()
            .zip(closed)
            .filter(|(_, eof)| *eof)
        {
            c.wait()
                .map_err(|e| NetError::io("waiting for a worker to exit", e))?;
        }
        Ok(())
    }

    /// Merges the collected per-rank reports into the run result (its
    /// `wall_time` is the caller's to stamp).
    fn assemble(&mut self) -> Result<NetOutcome, NetError> {
        let mut rounds = 0;
        for (r, d) in self.done.iter().enumerate() {
            let (worker_rounds, cap) = d.ok_or_else(|| NetError::Inconsistent {
                detail: format!("rank {r} never reported Done"),
            })?;
            if cap {
                return Err(NetError::RoundCap {
                    max_rounds: self.cfg.max_rounds,
                });
            }
            rounds = rounds.max(worker_rounds);
        }
        let mut per_rank = Vec::with_capacity(self.num_ranks as usize);
        let mut links = LinkTotals::default();
        for (r, s) in self.stats.iter().enumerate() {
            let Some((rank_stats, link)) = s.clone() else {
                return Err(NetError::Inconsistent {
                    detail: format!("rank {r} reported Done without Stats"),
                });
            };
            per_rank.push(rank_stats);
            links.total.merge(&link);
            links.per_rank.push(link);
        }
        let outcomes = self
            .outcomes
            .iter_mut()
            .enumerate()
            .map(|(r, o)| {
                o.take().ok_or_else(|| NetError::Inconsistent {
                    detail: format!("rank {r} reported Done without an Outcome"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NetOutcome {
            outcomes,
            stats: RunStats { per_rank, rounds },
            links,
            rounds,
            wall_time: 0.0,
            round_wall_time: self.max_loop_micros as f64 / 1e6,
            round_cpu_time: self.sum_cpu_micros as f64 / 1e6,
            health: self.health.clone(),
            clocks: self.clocks.iter().map(|c| c.unwrap_or_default()).collect(),
        })
    }

    /// Replays every rank's shipped obs events, merged in time order,
    /// into `recorder`. Each rank's timestamps are measured against its
    /// own `Start` epoch; the clock offset estimated from that rank's
    /// heartbeat/ack exchanges shifts them onto the supervisor's
    /// timeline before the merge, so cross-rank ordering in the merged
    /// trace reflects real time, not per-process epoch skew.
    fn replay_events(&mut self, recorder: &RecorderHandle) -> Result<(), NetError> {
        let mut merged: Vec<TimedEvent> = Vec::new();
        for (r, text) in self.events.iter().enumerate() {
            let Some(text) = text else {
                return Err(NetError::Inconsistent {
                    detail: format!("observed run but rank {r} shipped no events"),
                });
            };
            let offset_s = self.clocks[r]
                .filter(|c| c.valid)
                .map_or(0.0, |c| c.offset_micros as f64 / 1e6);
            match cmg_obs::sink::events_from_jsonl(text) {
                Ok(events) => merged.extend(events.into_iter().map(|mut e| {
                    e.time += offset_s;
                    if let Event::Phase { start, .. } = &mut e.event {
                        *start += offset_s;
                    }
                    e
                })),
                Err(why) => {
                    return Err(NetError::protocol(format!(
                        "rank {r} shipped malformed event JSONL: {why}"
                    )))
                }
            }
        }
        merged.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.rank.cmp(&b.rank))
                .then(a.seq.cmp(&b.seq))
        });
        replay(&merged, recorder);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_spec_targets_exactly_its_rank() {
        let k = KillSpec::KillAtRound { rank: 2, round: 5 };
        assert_eq!(k.die_at_round(2), 5);
        assert_eq!(k.die_at_round(1), NEVER);
        let w = KillSpec::WedgeAtRound { rank: 0, round: 3 };
        assert_eq!(w.die_at_round(0), 3);
        assert_eq!(w.die_at_round(2), NEVER);
        assert_eq!(KillSpec::None.die_at_round(0), NEVER);
    }

    #[test]
    fn fatal_payloads_re_type_frame_loss() {
        let e = parse_fatal(1, "FRAME_LOSS from=2 seq=40 waited_ms=2000; details");
        match e {
            NetError::FrameLoss {
                rank,
                from,
                expected_seq,
                waited,
            } => {
                assert_eq!((rank, from, expected_seq), (1, 2, 40));
                assert_eq!(waited, Duration::from_millis(2000));
            }
            other => {
                let ok = false;
                assert!(ok, "expected FrameLoss, got {other}");
            }
        }
        match parse_fatal(3, "something else broke") {
            NetError::WorkerFatal { rank, message } => {
                assert_eq!(rank, 3);
                assert!(message.contains("something else"));
            }
            other => {
                let ok = false;
                assert!(ok, "expected WorkerFatal, got {other}");
            }
        }
        // A mangled FRAME_LOSS header degrades to WorkerFatal, never a
        // panic.
        assert!(matches!(
            parse_fatal(0, "FRAME_LOSS from=x seq=y"),
            NetError::WorkerFatal { .. }
        ));
    }

    #[test]
    fn only_test_binaries_build_their_worker() {
        assert_eq!(
            test_target_dir(Path::new("/t/target/debug/deps/net_faults-abc123")),
            Some(PathBuf::from("/t/target"))
        );
        assert_eq!(
            test_target_dir(Path::new("/s/lt/release/deps/cmg_net-0f1e")),
            Some(PathBuf::from("/s/lt"))
        );
        // An installed or `cargo build`-produced binary keeps the plain
        // sibling lookup.
        assert_eq!(test_target_dir(Path::new("/t/target/debug/cmg")), None);
        assert_eq!(test_target_dir(Path::new("/usr/local/bin/cmg")), None);
        assert_eq!(test_target_dir(Path::new("/deps")), None);
    }
}
