//! cmg-net: a multi-process socket transport engine.
//!
//! The third execution engine of the workspace. Where `SimEngine`
//! simulates ranks inside one process and `ThreadedEngine` runs them as
//! threads, this engine runs **each rank as its own OS process**,
//! communicating over Unix-domain sockets on localhost — the closest
//! this codebase gets to the paper's MPI deployment while staying on
//! one machine.
//!
//! The crate is four layers, bottom to top:
//!
//! 1. **Framing** ([`frame`]) — length-prefixed frames
//!    `[u32 len][u64 seq][ctrl][payload]` whose control vocabulary
//!    ([`Ctrl`]) is a [`wire_codec!`](cmg_runtime::wire_codec) enum, so
//!    the transport's own control words share the exact wire discipline
//!    of the algorithm messages they carry.
//! 2. **Links** ([`link`]) — per-peer connections with capped
//!    exponential-backoff dialing, write timeouts, per-link sequence
//!    numbers, and a pluggable [`LinkFault`] hook that can drop,
//!    duplicate, or delay individual data-plane frames. The receiving
//!    [`Resequencer`] restores send order (the non-overtaking
//!    contract) and exposes unfilled gaps so a permanent drop becomes a
//!    diagnosed [`NetError::FrameLoss`] instead of a hang.
//! 3. **Supervision** ([`supervisor`]) — spawns one worker process per
//!    rank, ships each its partition slice (an encoded
//!    [`Assignment`]), referees the handshake, watches heartbeats and
//!    exit statuses so a dead or wedged worker fails the run with a
//!    typed [`NetError`] within a deadline, and tears everything down.
//! 4. **Results plane** ([`proto`] + [`supervisor`]) — workers stream
//!    their [`RankStats`](cmg_runtime::RankStats), their share of the
//!    algorithm result, and (when observed) their buffered obs events
//!    home; the supervisor merges them into the same
//!    [`RunStats`](cmg_runtime::RunStats)/recorder shapes the other
//!    two engines produce, so traces and reports work unchanged.
//!
//! The round protocol on the wire is the bulk-synchronous contract
//! shared by all engines — messages sent in round *t* are delivered in
//! round *t + 1*. The data plane is event-driven: a single poll-based
//! thread ([`reactor`]) multiplexes every peer link, writers coalesce a
//! round's frames into vectored batches, and each round ends with a
//! rank-to-rank [`Ctrl::RoundDone`] wave (a
//! [`DoneWave`](cmg_runtime::collectives::DoneWave)-counted
//! neighborhood barrier carrying the termination vote) — no global
//! collective per round, so ranks pipeline instead of synchronizing
//! through a root. Under the synchronous bundled configuration it
//! produces per-rank results and merged statistics bit-identical to the
//! other engines'.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]

pub mod error;
pub mod frame;
mod link;
pub mod proto;
mod reactor;
pub mod supervisor;
pub mod worker;

pub use error::NetError;
pub use frame::{Ctrl, Frame, MAX_FRAME_LEN, PROTO_VERSION};
pub use link::{
    connect_with_backoff, FaultAction, FaultPlan, LinkFault, LinkStats, LinkWriter, PlannedFault,
    Resequencer,
};
pub use proto::{
    decode_checkpoint, encode_checkpoint, Assignment, CheckpointState, NetTask, ResumeFrom,
    RunOptions, TransportSnapshot, WorkerOutcome, NEVER,
};
pub use supervisor::{
    run_coloring, run_matching, run_task, KillSpec, LinkTotals, NetColoringRun, NetConfig,
    NetMatchingRun, NetOutcome, NetSession,
};
pub use worker::worker_main;
