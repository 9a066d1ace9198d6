//! # cmg-runtime
//!
//! The distributed-memory substrate of the `cmg` workspace: a
//! message-passing runtime that stands in for MPI on the Blue Gene/P used
//! by Çatalyürek et al. (IPPS 2011).
//!
//! Algorithms are written once against the [`RankProgram`] trait — a
//! round/superstep model in which messages sent in round *t* are delivered
//! at the start of round *t + 1* — and can then be executed by either of
//! two engines:
//!
//! * [`SimEngine`]: a deterministic discrete-event simulation. Every rank's
//!   compute and communication is charged against an α–β–γ [`CostModel`],
//!   producing *simulated* times for rank counts far beyond the host's core
//!   count (the paper runs up to 16,384 processors). The round loop is an
//!   active-set scheduler: quiet rounds cost O(active ranks), not O(p).
//! * [`ThreadedEngine`]: one OS thread per rank with real channels,
//!   measuring wall-clock time — used to validate that the algorithms are
//!   correct under true concurrency.
//!
//! The runtime also implements the paper's key communication optimization:
//! **message bundling** ("aggregating frequent, small messages into
//! infrequent, large messages"). All messages a rank sends to the same
//! destination within one round share a single wire packet; the bundling
//! can be disabled per run for the ablation study.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]

mod bundle;
pub mod codec;
pub mod collectives;
pub mod cost;
pub mod delivery;
pub mod message;
pub mod program;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod step;
pub mod threaded;

pub use bundle::{OutBox, Parcel};
pub use cmg_obs::SchedStats;
pub use codec::WireField;
pub use collectives::{
    fan_out, DoneWave, FanoutScheme, Monoid, NeighborExchange, ReduceOutcome, TreeAllreduce,
};
pub use cost::CostModel;
pub use delivery::{DeliveryKey, DeliveryPolicy, DeliveryScript};
pub use message::WireMessage;
pub use program::{Rank, RankCtx, RankProgram, Status};
pub use sim::{RoundTrace, SimEngine, SimResult};
pub use snapshot::encode_snapshot;
pub use stats::{RankStats, RunStats};
pub use step::{RankStep, StepClock, VirtualClock, WallClock};
pub use threaded::{ThreadedEngine, ThreadedResult};

/// Run-wide engine configuration shared by both engines.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Cost model used by the simulation engine (ignored by the threaded
    /// engine, which measures real time).
    pub cost: CostModel,
    /// Bundle all same-destination messages of a round into one wire packet
    /// (the paper's aggregation optimization). When `false`, every logical
    /// message pays its own latency — the ablation baseline.
    pub bundling: bool,
    /// Model a barrier at the end of every round (BSP-style synchronous
    /// supersteps). When `false`, ranks progress asynchronously and only
    /// wait for the messages they actually receive.
    pub sync_rounds: bool,
    /// Safety cap on the number of rounds before the engine aborts
    /// (guards against non-terminating programs in tests).
    pub max_rounds: u64,
    /// Record a per-round trace (rounds × aggregate counters) in the
    /// simulation result — the raw material for time-breakdown plots.
    pub record_trace: bool,
    /// Mailbox delivery order (simulation engine only). The default
    /// canonical order is free; adversarial policies (see
    /// [`delivery::DeliveryPolicy`]) perturb delivery for correctness
    /// checking and pay one extra sort per stepped rank.
    pub delivery: DeliveryPolicy,
    /// Structured event recorder (see `cmg-obs`). Defaults to the
    /// no-op recorder: engines check one cached bool and skip all event
    /// construction, so uninstrumented runs pay nothing.
    pub recorder: cmg_obs::RecorderHandle,
    /// Checkpoint cadence in rounds; 0 (the default) turns it off. In the
    /// sim and threaded engines this drives the **equivalence oracle**:
    /// at every `k`-round edge each rank program is round-tripped through
    /// `snapshot → encode → decode → restore` in place, so any snapshot
    /// omission shows up as a divergence from the uninterrupted run
    /// (which must be bit-identical). The net engine uses the same
    /// cadence for real checkpoints (see `cmg-net`).
    pub checkpoint_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cost: CostModel::blue_gene_p(),
            bundling: true,
            sync_rounds: false,
            max_rounds: 1_000_000,
            record_trace: false,
            delivery: DeliveryPolicy::default(),
            recorder: cmg_obs::RecorderHandle::noop(),
            checkpoint_every: 0,
        }
    }
}

impl EngineConfig {
    /// The same config with events routed to `recorder`.
    pub fn with_recorder(mut self, recorder: cmg_obs::RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }
}
