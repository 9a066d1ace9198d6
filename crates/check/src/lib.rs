//! # cmg-check
//!
//! Correctness machinery for the matching/coloring workspace, in three
//! layers:
//!
//! 1. **Schedule exploration** ([`explore`]) — re-runs the matching
//!    program under every delivery interleaving of a tiny configuration
//!    (a bounded-exhaustive scripted search with commuting-delivery
//!    pruning), exercising the message-race surface that a single
//!    canonical schedule never touches. Named delivery policies (seeded
//!    random merges, reverse-rank, LIFO, per-rank withholding) are the
//!    digest sweep's delivery axis (`tests/sweep_harness`), which holds
//!    every simulated cell to layer 2. All policies preserve per-source
//!    FIFO — the one ordering guarantee MPI point-to-point actually
//!    gives — so every explored schedule is one a real cluster could
//!    produce.
//! 2. **Protocol-invariant oracles** ([`oracles`]) — evaluated after
//!    every run: matching validity plus the ½-approximation certificate,
//!    proper coloring with per-phase conflict counts monotone to zero,
//!    REQUEST/SUCCEEDED/FAILED ledger consistency, wire-level message
//!    conservation, and termination (no rank quiesces with protocol
//!    work outstanding).
//! 3. **Static analysis** ([`names`], shipped as the `cmg-lint`
//!    binary) — `test-only`: a `pub fn` or `pub enum` variant under
//!    `crates/*/src` that no non-test code names. Locks, blocking calls
//!    in the reactor and library panics are held by clippy and a CI
//!    grep instead (DESIGN.md §11).
//!
//! Both the explorer and the sweep drive [`cmg_runtime::DeliveryPolicy`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod mask;
pub mod names;
pub mod observed;
pub mod oracles;

pub use explore::{Exploration, ScriptBook, ScriptSearch};
pub use observed::ObservedMatching;
