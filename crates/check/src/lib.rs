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
//! 3. **Static analysis** ([`analyze`], shipped as the `cmg-lint`
//!    binary) — lifts the masked token stream into an item-level IR
//!    ([`parse`]), builds a conservative name-resolution call graph
//!    ([`callgraph`]), and runs three rules: blocking-reachability from
//!    reactor entry points, lock-order deadlock cycles, and `test-only`
//!    code no binary, example or ledger fn reaches. Panics in library
//!    code are clippy's: every crate root denies `unwrap_used`,
//!    `expect_used` and `panic`.
//!
//! Both the explorer and the sweep drive [`cmg_runtime::DeliveryPolicy`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod callgraph;
pub mod explore;
pub mod mask;
pub mod observed;
pub mod oracles;
pub mod parse;

pub use analyze::{
    analyze_sources, analyze_tree, AnalysisReport, AnalyzeAllowlist, AnalyzeRule, AnalyzeViolation,
};
pub use callgraph::{CallGraph, Workspace};
pub use explore::{Exploration, ScriptBook, ScriptSearch};
pub use observed::ObservedMatching;
