//! # cmg-check
//!
//! Correctness machinery for the matching/coloring workspace, in three
//! layers:
//!
//! 1. **Schedule exploration** ([`explore`]) — re-runs the distributed
//!    programs under adversarial mailbox delivery orders (seeded random
//!    permutations, reverse-rank, LIFO, per-rank withholding, and a
//!    bounded-exhaustive scripted search with commuting-delivery
//!    pruning), exercising the message-race surface that a single
//!    canonical schedule never touches. All policies preserve per-source
//!    FIFO — the one ordering guarantee MPI point-to-point actually
//!    gives — so every explored schedule is one a real cluster could
//!    produce.
//! 2. **Protocol-invariant oracles** ([`oracles`]) — evaluated after
//!    every run: matching validity plus the ½-approximation certificate,
//!    proper coloring with per-phase conflict counts monotone to zero,
//!    REQUEST/SUCCEEDED/FAILED ledger consistency, wire-level message
//!    conservation, and termination (no rank quiesces with protocol
//!    work outstanding).
//! 3. **Repo lint** ([`lint`], shipped as the `cmg-lint` binary) — a
//!    token-level static pass over `crates/*/src` enforcing the
//!    workspace's own rules: no `unwrap`/`expect`/`panic!` in library
//!    code outside tests, no recorder emit without the cached
//!    enabled-bool guard, and no hand-built reduction tree outside the
//!    collectives module.
//! 4. **Whole-workspace static analysis** ([`analyze`], shipped as
//!    `cmg-lint --analyze`) — lifts the masked token stream into an
//!    item-level IR ([`parse`]), builds a conservative name-resolution
//!    call graph ([`callgraph`]), and runs five rules:
//!    blocking-reachability from reactor entry points, wire-protocol
//!    drift over `wire_codec!` enums and `PROTO_VERSION`, lock-order
//!    deadlock cycles, hot-path allocation (direct or transitive), and
//!    library `pub` items no caller names.
//!
//! The exploration layer drives [`cmg_runtime::DeliveryPolicy`]; oracle
//! tallies aggregate into [`cmg_obs::OracleCounters`].

pub mod analyze;
pub mod callgraph;
pub mod explore;
pub mod lint;
pub mod mask;
pub mod observed;
pub mod oracles;
pub mod parse;

pub use analyze::{
    analyze_sources, analyze_tree, AnalysisReport, AnalyzeAllowlist, AnalyzeRule, AnalyzeViolation,
};
pub use callgraph::{CallGraph, Workspace};
pub use explore::{
    explore_coloring, explore_matching, standard_policies, Exploration, ScriptBook, ScriptSearch,
};
pub use lint::{lint_tree, Allowlist, Rule, Violation};
pub use observed::ObservedMatching;
