//! # cmg-ledger
//!
//! The repository's one benchmark. It follows a run from input to
//! verified answer — load → partition → distribute → program init →
//! engine run → assemble → verify — on the simulation, threaded and net
//! engines and on the serve path, times every layer from outside by
//! calling the same public functions `cmg_core::runner` composes, and
//! checks every output. `../BENCHMARK.json` names the workloads and
//! metrics; `README.md` explains them.

pub mod batch;
pub mod checks;
pub mod cli;
pub mod harness;
pub mod host;
pub mod reference;
pub mod report;
pub mod serve;
pub mod simweak;
pub mod span;
pub mod spec;
pub mod stats;
