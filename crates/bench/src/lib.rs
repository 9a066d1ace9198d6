//! # cmg-bench
//!
//! The paper's evaluation as one table of experiments ([`EXPERIMENTS`])
//! and one binary, `repro`, that prints and checks them; DESIGN.md §4
//! indexes them and EXPERIMENTS.md sets the output beside the paper's.
//!
//! The original inputs run to a billion vertices on 16,384 Blue Gene/P
//! processors, so each experiment has three size presets ([`Scale`]) that
//! keep the paper's rank counts and per-rank regimes while scaling the
//! graphs to a single host; the *shape* of every curve is preserved.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod setup;

pub use experiments::{Experiment, EXPERIMENTS};
pub use setup::Scale;
