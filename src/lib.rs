//! Workspace root: re-exports the high-level cmg API.
//!
//! See `cmg_core::prelude` for the main entry points.
pub use cmg_core::prelude;
pub use cmg_core::{
    run_coloring, run_coloring_parts, run_jones_plassmann, run_matching, run_matching_parts,
    ColoringRun, Engine, MatchingRun,
};
