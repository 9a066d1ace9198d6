//! # cmg-core
//!
//! High-level façade over the `cmg` workspace: one-call distributed
//! matching and coloring over `(graph, partition, engine)` triples, result
//! types that bundle the answer with its execution statistics, and small
//! reporting helpers used by the experiment harnesses.
//!
//! ```
//! use cmg_core::prelude::*;
//!
//! let g = cmg_graph::generators::grid2d(8, 8);
//! let g = cmg_graph::weights::assign_weights(
//!     &g, cmg_graph::weights::WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 1);
//! let part = cmg_partition::simple::grid2d_partition(8, 8, 2, 2);
//!
//! let run = run_matching(&g, &part, &Engine::default_simulated());
//! assert!(run.matching.is_maximal(&g));
//!
//! let cg = g.unweighted();
//! let col = run_coloring(&cg, &part, ColoringConfig::default(),
//!                        &Engine::default_simulated());
//! col.coloring.validate(&cg).unwrap();
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod report;
mod runner;

pub use runner::{
    run_coloring, run_coloring_parts, run_jones_plassmann, run_matching, run_matching_parts,
    ColoringRun, Engine, MatchingRun,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::runner::{
        run_coloring, run_coloring_parts, run_jones_plassmann, run_matching, run_matching_parts,
        ColoringRun, Engine, MatchingRun,
    };
    pub use cmg_coloring::{Coloring, ColoringConfig, CommVariant};
    pub use cmg_graph::{BipartiteGraph, CsrGraph, GraphBuilder, GraphStats};
    pub use cmg_matching::Matching;
    pub use cmg_partition::{multilevel_partition, DistGraph, Partition, PartitionQuality};
    pub use cmg_runtime::{CostModel, EngineConfig, RunStats};
}
