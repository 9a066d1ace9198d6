//! # cmg-graph
//!
//! Graph data structures, synthetic generators, weight assignment, file I/O
//! and basic traversal routines used throughout the `cmg` workspace — the
//! substrate on which the distributed matching and coloring algorithms of
//! Çatalyürek et al. (IPPS 2011) are built.
//!
//! The central type is [`CsrGraph`], an undirected graph in compressed
//! sparse row form with optional per-edge weights. Graphs are constructed
//! either through [`GraphBuilder`] (arbitrary edge lists) or via the
//! deterministic generators in [`generators`] (5-point grids, circuit-like
//! graphs, RMAT, Erdős–Rényi, …) that mirror the workloads of the paper's
//! evaluation section.
//!
//! ```
//! use cmg_graph::generators::grid2d;
//!
//! let g = grid2d(4, 4);
//! assert_eq!(g.num_vertices(), 16);
//! assert_eq!(g.num_edges(), 2 * 4 * 3); // 2·k·(k−1) grid edges
//! ```

mod bipartite;
mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod metis_io;
mod mutable;
pub mod stats;
pub mod traversal;
pub mod util;
mod view;
pub mod weights;

pub use bipartite::BipartiteGraph;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use mutable::{ApplyOutcome, MutableGraph, Mutation, MutationBatch};
pub use stats::GraphStats;
pub use view::NeighborView;

/// Vertex identifier. `u32` covers every graph size this workspace targets
/// (up to ~4.29 billion vertices) at half the adjacency-memory cost of
/// `u64`, following the "smaller integers" guidance for hot types.
pub type VertexId = u32;

/// Edge weight. Weights drive the matching objective; `f64` keeps quality
/// ratios (matched weight ÷ optimal weight) exact enough for Table 1.1.
pub type Weight = f64;

/// Sentinel meaning "no vertex" (used for unmatched mates, absent
/// candidates, …). Kept out of the valid id range by construction: graphs
/// refuse to grow to `u32::MAX` vertices.
pub const NO_VERTEX: VertexId = VertexId::MAX;
