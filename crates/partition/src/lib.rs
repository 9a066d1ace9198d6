//! # cmg-partition
//!
//! Graph partitioning and distributed-graph construction: the stand-in for
//! METIS / ParMETIS in the paper's experimental pipeline (§5.1).
//!
//! The paper distributes its inputs two ways: a **uniform 2-D distribution**
//! for the grid graphs, and **METIS / ParMETIS** partitions for the circuit
//! graphs, deliberately spanning a low-cut (≈6 %) and a high-cut (≈40 %)
//! regime. This crate supplies:
//!
//! * [`simple`]: block, uniform 2-D grid, random, hash, and BFS-grown
//!   partitions (the cheap/low-quality end of the spectrum);
//! * [`multilevel`]: a multilevel recursive-bisection partitioner
//!   (heavy-edge-matching coarsening → greedy graph growing → FM boundary
//!   refinement), the METIS-like high-quality tool;
//! * [`dist`]: construction of per-rank local graphs with ghost vertices,
//!   exactly the representation §3.3 describes ("cross edges are
//!   represented using ghost vertices").

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod geometric;
pub mod grid_dist;
pub mod halo;
mod multilevel;
pub mod partition;
pub mod simple;

pub use dist::{gather_shares, DistGraph, EdgeWeights};
pub use geometric::morton_partition;
pub use grid_dist::grid2d_dist;
pub use halo::{ghost_neighbor_owners, sort_rows_by_weight, HaloView};
pub use multilevel::multilevel_partition;
pub use partition::{Partition, PartitionQuality};
