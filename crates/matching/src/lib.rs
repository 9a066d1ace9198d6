//! # cmg-matching
//!
//! Edge-weighted matching algorithms: the paper's distributed-memory
//! ½-approximation algorithm (§3) plus the sequential and exact algorithms
//! it is measured against.
//!
//! * [`seq`]: sequential ½-approximation algorithms — greedy-by-weight,
//!   the locally-dominant / candidate-mate algorithm (Preis; Hoepman;
//!   Manne–Bisseling) that the parallel algorithm is built on, the
//!   path-growing algorithm, and the suitor algorithm;
//! * [`exact`]: exact maximum-weight matching — successive shortest paths
//!   for bipartite graphs (the Table 1.1 optimum reference) and a bitmask
//!   brute force for tiny general graphs (property-test oracle);
//! * [`dist`]: the distributed candidate-mate algorithm with
//!   `REQUEST`/`SUCCEEDED`/`FAILED` messages and aggressive message
//!   bundling, as a [`cmg_runtime::RankProgram`];
//! * [`ext`]: b-matching (sequential and distributed b-suitor) and
//!   vertex-weighted extensions.

pub mod dist;
pub mod exact;
pub mod ext;
pub mod matching;
pub mod repair;
pub mod seq;

pub use dist::{assemble_matching, DistMatching, MatchMsg, MatchSnap};
pub use ext::{assemble_b_matching, BMatching, BSuitorSnap, DistBSuitor, ExtMsg};
pub use matching::Matching;
pub use repair::{invalidate, repair_frontier, MatchFrontier, MatchRetained};
