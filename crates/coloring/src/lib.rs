//! # cmg-coloring
//!
//! Vertex coloring: the paper's distributed speculative framework (§4)
//! plus the sequential algorithms and baselines it builds on and is
//! compared against.
//!
//! * [`coloring`]: the coloring result type, its verification, and its
//!   assembly from rank programs;
//! * [`seq`]: sequential greedy coloring in natural or largest-first
//!   order, the first-fit colour picker every colouring program here
//!   uses, and lower bounds for judging quality;
//! * [`dist`]: the speculative/iterative distributed framework
//!   (Algorithm 4.1), one program for distance-1 coloring (first-fit,
//!   interior before boundary) and distance-2 coloring, with configurable
//!   superstep size and the three communication variants —
//!   FIAB (broadcast), FIAC (customized to all ranks), and the paper's
//!   new neighbor-customized scheme;
//! * [`distance2`]: sequential greedy distance-2 coloring and its
//!   validator;
//! * [`jp`]: the Jones–Plassmann maximal-independent-set baseline the
//!   framework is shown to beat.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod coloring;
pub mod dist;
pub mod distance2;
pub mod jp;
pub mod repair;
pub mod seq;

pub use coloring::{assemble_coloring, assemble_colors, Coloring, LocalColors};
pub use dist::{ColorMsg, ColorSnap, ColoringConfig, CommVariant, DistColoring, Distance2};
pub use jp::{JonesPlassmann, JpSnap};
pub use repair::{invalidate_colors, repair_frontier_colors, ColorFrontier, ColorRetained};
