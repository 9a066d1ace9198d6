//! # cmg-coloring
//!
//! Distance-1 vertex coloring: the paper's distributed speculative
//! framework (§4) plus the sequential algorithms and baselines it builds
//! on and is compared against.
//!
//! * [`coloring`]: the coloring result type and its verification;
//! * [`seq`]: sequential greedy coloring under the classic vertex
//!   orderings (natural, random, largest-first, smallest-last,
//!   incidence-degree, saturation) and lower bounds for judging quality;
//! * [`dist`]: the speculative/iterative distributed framework
//!   (Algorithm 4.1) with configurable superstep size, color-selection
//!   strategy, interior/boundary order, and the three communication
//!   variants — FIAB (broadcast), FIAC (customized to all ranks), and the
//!   paper's new neighbor-customized scheme;
//! * [`jp`]: the Jones–Plassmann maximal-independent-set baseline the
//!   framework is shown to beat.

pub mod balance;
pub mod coloring;
pub mod dist;
pub mod dist2;
pub mod distance2;
pub mod jp;
pub mod repair;
pub mod seq;

pub use coloring::Coloring;
pub use dist::{
    assemble_coloring, ColorChoice, ColorMsg, ColorSnap, ColoringConfig, CommVariant, DistColoring,
    LocalOrder,
};
pub use dist2::{assemble_d2, D2Msg, D2Snap, DistColoring2};
pub use jp::{assemble_jp, JonesPlassmann, JpSnap, JpSnapshot};
pub use repair::{invalidate_colors, repair_frontier_colors, ColorFrontier, ColorRetained};
