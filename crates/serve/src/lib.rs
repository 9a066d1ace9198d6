//! cmg-serve: the long-lived incremental matching/coloring service.
//!
//! Everything upstream of this crate answers one-shot questions: load
//! a graph, run the paper's protocol, print the result. This crate
//! keeps the answer *warm*. A serving process loads the graph once,
//! computes the initial matching and coloring, and then
//! stays resident — absorbing edge mutations and answering queries
//! over cmg-net's framed wire protocol without ever paying the load
//! and cold-start cost again.
//!
//! The layering:
//!
//! * [`protocol`] — what rides in the v5 session frames
//!   (`MutateBatch`/`MutateAck`/`Query`/`QueryReply`): wire ops,
//!   queries, replies, and the per-batch repair ack.
//! * [`state`] — [`ServeState`], the resident state machine:
//!   mutable graph, warm-start repair via the matching/coloring
//!   frontier kernels, and the repair-vs-recompute dirtiness
//!   threshold past which the same kernels run cold over the whole
//!   graph.
//! * [`server`] — [`Server`]: the Unix-socket accept loop,
//!   per-request latency histograms, and the p50/p99 summary.
//! * [`client`] — [`ServeClient`]: a blocking request-by-request
//!   connection for drivers, benches, and the `cmg client` verb.
//!
//! Consistency contract (DESIGN.md §13): after any acknowledged
//! mutation stream, the served matching is a valid locally-dominant
//! matching of the final graph with the ½-approx certificate, and the
//! served coloring is proper. A recompute serves the greedy first-fit
//! coloring in natural vertex order; bit-identity between a
//! warm-repaired coloring and a recompute is explicitly relaxed — the
//! palettes may differ. The matching is bit-identical (weight ties
//! break by endpoint ids).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{ServeClient, ServiceSummary};
pub use protocol::{FullVector, RepairAck, ServeOp, ServeQuery, ServeReply};
pub use server::{ServeSummary, Server, ServerConfig};
pub use state::{RepairMode, RepairReport, ServeConfig, ServeState};
