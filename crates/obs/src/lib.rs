//! Observability for the cmg engines: structured event tracing,
//! phase-level metrics, and machine-readable run reports.
//!
//! The design splits cleanly into a **hot path** and a **cold path**:
//!
//! * Hot path — engines and rank programs call
//!   [`RecorderHandle::emit`] with a typed [`Event`]. The default
//!   [`NoopRecorder`] makes this a single cached-bool branch, so an
//!   uninstrumented run pays nothing; a [`CollectingRecorder`] appends
//!   the event to a per-rank buffer under a mutex.
//! * Cold path — after the run, the collected events feed the sinks:
//!   a JSONL event stream ([`sink::events_to_jsonl`]), a Chrome
//!   `trace_event` JSON loadable in Perfetto/`chrome://tracing`
//!   ([`sink::chrome_trace`]), and an aggregated run report
//!   ([`report::RunReport`]). A [`metrics::MetricsRegistry`] (counters,
//!   gauges, log-scaled histograms) is populated from the same events.
//!
//! Determinism: events are buffered **per rank** and each carries a
//! per-rank sequence number, so the serialized order is independent of
//! thread interleaving. Under the simulated engine (virtual timestamps)
//! the same seed and config therefore produce byte-identical trace
//! files.
//!
//! The crate is dependency-free; [`json`] is a small self-contained
//! JSON value type shared by every sink, and [`Fnv1a`] the one digest
//! every fingerprint in the workspace folds its bytes through.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

mod digest;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sched;
pub mod sink;
pub mod trace;

pub use digest::Fnv1a;
pub use event::{Event, PhaseName, TimedEvent, ENGINE_RANK};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use recorder::{replay, CollectingRecorder, NoopRecorder, Recorder, RecorderHandle};
pub use report::RunReport;
pub use sched::SchedStats;
pub use trace::{RankTelemetry, RunHealth, TraceReport};
