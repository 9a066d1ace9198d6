//! The recorder abstraction: how engines hand events to observers.
//!
//! [`RecorderHandle`] is what travels inside `EngineConfig`. It caches
//! the recorder's `enabled()` answer at construction, and
//! [`RecorderHandle::emit`] takes the event as a closure that it calls
//! only behind that bool: the disabled path in an engine inner loop is
//! `handle.emit(rank, t, || Event::…)`, one branch on a plain bool — no
//! virtual call, no event built, no allocation, no lock.

use crate::event::{Event, TimedEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Receives events from engines and rank programs.
///
/// Implementations must be thread-safe: under the threaded engine,
/// different ranks record concurrently. Per-rank
/// event order is the order of `record` calls for that rank.
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants events at all. Engines consult the
    /// cached copy in [`RecorderHandle::enabled`] and skip event
    /// construction entirely when false.
    fn enabled(&self) -> bool;

    /// Accepts one event from `rank` at time `time`.
    fn record(&self, rank: u32, time: f64, event: Event);
}

/// The default recorder: drops everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _rank: u32, _time: f64, _event: Event) {}
}

/// Cheaply cloneable handle to a recorder, suitable for embedding in a
/// `Clone + Debug` engine config.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<dyn Recorder>,
    enabled: bool,
}

impl RecorderHandle {
    /// Wraps a recorder, caching its `enabled()` answer.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        let enabled = recorder.enabled();
        RecorderHandle {
            inner: recorder,
            enabled,
        }
    }

    /// The no-op handle (what `Default` returns).
    pub fn noop() -> Self {
        RecorderHandle::new(Arc::new(NoopRecorder))
    }

    /// Whether recording is on. Inlined single-bool check — this is the
    /// entire overhead of an uninstrumented run.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event `event` builds, if the recorder is enabled; a
    /// disabled handle never calls `event`.
    #[inline]
    pub fn emit(&self, rank: u32, time: f64, event: impl FnOnce() -> Event) {
        if self.enabled {
            self.inner.record(rank, time, event());
        }
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle::noop()
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// A recorder that buffers events per rank for post-run serialization.
///
/// Buffers are keyed by rank in a `BTreeMap`, and every event gets a
/// per-rank sequence number at insertion, so [`CollectingRecorder::take`]
/// returns a deterministic ordering regardless of how threads
/// interleaved their `record` calls.
#[expect(
    clippy::disallowed_types,
    reason = "rank threads append their events here; each call holds this lock alone"
)]
#[derive(Debug, Default)]
pub struct CollectingRecorder {
    buffers: std::sync::Mutex<BTreeMap<u32, Vec<TimedEvent>>>,
}

impl CollectingRecorder {
    /// An empty, enabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the buffers, recovering from poisoning: a panicking
    /// recording thread must not take trace collection down with it —
    /// each `record` leaves the per-rank buffers internally consistent,
    /// so the data under a poisoned lock is still valid.
    fn lock_buffers(&self) -> std::sync::MutexGuard<'_, BTreeMap<u32, Vec<TimedEvent>>> {
        match self.buffers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Convenience: an `Arc`'d recorder plus a handle onto it. The
    /// caller keeps the `Arc` to drain events after the run.
    pub fn shared() -> (Arc<CollectingRecorder>, RecorderHandle) {
        let recorder = Arc::new(CollectingRecorder::new());
        let handle = RecorderHandle::new(recorder.clone());
        (recorder, handle)
    }

    /// Drains all buffered events, sorted by `(rank, seq)`.
    pub fn take(&self) -> Vec<TimedEvent> {
        let mut buffers = self.lock_buffers();
        let mut out = Vec::with_capacity(buffers.values().map(Vec::len).sum());
        for (_, events) in std::mem::take(&mut *buffers) {
            out.extend(events);
        }
        out
    }

    /// Number of buffered events across all ranks.
    pub fn len(&self) -> usize {
        self.lock_buffers().values().map(Vec::len).sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Replays already-collected events into another recorder — the merge
/// step of a multi-process run: each remote rank ships its buffered
/// [`TimedEvent`] stream home, and the coordinator replays the streams
/// into its own recorder so the downstream sinks (`--trace-out`,
/// `--report-out`, metrics) see one unified run.
///
/// Events keep their original `rank` and `time`; sequence numbers are
/// re-assigned by the receiving recorder, so `events` should already be
/// in per-rank order (which [`CollectingRecorder::take`] guarantees).
pub fn replay(events: &[TimedEvent], into: &RecorderHandle) {
    for e in events {
        into.emit(e.rank, e.time, || e.event.clone());
    }
}

impl Recorder for CollectingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, rank: u32, time: f64, event: Event) {
        let mut buffers = self.lock_buffers();
        let buffer = buffers.entry(rank).or_default();
        let seq = buffer.len() as u64;
        buffer.push(TimedEvent {
            rank,
            time,
            seq,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_free() {
        let handle = RecorderHandle::default();
        assert!(!handle.enabled());
        handle.emit(0, 0.0, || Event::RoundStart { round: 0 });
        // Nothing observable happened — emit on a noop handle is inert.
    }

    #[test]
    fn collecting_orders_by_rank_then_seq() {
        let (recorder, handle) = CollectingRecorder::shared();
        assert!(handle.enabled());
        handle.emit(1, 0.5, || Event::RoundStart { round: 0 });
        handle.emit(0, 0.7, || Event::RoundStart { round: 0 });
        handle.emit(1, 0.9, || Event::RoundEnd {
            round: 0,
            active_ranks: 2,
        });
        let events = recorder.take();
        let key: Vec<(u32, u64)> = events.iter().map(|e| (e.rank, e.seq)).collect();
        assert_eq!(key, vec![(0, 0), (1, 0), (1, 1)]);
        assert!(recorder.is_empty(), "take() drains");
    }

    #[test]
    fn concurrent_records_keep_per_rank_order() {
        let (recorder, handle) = CollectingRecorder::shared();
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let handle = handle.clone();
                s.spawn(move || {
                    for round in 0..100 {
                        handle.emit(rank, round as f64, || Event::RoundStart { round });
                    }
                });
            }
        });
        let events = recorder.take();
        assert_eq!(events.len(), 400);
        for window in events.windows(2) {
            let (a, b) = (&window[0], &window[1]);
            assert!((a.rank, a.seq) < (b.rank, b.seq));
        }
    }
}
