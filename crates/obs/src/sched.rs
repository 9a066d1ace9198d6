//! Scheduler-occupancy counters for the simulation engine.
//!
//! The active-set scheduler in `cmg-runtime` steps only runnable ranks
//! each round; these counters record how sparse the rounds actually were
//! (worklist sizes, skipped ranks). They ride in the engine's result
//! struct rather than the event stream, so enabling them never perturbs
//! trace bytes.

/// Occupancy counters accumulated over one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Sum of worklist sizes across rounds (total rank-steps performed).
    pub worklist_total: u64,
    /// Largest single-round worklist.
    pub worklist_max: u64,
    /// Sum over rounds of ranks *not* stepped (idle with empty mailbox) —
    /// the work the dense O(p) sweep would have scanned anyway.
    pub ranks_skipped_total: u64,
}
