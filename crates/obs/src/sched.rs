//! Scheduler-occupancy counters for the simulation engine.
//!
//! The active-set scheduler in `cmg-runtime` steps only runnable ranks
//! each round; these counters record how sparse the rounds actually were
//! (worklist sizes, skipped ranks) and how the persistent worker pool
//! was used. They ride in the engine's result struct rather than the
//! event stream, so enabling them never perturbs trace bytes.

use crate::json::Json;

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
    /// Worker threads in the persistent pool (0 = serial run).
    pub pool_workers: u64,
    /// Rounds dispatched to the pool.
    pub pool_parallel_rounds: u64,
    /// Rounds a pooled run stepped on the driver thread because the
    /// worklist was too small to be worth dispatching.
    pub pool_serial_rounds: u64,
    /// Worklist chunks claimed by pool workers across the run.
    pub pool_chunks_claimed: u64,
}

impl SchedStats {
    /// Mean ranks stepped per round (0.0 before any round ran).
    fn mean_worklist(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.worklist_total as f64 / self.rounds as f64
        }
    }

    /// Fraction of rank-scans the scheduler avoided relative to a dense
    /// O(p)-per-round sweep (0.0 when nothing was skippable).
    fn sparsity(&self) -> f64 {
        let scanned = self.worklist_total + self.ranks_skipped_total;
        if scanned == 0 {
            0.0
        } else {
            self.ranks_skipped_total as f64 / scanned as f64
        }
    }

    /// This run's counters as a JSON object (for bench reports).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::UInt(self.rounds)),
            ("worklist_total", Json::UInt(self.worklist_total)),
            ("worklist_max", Json::UInt(self.worklist_max)),
            ("ranks_skipped_total", Json::UInt(self.ranks_skipped_total)),
            ("mean_worklist", Json::Float(self.mean_worklist())),
            ("sparsity", Json::Float(self.sparsity())),
            ("pool_workers", Json::UInt(self.pool_workers)),
            (
                "pool_parallel_rounds",
                Json::UInt(self.pool_parallel_rounds),
            ),
            ("pool_serial_rounds", Json::UInt(self.pool_serial_rounds)),
            ("pool_chunks_claimed", Json::UInt(self.pool_chunks_claimed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = SchedStats {
            rounds: 4,
            worklist_total: 10,
            ranks_skipped_total: 30,
            ..Default::default()
        };
        assert_eq!(s.mean_worklist(), 2.5);
        assert_eq!(s.sparsity(), 0.75);
        assert_eq!(SchedStats::default().mean_worklist(), 0.0);
        assert_eq!(SchedStats::default().sparsity(), 0.0);
    }

    #[test]
    fn json_shape() {
        let s = SchedStats {
            rounds: 2,
            worklist_total: 3,
            ..Default::default()
        };
        let text = s.to_json().to_string_compact();
        assert!(text.contains("\"rounds\":2"));
        assert!(text.contains("\"mean_worklist\":1.5"));
    }
}
