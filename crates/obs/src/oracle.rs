//! Counters for protocol-invariant oracle evaluations.
//!
//! The `cmg-check` crate re-runs the matching/coloring programs under
//! adversarial delivery schedules and evaluates a suite of protocol
//! oracles after each run (valid matching, ½-approximation certificate,
//! proper coloring, message conservation, quiescence, …). These counters
//! aggregate an exploration campaign into one machine-readable ledger,
//! mirroring how [`crate::sched::SchedStats`] reports scheduler
//! occupancy: plain data, `Json`-serializable, no behavior.

use crate::json::Json;

/// Tally of one schedule-exploration campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Complete program runs executed (one per schedule).
    pub runs: u64,
    /// Distinct delivery interleavings observed across those runs
    /// (fingerprinted from the delivery-order event stream).
    pub distinct_schedules: u64,
    /// Individual oracle evaluations.
    pub checks: u64,
    /// Evaluations that failed. Anything non-zero is a protocol bug (or
    /// an unsound oracle) and fails the exploration suite.
    pub violations: u64,
}

impl OracleCounters {
    /// Records one oracle evaluation.
    pub fn record(&mut self, ok: bool) {
        self.checks += 1;
        if !ok {
            self.violations += 1;
        }
    }

    /// `true` when every evaluated oracle held.
    pub fn all_held(&self) -> bool {
        self.violations == 0
    }

    /// This campaign's counters as a JSON object (for run reports).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("runs", Json::UInt(self.runs)),
            ("distinct_schedules", Json::UInt(self.distinct_schedules)),
            ("checks", Json::UInt(self.checks)),
            ("violations", Json::UInt(self.violations)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_checks_and_violations() {
        let mut a = OracleCounters::default();
        a.record(true);
        a.record(false);
        a.runs = 1;
        assert_eq!(a.checks, 2);
        assert_eq!(a.violations, 1);
        assert!(!a.all_held());
        assert!(OracleCounters::default().all_held());
    }

    #[test]
    fn json_shape() {
        let c = OracleCounters {
            runs: 5,
            distinct_schedules: 4,
            checks: 25,
            violations: 0,
        };
        let s = c.to_json().to_string_compact();
        assert!(s.contains("\"runs\":5"), "{s}");
        assert!(s.contains("\"distinct_schedules\":4"), "{s}");
    }
}
