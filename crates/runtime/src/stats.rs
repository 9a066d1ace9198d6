//! Per-rank and run-wide execution statistics: the raw material for every
//! scalability figure and for the message-count/volume ablations.

/// Counters for one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Wire packets sent (bundles when bundling is on).
    pub packets_sent: u64,
    /// Wire packets received.
    pub packets_received: u64,
    /// Logical messages sent (independent of bundling).
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Logical messages received.
    pub messages_received: u64,
    /// Charged compute work units.
    pub work: u64,
    /// Rounds in which this rank actually stepped.
    pub rounds_active: u64,
    /// Final virtual time (simulation engine only; 0 under the threaded
    /// engine).
    pub virtual_time: f64,
}

impl RankStats {
    /// Element-wise accumulation of another rank's counters into this
    /// one (virtual time takes the max, matching makespan semantics).
    pub fn merge(&mut self, other: &RankStats) {
        self.packets_sent += other.packets_sent;
        self.packets_received += other.packets_received;
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_received += other.messages_received;
        self.work += other.work;
        self.rounds_active += other.rounds_active;
        self.virtual_time = self.virtual_time.max(other.virtual_time);
    }
}

/// Aggregated statistics of one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-rank counters, indexed by rank.
    pub per_rank: Vec<RankStats>,
    /// Total number of engine rounds executed.
    pub rounds: u64,
}

impl RunStats {
    /// Total wire packets across all ranks.
    pub fn total_packets(&self) -> u64 {
        self.per_rank.iter().map(|r| r.packets_sent).sum()
    }

    /// Total logical messages across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.per_rank.iter().map(|r| r.messages_sent).sum()
    }

    /// Total payload bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total wire packets received across all ranks.
    pub fn total_packets_received(&self) -> u64 {
        self.per_rank.iter().map(|r| r.packets_received).sum()
    }

    /// Total payload bytes received across all ranks.
    pub fn total_bytes_received(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_received).sum()
    }

    /// Merges another run's stats into this one: per-rank counters add
    /// element-wise (the rank vector grows to the longer of the two),
    /// rounds add. Useful for aggregating the phases of a multi-stage
    /// run (e.g. matching followed by coloring) into one ledger.
    pub fn merge(&mut self, other: &RunStats) {
        if self.per_rank.len() < other.per_rank.len() {
            self.per_rank
                .resize(other.per_rank.len(), RankStats::default());
        }
        for (mine, theirs) in self.per_rank.iter_mut().zip(&other.per_rank) {
            mine.merge(theirs);
        }
        self.rounds += other.rounds;
    }

    /// Checks send/receive conservation: every wire packet (and byte)
    /// sent by some rank must have been received by some rank. Both
    /// engines deliver all traffic before returning, so any imbalance
    /// is an engine accounting bug. Returns the first imbalance as a
    /// diagnostic, or `None` when the ledgers balance — the non-panicking
    /// form the `cmg-check` oracles evaluate.
    pub fn conservation_violation(&self) -> Option<String> {
        if self.total_packets() != self.total_packets_received() {
            return Some(format!(
                "wire packet conservation violated: {} sent vs {} received",
                self.total_packets(),
                self.total_packets_received(),
            ));
        }
        if self.total_bytes() != self.total_bytes_received() {
            return Some(format!(
                "payload byte conservation violated: {} sent vs {} received",
                self.total_bytes(),
                self.total_bytes_received(),
            ));
        }
        let received: u64 = self.per_rank.iter().map(|r| r.messages_received).sum();
        if self.total_messages() != received {
            return Some(format!(
                "logical message conservation violated: {} sent vs {} received",
                self.total_messages(),
                received,
            ));
        }
        None
    }

    /// Panicking form of [`RunStats::conservation_violation`]; both
    /// engines call it (debug builds) at the end of every clean run.
    ///
    /// # Panics
    /// Panics with a diagnostic if the ledgers do not balance.
    pub fn assert_conservation(&self) {
        if let Some(violation) = self.conservation_violation() {
            panic!("{violation}");
        }
    }

    /// Total charged work units across all ranks.
    pub fn total_work(&self) -> u64 {
        self.per_rank.iter().map(|r| r.work).sum()
    }

    /// Simulated completion time: the maximum per-rank virtual time (the
    /// quantity plotted on the y-axis of Figures 5.1–5.4).
    pub fn makespan(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.virtual_time)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats2() -> RunStats {
        RunStats {
            per_rank: vec![
                RankStats {
                    packets_sent: 2,
                    packets_received: 1,
                    messages_sent: 10,
                    bytes_sent: 80,
                    bytes_received: 40,
                    messages_received: 4,
                    work: 100,
                    rounds_active: 3,
                    virtual_time: 1.5,
                },
                RankStats {
                    packets_sent: 1,
                    packets_received: 2,
                    messages_sent: 5,
                    bytes_sent: 40,
                    bytes_received: 80,
                    messages_received: 11,
                    work: 300,
                    rounds_active: 3,
                    virtual_time: 2.5,
                },
            ],
            rounds: 3,
        }
    }

    #[test]
    fn aggregates() {
        let s = stats2();
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_messages(), 15);
        assert_eq!(s.total_bytes(), 120);
        assert_eq!(s.total_work(), 400);
        assert_eq!(s.makespan(), 2.5);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = RunStats::default();
        assert_eq!(s.makespan(), 0.0);
        s.assert_conservation();
    }

    #[test]
    fn conservation_accepts_balanced_ledgers() {
        // stats2 is balanced by construction: 3 packets / 120 bytes /
        // 15 messages each way.
        stats2().assert_conservation();
    }

    #[test]
    #[should_panic(expected = "wire packet conservation violated")]
    fn conservation_rejects_lost_packets() {
        let mut s = stats2();
        s.per_rank[0].packets_received = 0;
        s.assert_conservation();
    }

    #[test]
    fn merge_adds_counters_and_grows() {
        let mut a = RunStats::default();
        a.merge(&stats2());
        a.merge(&stats2());
        assert_eq!(a.per_rank.len(), 2);
        assert_eq!(a.total_packets(), 6);
        assert_eq!(a.total_bytes(), 240);
        assert_eq!(a.rounds, 6);
        assert_eq!(a.per_rank[1].virtual_time, 2.5, "virtual time maxes");
        a.assert_conservation();
    }
}
