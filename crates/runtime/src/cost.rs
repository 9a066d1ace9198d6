//! The α–β–γ communication/computation cost model driving the simulation
//! engine's virtual clock.
//!
//! A wire bundle of `b` bytes sent from rank *s* to rank *d* arrives at
//! `t_send + α + β·b`; the sender's own clock additionally advances by a
//! small per-bundle CPU overhead `o`. Compute is charged as `γ` per *work
//! unit*, where algorithms charge one unit per adjacency-entry touched
//! (the natural unit for graph algorithms whose sequential complexity is
//! `O(|E|)`). A barrier among `p` ranks costs `α·⌈log₂ p⌉` on top of
//! max-synchronizing the clocks.

/// Cost-model constants. All times in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Network latency per wire bundle.
    pub alpha: f64,
    /// Per-byte transfer time (inverse bandwidth).
    pub beta: f64,
    /// Compute time per charged work unit.
    pub gamma: f64,
    /// Sender-side CPU overhead per wire bundle (message injection).
    pub send_overhead: f64,
}

impl CostModel {
    /// Blue Gene/P-like constants: the paper's Intrepid, 850 MHz PPC450
    /// cores on a 3-D torus with ~3.5 µs MPI latency and ~375 MB/s
    /// per-link bandwidth.
    ///
    /// γ is calibrated so a one-rank run of the sequential matching kernel
    /// on the paper's grid sizes lands in the sub-second range its Figure
    /// 5.2 reports: a PPC450 spends a handful of ns per adjacency touch.
    pub fn blue_gene_p() -> Self {
        CostModel {
            alpha: 3.5e-6,
            beta: 1.0 / 375.0e6,
            gamma: 6.0e-9,
            send_overhead: 0.6e-6,
        }
    }

    /// Commodity InfiniBand-era cluster constants: faster cores and
    /// links than Blue Gene/P, and a larger relative latency gap.
    pub fn commodity_cluster() -> Self {
        CostModel {
            alpha: 15.0e-6,
            beta: 1.0e-9,
            gamma: 1.5e-9,
            send_overhead: 1.0e-6,
        }
    }

    /// Free communication (α = β = o = 0, γ = 1): virtual time equals
    /// charged work, for algorithm-only tests.
    pub fn compute_only() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            send_overhead: 0.0,
        }
    }

    /// Time for a bundle of `bytes` to traverse the network.
    #[inline]
    pub(crate) fn transfer_time(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Cost of a full barrier among `p` ranks (log-tree of latencies).
    #[inline]
    pub(crate) fn barrier_time(&self, p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.alpha * (usize::BITS - (p - 1).leading_zeros()) as f64
        }
    }

    /// Compute time for `work` charged units.
    #[inline]
    pub(crate) fn compute_time(&self, work: u64) -> f64 {
        self.gamma * work as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let c = CostModel::blue_gene_p();
        let t0 = c.transfer_time(0);
        let t1 = c.transfer_time(1000);
        assert_eq!(t0, c.alpha);
        assert!((t1 - t0 - 1000.0 * c.beta).abs() < 1e-18);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let c = CostModel::blue_gene_p();
        assert_eq!(c.barrier_time(1), 0.0);
        assert_eq!(c.barrier_time(2), c.alpha);
        assert_eq!(c.barrier_time(1024), 10.0 * c.alpha);
        assert_eq!(c.barrier_time(1025), 11.0 * c.alpha);
    }

    #[test]
    fn compute_only_charges_work_directly() {
        let c = CostModel::compute_only();
        assert_eq!(c.compute_time(42), 42.0);
        assert_eq!(c.transfer_time(100), 0.0);
        assert_eq!(c.barrier_time(64), 0.0);
    }
}
