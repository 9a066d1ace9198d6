//! The in-run reference kernel that end-to-end times are divided by.
//!
//! The hosts this benchmark runs on are small shared VMs whose speed
//! moves by tens of percent in steps lasting seconds to minutes, so a
//! wall-clock second is not a steady unit there. But whatever slows a
//! repetition also slows a fixed piece of ordinary work run right
//! before it in the same process. The harness therefore runs this
//! kernel before every repetition and reports each repetition's time as
//! a multiple of it (`*_ref` metrics, unit `ref`); the raw seconds stay
//! available as per-layer metrics. `setup_s` is scaled by it in the same
//! way and quoted in seconds of a host on which it takes 20 ms.
//!
//! The kernel is four sorts of the same 2¹⁸ pseudo-random 64-bit keys
//! (`sort_unstable`, a 2 MiB working set, ≈ 25 ms): branchy, store-heavy
//! integer code, which is what loading, distributing and initialising a
//! graph mostly are. Candidates were measured against the five
//! workloads over ten runs each on a host in its noisy state (the
//! workloads' own medians spread 5–35 % between runs): a dependent
//! arithmetic chain did not move with the host at all, random gathers
//! and streaming over 64 MiB and a socket ping-pong moved differently
//! from the workloads, and the sort tracked all five — dividing by it
//! left 4–7 % (README, "Why times are in `ref`").
//!
//! The kernel belongs to the benchmark, not to the code under test: it
//! calls nothing in the `cmg-*` crates, and changing it redefines every
//! bounded metric, exactly as editing a workload would.

use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 1 << 18;
const PASSES: usize = 4;

/// The kernel's fixed input and its scratch space.
pub struct Reference {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            scratch: keys.clone(),
            keys,
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns the seconds it took.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..PASSES {
            self.scratch.copy_from_slice(&self.keys);
            self.scratch.sort_unstable();
            black_box(self.scratch[KEYS / 2]);
        }
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_sorts_the_same_keys_every_time() {
        let mut r = Reference::default();
        assert!(r.measure() > 0.0);
        let first = r.scratch.clone();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.measure() > 0.0);
        assert_eq!(r.scratch, first);
        assert_ne!(r.keys, first);
    }
}
