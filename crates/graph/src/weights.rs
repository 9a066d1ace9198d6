//! Edge-weight assignment schemes.
//!
//! §5.1 of the paper: "For the experiments on matching, the edges in the
//! graphs were assigned random weights. This ensured that the grid
//! structure did not play a significant role for the scalability study."
//! The schemes here cover that case plus the adversarial distributions the
//! test suite uses for failure injection (all-equal weights exercise every
//! tie-breaking path).

use crate::{CsrGraph, VertexId, Weight};

/// How to assign weights to the edges of a graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightScheme {
    /// Uniform random weights in `(lo, hi)`.
    Uniform { lo: Weight, hi: Weight },
    /// Random integer weights in `1..=max` (many ties — stresses the
    /// smallest-label tie-breaking rule of the matching algorithm).
    Integer { max: u64 },
    /// Every edge gets the same weight (worst case for tie-breaking).
    Equal(Weight),
    /// Weight of `{u, v}` = `deg(u) + deg(v)` (correlated, structured).
    DegreeSum,
}

/// Assigns weights per `scheme` deterministically from `seed`.
///
/// The weight of an edge depends only on its endpoints and the seed, never
/// on iteration order, so distributed and sequential constructions of the
/// same graph agree on every weight.
pub fn assign_weights(g: &CsrGraph, scheme: WeightScheme, seed: u64) -> CsrGraph {
    let draw = EdgeUnitRandom::new(seed);
    match scheme {
        WeightScheme::Uniform { lo, hi } => g.with_weights(|u, v| {
            let r = draw.of(u, v);
            lo + (hi - lo) * r
        }),
        WeightScheme::Integer { max } => g.with_weights(|u, v| {
            let r = draw.of(u, v);
            1.0 + (r * max as Weight).floor().min(max as Weight - 1.0)
        }),
        WeightScheme::Equal(w) => g.with_weights(|_, _| w),
        WeightScheme::DegreeSum => g.with_weights(|u, v| (g.degree(u) + g.degree(v)) as Weight),
    }
}

/// Deterministic pseudo-random values in `[0, 1)` per edge under one
/// seed, the seed hashed once. Public so distributed constructions can
/// reproduce exactly the weights of [`assign_weights`] without the global
/// graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeUnitRandom(u64);

impl EdgeUnitRandom {
    /// Draws under `seed`.
    pub fn new(seed: u64) -> Self {
        EdgeUnitRandom(crate::util::splitmix64(seed))
    }

    /// The value of edge `{u, v}` in its `u < v` canonical orientation.
    #[inline]
    pub fn of(self, u: VertexId, v: VertexId) -> Weight {
        // 53 bits -> f64 in [0, 1), exactly.
        self.bits(u, v) as f64 / (1u64 << 53) as f64
    }

    /// The 53 random bits behind [`Self::of`]. `of` is `bits` scaled by
    /// the exact `2^-53`, so the two order edges alike, ties included.
    #[inline]
    pub fn bits(self, u: VertexId, v: VertexId) -> u64 {
        let key = ((u as u64) << 32) | v as u64;
        crate::util::splitmix64(key ^ self.0) >> 11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;

    #[test]
    fn uniform_weights_in_range_and_deterministic() {
        let g = grid2d(6, 6);
        let w1 = assign_weights(&g, WeightScheme::Uniform { lo: 1.0, hi: 2.0 }, 9);
        let w2 = assign_weights(&g, WeightScheme::Uniform { lo: 1.0, hi: 2.0 }, 9);
        assert_eq!(w1, w2);
        for (_, _, w) in w1.edges() {
            assert!((1.0..2.0).contains(&w));
        }
        w1.validate().unwrap();
    }

    #[test]
    fn different_seeds_differ() {
        let g = grid2d(6, 6);
        let a = assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 1);
        let b = assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn integer_weights_are_integral() {
        let g = grid2d(5, 5);
        let wg = assign_weights(&g, WeightScheme::Integer { max: 10 }, 3);
        for (_, _, w) in wg.edges() {
            assert_eq!(w, w.floor());
            assert!((1.0..=10.0).contains(&w));
        }
    }

    #[test]
    fn equal_weights() {
        let g = grid2d(4, 4);
        let wg = assign_weights(&g, WeightScheme::Equal(2.5), 0);
        assert!(wg.edges().all(|(_, _, w)| w == 2.5));
    }

    #[test]
    fn degree_sum_weights() {
        let g = grid2d(3, 3);
        let wg = assign_weights(&g, WeightScheme::DegreeSum, 0);
        // Center vertex 4 has degree 4; its neighbor 1 has degree 3.
        assert_eq!(wg.edge_weight(1, 4), Some(7.0));
    }

    #[test]
    fn weights_independent_of_orientation() {
        // EdgeUnitRandom is keyed on (min, max) via with_weights' u < v
        // convention; symmetry is verified by validate().
        let g = grid2d(8, 8);
        let wg = assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 4);
        wg.validate().unwrap();
    }
}
