//! The coloring result type, its verification, and its assembly from
//! rank programs.

use cmg_graph::{CsrGraph, VertexId};

/// Sentinel for "not yet colored".
pub const UNCOLORED: u32 = u32::MAX;

/// A (distance-1) vertex coloring: `color[v]` ∈ `0..num_colors`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
}

impl Coloring {
    /// An all-uncolored assignment for `n` vertices.
    pub(crate) fn uncolored(n: usize) -> Self {
        Coloring {
            colors: vec![UNCOLORED; n],
        }
    }

    /// Wraps a color vector.
    pub fn from_colors(colors: Vec<u32>) -> Self {
        Coloring { colors }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// Color of `v` (or [`UNCOLORED`]).
    #[inline]
    pub fn color(&self, v: VertexId) -> u32 {
        self.colors[v as usize]
    }

    /// Sets the color of `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, c: u32) {
        self.colors[v as usize] = c;
    }

    /// `true` if every vertex has a color.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(|&c| c != UNCOLORED)
    }

    /// Number of distinct colors used (max color + 1 over colored
    /// vertices; 0 if nothing is colored).
    pub fn num_colors(&self) -> usize {
        self.colors
            .iter()
            .filter(|&&c| c != UNCOLORED)
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Raw color slice.
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Validates a proper, complete distance-1 coloring of `g`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.colors.len() != g.num_vertices() {
            return Err("coloring size does not match graph".into());
        }
        for v in 0..g.num_vertices() as VertexId {
            if self.colors[v as usize] == UNCOLORED {
                return Err(format!("vertex {v} uncolored"));
            }
            for &u in g.neighbors(v) {
                if u > v && self.colors[u as usize] == self.colors[v as usize] {
                    return Err(format!(
                        "conflict: vertices {v} and {u} share color {}",
                        self.colors[v as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A rank program that holds the colors of the vertices it owns.
pub trait LocalColors {
    /// Final colors of owned vertices as `(global id, color)`.
    fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_;
}

/// Assembles the global coloring from finished rank programs.
pub fn assemble_coloring<P: LocalColors>(programs: &[P], num_vertices: usize) -> Coloring {
    let mut coloring = Coloring::uncolored(num_vertices);
    for p in programs {
        for (v, c) in p.local_colors() {
            coloring.set(v, c);
        }
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::path;

    #[test]
    fn proper_coloring_validates() {
        let g = path(4);
        let c = Coloring::from_colors(vec![0, 1, 0, 1]);
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_complete());
    }

    #[test]
    fn conflicts_detected() {
        let g = path(3);
        let c = Coloring::from_colors(vec![0, 0, 1]);
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn uncolored_fails_validation() {
        let g = path(2);
        let mut c = Coloring::uncolored(2);
        assert!(!c.is_complete());
        assert!(c.validate(&g).is_err());
        c.set(0, 0);
        c.set(1, 1);
        c.validate(&g).unwrap();
    }

    #[test]
    fn num_colors_ignores_uncolored() {
        let mut c = Coloring::uncolored(3);
        assert_eq!(c.num_colors(), 0);
        c.set(1, 4);
        assert_eq!(c.num_colors(), 5);
    }
}
