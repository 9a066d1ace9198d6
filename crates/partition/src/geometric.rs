//! Geometry-driven partitioning: Morton (Z-order) space-filling-curve
//! blocks for vertices with 2-D coordinates.
//!
//! Space-filling-curve partitions are the classic cheap alternative to
//! multilevel tools for mesh-like inputs (the paper's grid distribution is
//! itself geometric): sort vertices by their interleaved-bit Morton code
//! and cut the order into equal blocks. Quality sits between 1-D blocks
//! and the multilevel partitioner at a fraction of the cost.

use crate::Partition;
use cmg_graph::VertexId;

/// Interleaves the low 16 bits of `x` and `y` into a 32-bit Morton code.
#[inline]
fn morton2d(x: u16, y: u16) -> u32 {
    fn spread(v: u16) -> u32 {
        let mut v = v as u32;
        v = (v | (v << 8)) & 0x00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333;
        v = (v | (v << 1)) & 0x5555_5555;
        v
    }
    spread(x) | (spread(y) << 1)
}

/// Partitions vertices with coordinates into `k` equal blocks of the
/// Morton order.
///
/// # Panics
/// Panics if a coordinate exceeds `u16::MAX` or `k == 0`.
pub fn morton_partition(coords: &[(u32, u32)], k: u32) -> Partition {
    assert!(k > 0);
    let n = coords.len();
    let mut order: Vec<(u32, VertexId)> = coords
        .iter()
        .enumerate()
        .map(|(v, &(x, y))| {
            assert!(
                x <= u16::MAX as u32 && y <= u16::MAX as u32,
                "coordinate too large"
            );
            (morton2d(x as u16, y as u16), v as VertexId)
        })
        .collect();
    order.sort_unstable();
    let per = n.div_ceil(k as usize).max(1);
    let mut assignment = vec![0u32; n];
    for (i, &(_, v)) in order.iter().enumerate() {
        assignment[v as usize] = ((i / per) as u32).min(k - 1);
    }
    Partition::new(assignment, k)
}

/// Morton partition of a `rows × cols` grid graph (row-major vertex ids).
pub fn morton_grid_partition(rows: usize, cols: usize, k: u32) -> Partition {
    let coords: Vec<(u32, u32)> = (0..rows * cols)
        .map(|v| ((v % cols) as u32, (v / cols) as u32))
        .collect();
    morton_partition(&coords, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{block_partition, random_partition};
    use cmg_graph::generators::grid2d;

    #[test]
    fn morton_codes_order_locally() {
        assert_eq!(morton2d(0, 0), 0);
        assert_eq!(morton2d(1, 0), 1);
        assert_eq!(morton2d(0, 1), 2);
        assert_eq!(morton2d(1, 1), 3);
        assert_eq!(morton2d(2, 0), 4);
        assert!(morton2d(255, 255) < morton2d(256, 256));
    }

    #[test]
    fn morton_partition_is_balanced() {
        let g = grid2d(16, 16);
        let p = morton_grid_partition(16, 16, 8);
        assert_eq!(p.num_parts(), 8);
        let q = p.quality(&g);
        assert!(q.imbalance <= 1.01, "imbalance {}", q.imbalance);
    }

    #[test]
    fn morton_beats_random_and_is_competitive_with_blocks() {
        let g = grid2d(32, 32);
        let morton = morton_grid_partition(32, 32, 16).quality(&g);
        let random = random_partition(1024, 16, 1).quality(&g);
        let blocks = block_partition(1024, 16).quality(&g);
        assert!(morton.edge_cut * 3 < random.edge_cut);
        // Morton blocks are square-ish: cut within 2x of 1-D strips at
        // this size, much better at high k (strips degenerate).
        assert!(morton.edge_cut <= 2 * blocks.edge_cut);
        let many_morton = morton_grid_partition(32, 32, 64).quality(&g);
        let many_blocks = block_partition(1024, 64).quality(&g);
        assert!(many_morton.edge_cut < many_blocks.edge_cut);
    }

    #[test]
    fn power_of_two_square_equals_uniform_blocks() {
        // On a 2^a × 2^a grid with k = 4^b parts, Morton blocks are exactly
        // the uniform 2-D sub-squares.
        let p = morton_grid_partition(8, 8, 4);
        let u = crate::simple::grid2d_partition(8, 8, 2, 2);
        // Same cut (part numbering may differ).
        let g = grid2d(8, 8);
        assert_eq!(p.quality(&g).edge_cut, u.quality(&g).edge_cut);
    }

    #[test]
    #[should_panic(expected = "coordinate too large")]
    fn oversized_coordinates_rejected() {
        morton_partition(&[(70_000, 0)], 2);
    }
}
