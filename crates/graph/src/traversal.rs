//! Breadth-first search and connected components (used by the partitioner's
//! graph-growing phase and by test invariants).

use crate::{CsrGraph, VertexId, NO_VERTEX};
use std::collections::VecDeque;

/// BFS distances from `source`; unreachable vertices get `usize::MAX`.
fn bfs_distances(g: &CsrGraph, source: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS visit order from `source` (only the reachable component).
pub fn bfs_order(g: &CsrGraph, source: VertexId) -> Vec<VertexId> {
    let mut seen = vec![false; g.num_vertices()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[source as usize] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Connected-component labeling: returns `(labels, component_count)` with
/// labels in `0..count`, numbered by the smallest contained vertex.
pub fn connected_components(g: &CsrGraph) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    let mut label = vec![NO_VERTEX; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in 0..n as VertexId {
        if label[s as usize] != NO_VERTEX {
            continue;
        }
        label[s as usize] = count as VertexId;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == NO_VERTEX {
                    label[v as usize] = count as VertexId;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// A pseudo-peripheral vertex: repeatedly BFS from the farthest vertex
/// found, until the eccentricity stops growing. Standard seed choice for
/// graph-growing partitioners.
pub fn pseudo_peripheral(g: &CsrGraph, start: VertexId) -> VertexId {
    let mut current = start;
    let mut best_ecc = 0usize;
    for _ in 0..8 {
        let dist = bfs_distances(g, current);
        let (far, ecc) = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != usize::MAX)
            .max_by_key(|&(_, &d)| d)
            .map(|(v, &d)| (v as VertexId, d))
            .unwrap_or((current, 0));
        if ecc <= best_ecc {
            break;
        }
        best_ecc = ecc;
        current = far;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, path};
    use crate::GraphBuilder;

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = GraphBuilder::new(3).build();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, usize::MAX, usize::MAX]);
    }

    #[test]
    fn bfs_order_visits_component_once() {
        let g = grid2d(3, 3);
        let order = bfs_order(&g, 4);
        assert_eq!(order.len(), 9);
        assert_eq!(order[0], 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = GraphBuilder::new(6);
        b.add_edge_unweighted(0, 1);
        b.add_edge_unweighted(2, 3);
        // 4, 5 isolated
        let g = b.build();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 4);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[5]);
    }

    #[test]
    fn grid_is_connected() {
        let (_, count) = connected_components(&grid2d(10, 10));
        assert_eq!(count, 1);
    }

    #[test]
    fn pseudo_peripheral_on_path_hits_an_end() {
        let g = path(9);
        let p = pseudo_peripheral(&g, 4);
        assert!(p == 0 || p == 8, "got {p}");
    }
}
