//! Path statistics: hop distances, DAG depth, and bounded enumeration.
//!
//! Two of these feed the reproduction directly: backward hop distances
//! ([`hops_to`]) seed the initial shortest-path routing of the gradient
//! algorithm, and the DAG depth ([`longest_path_len`]) is the `L` in the
//! paper's `O(L)`-messages-per-iteration claim (experiment E4).

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::topo::{topological_order_filtered, CycleError};
use std::collections::VecDeque;

/// Backward BFS hop distances to `goal` over edges selected by
/// `edge_filter`: `dist[v]` is the minimum number of selected edges on a
/// `v → goal` path, or `None` if `goal` is unreachable from `v`.
pub fn hops_to<F>(graph: &DiGraph, goal: NodeId, mut edge_filter: F) -> Vec<Option<usize>>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut dist = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[goal.index()] = Some(0);
    queue.push_back(goal);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for &e in graph.in_edges(v) {
            if edge_filter(e) {
                let s = graph.source(e);
                if dist[s.index()].is_none() {
                    dist[s.index()] = Some(d + 1);
                    queue.push_back(s);
                }
            }
        }
    }
    dist
}

/// Length (in edges) of the longest directed path in the subgraph
/// selected by `edge_filter`.
///
/// # Errors
///
/// Returns [`CycleError`] if the selected subgraph is cyclic (the longest
/// path is then unbounded).
pub fn longest_path_len<F>(graph: &DiGraph, mut edge_filter: F) -> Result<usize, CycleError>
where
    F: FnMut(EdgeId) -> bool,
{
    let order = topological_order_filtered(graph, &mut edge_filter)?;
    let mut depth = vec![0usize; graph.node_count()];
    let mut best = 0;
    for v in order {
        for &e in graph.out_edges(v) {
            if edge_filter(e) {
                let t = graph.target(e);
                let cand = depth[v.index()] + 1;
                if cand > depth[t.index()] {
                    depth[t.index()] = cand;
                    best = best.max(cand);
                }
            }
        }
    }
    Ok(best)
}

/// Number of distinct directed paths from `src` to `dst` in the subgraph
/// selected by `edge_filter`, saturating at `u64::MAX`.
///
/// # Errors
///
/// Returns [`CycleError`] if the selected subgraph is cyclic.
pub fn count_paths<F>(
    graph: &DiGraph,
    src: NodeId,
    dst: NodeId,
    mut edge_filter: F,
) -> Result<u64, CycleError>
where
    F: FnMut(EdgeId) -> bool,
{
    let order = topological_order_filtered(graph, &mut edge_filter)?;
    let mut count = vec![0u64; graph.node_count()];
    count[src.index()] = 1;
    for v in order {
        if count[v.index()] == 0 {
            continue;
        }
        for &e in graph.out_edges(v) {
            if edge_filter(e) {
                let t = graph.target(e).index();
                count[t] = count[t].saturating_add(count[v.index()]);
            }
        }
    }
    Ok(count[dst.index()])
}

/// Enumerates up to `limit` directed paths from `src` to `dst` as node
/// sequences, over edges selected by `edge_filter`.
///
/// Intended for tests and small instances (Property 1 validation walks
/// every path of a commodity DAG); the subgraph must be acyclic or the
/// enumeration may not terminate within `limit`.
pub fn enumerate_paths<F>(
    graph: &DiGraph,
    src: NodeId,
    dst: NodeId,
    limit: usize,
    mut edge_filter: F,
) -> Vec<Vec<NodeId>>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut paths = Vec::new();
    let mut current = vec![src];
    // stack of (node, next out-edge index)
    let mut stack: Vec<(NodeId, usize)> = vec![(src, 0)];
    while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
        if paths.len() >= limit {
            break;
        }
        if v == dst {
            paths.push(current.clone());
            stack.pop();
            current.pop();
            continue;
        }
        let out = graph.out_edges(v);
        if *pos < out.len() {
            let e = out[*pos];
            *pos += 1;
            if edge_filter(e) {
                let w = graph.target(e);
                current.push(w);
                stack.push((w, 0));
            }
        } else {
            stack.pop();
            current.pop();
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_chain() -> (DiGraph, Vec<NodeId>) {
        // 0 -> {1,2} -> 3 -> 4
        let mut g = DiGraph::new();
        let n = g.add_nodes(5);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[2], n[3]);
        g.add_edge(n[3], n[4]);
        (g, n)
    }

    #[test]
    fn hop_distances() {
        let (g, n) = diamond_chain();
        let d = hops_to(&g, n[4], |_| true);
        assert_eq!(d[n[4].index()], Some(0));
        assert_eq!(d[n[3].index()], Some(1));
        assert_eq!(d[n[1].index()], Some(2));
        assert_eq!(d[n[0].index()], Some(3));
    }

    #[test]
    fn hop_distance_unreachable_is_none() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(2);
        let d = hops_to(&g, n[1], |_| true);
        assert_eq!(d[n[0].index()], None);
    }

    #[test]
    fn longest_path() {
        let (g, _) = diamond_chain();
        assert_eq!(longest_path_len(&g, |_| true).unwrap(), 3);
    }

    #[test]
    fn longest_path_rejects_cycles() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(2);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]);
        assert!(longest_path_len(&g, |_| true).is_err());
    }

    #[test]
    fn path_counting() {
        let (g, n) = diamond_chain();
        assert_eq!(count_paths(&g, n[0], n[4], |_| true).unwrap(), 2);
        assert_eq!(count_paths(&g, n[0], n[3], |_| true).unwrap(), 2);
        assert_eq!(count_paths(&g, n[4], n[0], |_| true).unwrap(), 0);
        assert_eq!(count_paths(&g, n[0], n[0], |_| true).unwrap(), 1);
    }

    #[test]
    fn path_enumeration_matches_count() {
        let (g, n) = diamond_chain();
        let paths = enumerate_paths(&g, n[0], n[4], 100, |_| true);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.first(), Some(&n[0]));
            assert_eq!(p.last(), Some(&n[4]));
        }
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn enumeration_respects_limit() {
        let (g, n) = diamond_chain();
        let paths = enumerate_paths(&g, n[0], n[4], 1, |_| true);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn enumeration_respects_filter() {
        let (g, n) = diamond_chain();
        let skip = g.out_edges(n[0])[0]; // 0 -> 1
        let paths = enumerate_paths(&g, n[0], n[4], 10, |e| e != skip);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0], vec![n[0], n[2], n[3], n[4]]);
    }
}
