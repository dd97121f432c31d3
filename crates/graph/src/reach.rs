//! Reachability queries and source–sink pruning.
//!
//! Commodity subgraphs are only meaningful on nodes that lie on some
//! source→sink path: a node that cannot reach the sink can never carry
//! useful flow, and the routing-fraction normalization `Σ_k φ_ik(j) = 1`
//! would be unsatisfiable there. [`on_path_nodes`] computes exactly that
//! set; the model crate uses it to validate and prune instances.

use crate::graph::{DiGraph, EdgeId, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start` by following edges forward, restricted to
/// edges accepted by `edge_filter`. The start node is always included.
pub fn reachable_from<F>(graph: &DiGraph, start: NodeId, mut edge_filter: F) -> Vec<bool>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &e in graph.out_edges(v) {
            if edge_filter(e) {
                let t = graph.target(e);
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    queue.push_back(t);
                }
            }
        }
    }
    seen
}

/// Nodes that can reach `goal` by following edges forward (computed as a
/// backward traversal), restricted to edges accepted by `edge_filter`.
/// The goal node is always included.
pub fn can_reach<F>(graph: &DiGraph, goal: NodeId, mut edge_filter: F) -> Vec<bool>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[goal.index()] = true;
    queue.push_back(goal);
    while let Some(v) = queue.pop_front() {
        for &e in graph.in_edges(v) {
            if edge_filter(e) {
                let s = graph.source(e);
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
    }
    seen
}

/// Nodes that lie on at least one directed path from `src` to `dst`
/// (inclusive), restricted to edges accepted by `edge_filter`.
///
/// Returns a boolean mask indexed by node; if `src` cannot reach `dst`
/// the mask is all-false.
pub fn on_path_nodes<F>(graph: &DiGraph, src: NodeId, dst: NodeId, mut edge_filter: F) -> Vec<bool>
where
    F: FnMut(EdgeId) -> bool,
{
    let fwd = reachable_from(graph, src, &mut edge_filter);
    let bwd = can_reach(graph, dst, &mut edge_filter);
    if !fwd[dst.index()] {
        return vec![false; graph.node_count()];
    }
    fwd.iter().zip(bwd.iter()).map(|(&f, &b)| f && b).collect()
}

/// Edges whose both endpoints lie on some `src`→`dst` path.
///
/// Combined with [`on_path_nodes`], this prunes a commodity overlay to
/// its useful core.
pub fn on_path_edges<F>(graph: &DiGraph, src: NodeId, dst: NodeId, mut edge_filter: F) -> Vec<bool>
where
    F: FnMut(EdgeId) -> bool,
{
    let nodes = on_path_nodes(graph, src, dst, &mut edge_filter);
    graph
        .edges()
        .map(|e| edge_filter(e) && nodes[graph.source(e).index()] && nodes[graph.target(e).index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 3, 0 -> 2, 4 isolated-ish (2 -> 4 dead end)
    fn fixture() -> (DiGraph, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let n = g.add_nodes(5);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[2], n[4]);
        (g, n)
    }

    #[test]
    fn forward_reachability() {
        let (g, n) = fixture();
        let r = reachable_from(&g, n[0], |_| true);
        assert_eq!(r, vec![true, true, true, true, true]);
        let r1 = reachable_from(&g, n[1], |_| true);
        assert_eq!(r1, vec![false, true, false, true, false]);
    }

    #[test]
    fn backward_reachability() {
        let (g, n) = fixture();
        let r = can_reach(&g, n[3], |_| true);
        assert_eq!(r, vec![true, true, false, true, false]);
    }

    #[test]
    fn path_nodes_exclude_dead_ends() {
        let (g, n) = fixture();
        let mask = on_path_nodes(&g, n[0], n[3], |_| true);
        // node 2 and 4 are reachable from 0 but cannot reach 3
        assert_eq!(mask, vec![true, true, false, true, false]);
    }

    #[test]
    fn path_nodes_empty_when_unreachable() {
        let (g, n) = fixture();
        let mask = on_path_nodes(&g, n[3], n[0], |_| true);
        assert!(mask.iter().all(|&b| !b));
    }

    #[test]
    fn path_edges_follow_path_nodes() {
        let (g, n) = fixture();
        let mask = on_path_edges(&g, n[0], n[3], |_| true);
        // edges 0 (0->1) and 1 (1->3) survive; 2 (0->2) and 3 (2->4) do not
        assert_eq!(mask, vec![true, true, false, false]);
    }

    #[test]
    fn filters_restrict_reachability() {
        let (g, n) = fixture();
        let blocked = g.out_edges(n[0])[0]; // 0 -> 1
        let r = reachable_from(&g, n[0], |e| e != blocked);
        assert_eq!(r, vec![true, false, true, false, true]);
    }
}
