//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use spn_graph::paths::{count_paths, enumerate_paths, hops_to, longest_path_len};
use spn_graph::reach::{can_reach, on_path_edges, on_path_nodes, reachable_from};
use spn_graph::topo::{is_acyclic, is_valid_topological_order, topological_order};
use spn_graph::{DiGraph, NodeId};

/// Strategy: a random digraph as (node count, edge list).
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
            let mut g = DiGraph::new();
            let nodes = g.add_nodes(n);
            for (a, b) in pairs {
                if a != b {
                    g.add_edge(nodes[a], nodes[b]);
                }
            }
            g
        })
    })
}

/// Independent cycle oracle: a recursive depth-first search that reports
/// a cycle when an edge leads back to a node still on its stack (grey).
fn has_cycle_dfs(g: &DiGraph) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    fn visit(g: &DiGraph, v: NodeId, colour: &mut [Colour]) -> bool {
        colour[v.index()] = Colour::Grey;
        for &e in g.out_edges(v) {
            let w = g.target(e);
            let cycle = match colour[w.index()] {
                Colour::Grey => true,
                Colour::White => visit(g, w, colour),
                Colour::Black => false,
            };
            if cycle {
                return true;
            }
        }
        colour[v.index()] = Colour::Black;
        false
    }
    let mut colour = vec![Colour::White; g.node_count()];
    g.nodes()
        .any(|v| colour[v.index()] == Colour::White && visit(g, v, &mut colour))
}

/// Strategy: a random DAG (edges only from lower to higher index).
fn arb_dag(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = DiGraph> {
    arb_graph(max_nodes, max_edges).prop_map(|g| {
        let mut dag = DiGraph::new();
        dag.add_nodes(g.node_count());
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            if a.index() < b.index() {
                dag.add_edge(a, b);
            } else {
                dag.add_edge(b, a);
            }
        }
        dag
    })
}

proptest! {
    #[test]
    fn topological_order_is_valid_on_dags(g in arb_dag(20, 60)) {
        let order = topological_order(&g).expect("dag");
        prop_assert!(is_valid_topological_order(&g, &order, |_| true));
    }

    #[test]
    fn kahn_and_dfs_agree_on_cyclicity(g in arb_graph(15, 45)) {
        prop_assert_eq!(is_acyclic(&g), !has_cycle_dfs(&g));
    }

    #[test]
    fn reachability_is_transitive_and_consistent(g in arb_graph(12, 40)) {
        let start = NodeId::from_index(0);
        let fwd = reachable_from(&g, start, |_| true);
        // forward-reachable set computed per node must agree with the
        // backward query from each reachable node
        for v in g.nodes() {
            if fwd[v.index()] {
                let bwd = can_reach(&g, v, |_| true);
                prop_assert!(bwd[start.index()], "{v} reachable but cannot be reached back");
            }
        }
    }

    #[test]
    fn on_path_sets_are_intersections(g in arb_graph(12, 40)) {
        let s = NodeId::from_index(0);
        let t = NodeId::from_index(g.node_count() - 1);
        let mask = on_path_nodes(&g, s, t, |_| true);
        let fwd = reachable_from(&g, s, |_| true);
        let bwd = can_reach(&g, t, |_| true);
        if fwd[t.index()] {
            for v in g.nodes() {
                prop_assert_eq!(mask[v.index()], fwd[v.index()] && bwd[v.index()]);
            }
        } else {
            prop_assert!(mask.iter().all(|&b| !b));
        }
        // edge mask implies both endpoints on path
        let emask = on_path_edges(&g, s, t, |_| true);
        for e in g.edges() {
            if emask[e.index()] {
                prop_assert!(mask[g.source(e).index()] && mask[g.target(e).index()]);
            }
        }
    }

    #[test]
    fn hop_counts_are_shortest(g in arb_dag(14, 40)) {
        let goal = NodeId::from_index(g.node_count() - 1);
        let dist = hops_to(&g, goal, |_| true);
        // triangle inequality along every edge
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            if let (Some(da), Some(db)) = (dist[a.index()], dist[b.index()]) {
                prop_assert!(da <= db + 1, "hops not shortest along {e}");
            }
        }
    }

    #[test]
    fn path_enumeration_matches_count(g in arb_dag(10, 25)) {
        let s = NodeId::from_index(0);
        let t = NodeId::from_index(g.node_count() - 1);
        let count = count_paths(&g, s, t, |_| true).expect("dag");
        if count <= 500 {
            let paths = enumerate_paths(&g, s, t, 1000, |_| true);
            prop_assert_eq!(paths.len() as u64, count);
        }
    }

    #[test]
    fn longest_path_bounds_hops(g in arb_dag(14, 40)) {
        let depth = longest_path_len(&g, |_| true).expect("dag");
        prop_assert!(depth < g.node_count());
        let goal = NodeId::from_index(g.node_count() - 1);
        for d in hops_to(&g, goal, |_| true).into_iter().flatten() {
            prop_assert!(d <= depth);
        }
    }
}
