//! Strongly connected components (iterative Tarjan).
//!
//! A routing variable set is loop-free exactly when the subgraph of
//! positive-fraction edges has no strongly connected component with more
//! than one node. The protocol drivers use [`has_nontrivial_scc_filtered`]
//! as a certificate of loop freedom.

use crate::graph::{DiGraph, EdgeId, NodeId};

/// Computes the strongly connected components of the subgraph selected by
/// `edge_filter`, using an iterative Tarjan traversal (no recursion, safe
/// for deep graphs).
///
/// Returns the components as vectors of nodes, in reverse topological
/// order of the condensation (i.e. a component appears before every
/// component it can reach... specifically Tarjan emits components in
/// reverse topological order).
pub(crate) fn strongly_connected_components_filtered<F>(
    graph: &DiGraph,
    mut edge_filter: F,
) -> Vec<Vec<NodeId>>
where
    F: FnMut(EdgeId) -> bool,
{
    let n = graph.node_count();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS state: (node, next out-edge position to examine).
    let mut call_stack: Vec<(NodeId, usize)> = Vec::new();

    let selected: Vec<bool> = graph.edges().map(&mut edge_filter).collect();

    for root in graph.nodes() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        index[root.index()] = next_index;
        lowlink[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let out = graph.out_edges(v);
            if *pos < out.len() {
                let e = out[*pos];
                *pos += 1;
                if !selected[e.index()] {
                    continue;
                }
                let w = graph.target(e);
                if index[w.index()] == UNVISITED {
                    index[w.index()] = next_index;
                    lowlink[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w.index()] {
                    lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                }
                if lowlink[v.index()] == index[v.index()] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w.index()] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
            }
        }
    }
    components
}

/// Returns `true` if the subgraph selected by `edge_filter` contains a
/// strongly connected component of two or more nodes — i.e. a directed
/// cycle (self-loops cannot exist in [`DiGraph`]).
pub fn has_nontrivial_scc_filtered<F>(graph: &DiGraph, edge_filter: F) -> bool
where
    F: FnMut(EdgeId) -> bool,
{
    strongly_connected_components_filtered(graph, edge_filter)
        .iter()
        .any(|c| c.len() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::is_acyclic_filtered;

    #[test]
    fn dag_has_singleton_components() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[3]);
        let sccs = strongly_connected_components_filtered(&g, |_| true);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
        assert!(!has_nontrivial_scc_filtered(&g, |_| true));
    }

    #[test]
    fn finds_a_cycle_component() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(5);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[1]); // cycle {1,2}
        g.add_edge(n[2], n[3]);
        g.add_edge(n[3], n[4]);
        let sccs = strongly_connected_components_filtered(&g, |_| true);
        let sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        assert_eq!(sccs.iter().map(|c| c.len()).sum::<usize>(), 5);
        assert!(sizes.contains(&2));
        assert!(has_nontrivial_scc_filtered(&g, |_| true));
    }

    #[test]
    fn filter_breaks_cycles() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(2);
        g.add_edge(n[0], n[1]);
        let back = g.add_edge(n[1], n[0]);
        assert!(has_nontrivial_scc_filtered(&g, |_| true));
        assert!(!has_nontrivial_scc_filtered(&g, |e| e != back));
    }

    #[test]
    fn agrees_with_kahn_on_random_graphs() {
        // deterministic pseudo-random graphs via a tiny LCG
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..50 {
            let n = 2 + next() % 12;
            let mut g = DiGraph::new();
            let nodes = g.add_nodes(n);
            let m = next() % (3 * n);
            for _ in 0..m {
                let a = next() % n;
                let b = next() % n;
                if a != b {
                    g.add_edge(nodes[a], nodes[b]);
                }
            }
            let cyclic_scc = has_nontrivial_scc_filtered(&g, |_| true);
            let cyclic_kahn = !is_acyclic_filtered(&g, |_| true);
            assert_eq!(cyclic_scc, cyclic_kahn);
        }
    }

    #[test]
    fn components_emitted_in_reverse_topological_order() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        let sccs = strongly_connected_components_filtered(&g, |_| true);
        // n2's component must come before n0's
        let pos = |x: NodeId| sccs.iter().position(|c| c.contains(&x)).unwrap();
        assert!(pos(n[2]) < pos(n[0]));
    }
}
