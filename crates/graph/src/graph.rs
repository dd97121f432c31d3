//! The core directed multigraph type and its identifiers.

use std::fmt;

/// Dense identifier of a node in a [`DiGraph`].
///
/// Ids are handed out consecutively starting from zero, so they can be
/// used directly as indices into caller-side attribute arrays.
///
/// ```
/// use spn_graph::DiGraph;
/// let mut g = DiGraph::new();
/// let n = g.add_node();
/// assert_eq!(n.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub(crate) u32);

/// Dense identifier of a directed edge in a [`DiGraph`].
///
/// Like [`NodeId`], edge ids are consecutive from zero and double as
/// indices into caller-side per-edge attribute arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// The id is only meaningful for graphs that actually contain at
    /// least `index + 1` nodes; methods on [`DiGraph`] will panic when
    /// handed an out-of-range id.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }

    /// Returns the dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Creates an edge id from a raw index.
    ///
    /// See [`NodeId::from_index`] for the validity caveat.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32 range"))
    }

    /// Returns the dense index of this edge.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed multigraph with dense node and edge ids.
///
/// Nodes and edges are added at the tail and can only be removed from
/// the tail (see [`DiGraph::truncate`]); interior "removal" in the
/// higher layers is expressed by filtering predicates (see
/// [`crate::topo::topological_order_filtered`]) so that surviving ids
/// stay stable — a property the distributed protocols rely on when
/// exchanging node references in messages.
///
/// Parallel edges between the same node pair are allowed (the extended
/// graph of the paper never produces them, but per-commodity overlays
/// may), and self-loops are rejected because no transformation in the
/// system can produce a meaningful one.
#[derive(Clone, Default)]
pub struct DiGraph {
    /// Edge endpoints, indexed by `EdgeId`.
    edges: Vec<(NodeId, NodeId)>,
    /// Outgoing edge lists, indexed by `NodeId`.
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge lists, indexed by `NodeId`.
    in_adj: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with preallocated capacity.
    #[must_use]
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.out_adj.len());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds `count` nodes and returns their ids in order.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Adds a directed edge from `src` to `dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph, or if
    /// `src == dst` (self-loops are not representable in the stream
    /// processing model).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(src.index() < self.node_count(), "src node out of range");
        assert!(dst.index() < self.node_count(), "dst node out of range");
        assert_ne!(src, dst, "self-loops are not supported");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push((src, dst));
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Shrinks the graph to its first `node_count` nodes and first
    /// `edge_count` edges, as if the later additions had never happened.
    ///
    /// Truncated edges are removed from the adjacency lists of any
    /// surviving endpoints, so interleaving `truncate` with fresh
    /// `add_node`/`add_edge` calls reproduces exactly the graph a
    /// from-scratch build of the same sequence would produce. Surviving
    /// ids are untouched.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the current size, or if a
    /// surviving edge references a truncated node.
    pub fn truncate(&mut self, node_count: usize, edge_count: usize) {
        assert!(
            node_count <= self.node_count(),
            "cannot truncate {} nodes up to {node_count}",
            self.node_count()
        );
        assert!(
            edge_count <= self.edge_count(),
            "cannot truncate {} edges up to {edge_count}",
            self.edge_count()
        );
        for (s, t) in &self.edges[..edge_count] {
            assert!(
                s.index() < node_count && t.index() < node_count,
                "surviving edge ({s}, {t}) references a truncated node"
            );
        }
        for id in edge_count..self.edges.len() {
            let (s, t) = self.edges[id];
            if s.index() < node_count {
                self.out_adj[s.index()].retain(|&e| e.index() != id);
            }
            if t.index() < node_count {
                self.in_adj[t.index()].retain(|&e| e.index() != id);
            }
        }
        self.edges.truncate(edge_count);
        self.out_adj.truncate(node_count);
        self.in_adj.truncate(node_count);
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out_adj.is_empty()
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all edge ids in index order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::from_index)
    }

    /// Returns the `(source, target)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of this graph.
    #[must_use]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.edges[edge.index()]
    }

    /// Returns the source node of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of this graph.
    #[must_use]
    pub fn source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].0
    }

    /// Returns the target node of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of this graph.
    #[must_use]
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].1
    }

    /// Outgoing edges of `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    #[must_use]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.index()]
    }

    /// Incoming edges of `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    #[must_use]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node.index()]
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adj[node.index()].len()
    }

    /// Successor nodes of `node` (one entry per outgoing edge, so a node
    /// reached by parallel edges appears multiple times).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node.index()].iter().map(|&e| self.target(e))
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DiGraph {{ nodes: {}, edges: {:?} }}",
            self.node_count(),
            self.edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[2], n[3]);
        (g, n)
    }

    #[test]
    fn ids_are_dense() {
        let (g, n) = diamond();
        assert_eq!(n[2].index(), 2);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let ids: Vec<usize> = g.edges().map(EdgeId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, n) = diamond();
        assert_eq!(g.out_degree(n[0]), 2);
        assert_eq!(g.in_edges(n[0]).len(), 0);
        assert_eq!(g.in_edges(n[3]).len(), 2);
        let succ: Vec<NodeId> = g.successors(n[0]).collect();
        assert_eq!(succ, vec![n[1], n[2]]);
        let pred: Vec<NodeId> = g.in_edges(n[3]).iter().map(|&e| g.source(e)).collect();
        assert_eq!(pred, vec![n[1], n[2]]);
        for e in g.edges() {
            let (s, t) = g.endpoints(e);
            assert!(g.out_edges(s).contains(&e));
            assert!(g.in_edges(t).contains(&e));
        }
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        assert_ne!(e1, e2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.out_edges(a), &[e1, e2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_panic() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.add_edge(a, a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_to_unknown_node_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.add_edge(a, NodeId::from_index(7));
    }

    #[test]
    fn debug_is_nonempty() {
        let g = DiGraph::new();
        assert!(!format!("{g:?}").is_empty());
        assert_eq!(format!("{}", NodeId::from_index(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId::from_index(5)), "e5");
    }

    #[test]
    fn truncate_drops_tail_and_cleans_adjacency() {
        let (mut g, n) = diamond();
        // dummy-source-style tail: a new node wired into survivors
        let d = g.add_node();
        g.add_edge(d, n[0]);
        g.add_edge(d, n[3]);
        assert_eq!(g.in_edges(n[0]).len(), 1);
        assert_eq!(g.in_edges(n[3]).len(), 3);
        g.truncate(4, 4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.in_edges(n[0]).len(), 0);
        assert_eq!(g.in_edges(n[3]).len(), 2);
        for e in g.edges() {
            let (s, t) = g.endpoints(e);
            assert!(g.out_edges(s).contains(&e));
            assert!(g.in_edges(t).contains(&e));
        }
    }

    #[test]
    fn truncate_then_readd_matches_fresh_ids() {
        let (mut g, n) = diamond();
        let d1 = g.add_node();
        g.add_edge(d1, n[0]);
        g.truncate(4, 4);
        let d2 = g.add_node();
        assert_eq!(d2, d1);
        let e = g.add_edge(d2, n[1]);
        assert_eq!(e.index(), 4);
        let pred: Vec<NodeId> = g.in_edges(n[1]).iter().map(|&e| g.source(e)).collect();
        assert_eq!(pred, vec![n[0], d2]);
    }

    #[test]
    #[should_panic(expected = "references a truncated node")]
    fn truncate_rejects_dangling_survivor() {
        let (mut g, _) = diamond();
        // edge 3 is n2 -> n3; keeping it while dropping n3 must panic
        g.truncate(3, 4);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_rejects_growth() {
        let (mut g, _) = diamond();
        g.truncate(9, 4);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = DiGraph::with_capacity(16, 32);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
