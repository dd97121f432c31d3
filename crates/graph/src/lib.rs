//! Directed-graph substrate for stream processing networks.
//!
//! This crate provides the graph machinery that every other `spn` crate
//! builds on: a compact directed multigraph ([`DiGraph`]) with stable
//! integer identifiers ([`NodeId`], [`EdgeId`]), plus the classic
//! algorithms the paper's transformations and protocols require:
//!
//! * topological ordering and cycle detection ([`topo`]), including
//!   *filtered* variants that operate on the subgraph selected by an edge
//!   predicate — this is how per-commodity routing DAGs are ordered and
//!   how loop-freedom of a routing variable set is certified;
//! * forward/backward reachability and source-sink path pruning
//!   ([`reach`]);
//! * path statistics ([`paths`]): hop distances, DAG depth (the paper's
//!   `O(L)` message-cost parameter), and bounded path enumeration;
//! * Graphviz export ([`dot`]) for debugging instances.
//!
//! The graph is deliberately payload-free: callers attach node and edge
//! attributes in parallel arrays indexed by the dense ids. This keeps the
//! substrate reusable across the physical graph, the extended graph (with
//! bandwidth nodes), and the per-commodity DAGs without generic noise.
//!
//! # Example
//!
//! ```
//! use spn_graph::{DiGraph, topo::topological_order};
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b);
//! g.add_edge(b, c);
//! g.add_edge(a, c);
//! let order = topological_order(&g).expect("acyclic");
//! assert_eq!(order.first(), Some(&a));
//! assert_eq!(order.last(), Some(&c));
//! ```

pub mod dot;
pub mod graph;
pub mod paths;
pub mod reach;
pub mod topo;

pub use graph::{DiGraph, EdgeId, NodeId};
pub use topo::CycleError;
