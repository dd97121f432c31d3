//! Ergonomic incremental construction of [`Problem`]s.

use crate::capacity::Capacity;
use crate::commodity::{Commodity, CommodityId};
use crate::error::ModelError;
use crate::problem::{EdgeParams, Problem};
use crate::utility::UtilityFn;
use spn_graph::{DiGraph, EdgeId, NodeId};

/// Builder for [`Problem`] instances.
///
/// The builder accumulates servers, links, commodities and overlay
/// entries, and defers all validation to [`ProblemBuilder::build`]
/// (which delegates to `Problem::from_parts`).
///
/// ```
/// use spn_model::builder::ProblemBuilder;
/// use spn_model::UtilityFn;
///
/// # fn main() -> Result<(), spn_model::ModelError> {
/// let mut b = ProblemBuilder::new();
/// let s = b.server(10.0);
/// let m = b.server(8.0);
/// let t = b.server(8.0);
/// let e1 = b.link(s, m, 5.0);
/// let e2 = b.link(m, t, 5.0);
/// let j = b.commodity(s, t, 4.0, UtilityFn::throughput());
/// b.uses(j, e1, 2.0, 0.5); // cost 2, shrinks by half
/// b.uses(j, e2, 1.0, 1.0);
/// let problem = b.build()?;
/// assert_eq!(problem.num_commodities(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProblemBuilder {
    graph: DiGraph,
    node_capacity: Vec<Capacity>,
    edge_bandwidth: Vec<Capacity>,
    commodities: Vec<Commodity>,
    entries: Vec<(CommodityId, EdgeId, EdgeParams)>,
}

/// Shared rejection text for construction-time budgets, so the
/// panicking and `try_` constructors fail with identical wording.
fn budget_message(what: &str, value: f64) -> String {
    format!("{what} must be positive and finite: {value}")
}

impl ProblemBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a processing server with computing capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive; budgets are
    /// construction-time constants, so failing fast beats threading a
    /// `Result` through every call site.
    pub fn server(&mut self, capacity: f64) -> NodeId {
        self.try_server(capacity)
            .unwrap_or_else(|_| panic!("{}", budget_message("server capacity", capacity)))
    }

    /// Fallible form of [`ProblemBuilder::server`]: rejects a non-finite
    /// or non-positive budget with an error instead of a panic, leaving
    /// the builder untouched.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadNodeCapacity`] naming the id the server would
    /// have received.
    pub(crate) fn try_server(&mut self, capacity: f64) -> Result<NodeId, ModelError> {
        let Some(c) = Capacity::finite(capacity) else {
            return Err(ModelError::BadNodeCapacity {
                node: NodeId::from_index(self.graph.node_count()),
            });
        };
        let id = self.graph.add_node();
        self.node_capacity.push(c);
        Ok(id)
    }

    /// Adds a directed link with the given bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not finite and positive, or if the
    /// endpoints are invalid (see [`DiGraph::add_edge`]).
    pub fn link(&mut self, src: NodeId, dst: NodeId, bandwidth: f64) -> EdgeId {
        self.try_link(src, dst, bandwidth)
            .unwrap_or_else(|_| panic!("{}", budget_message("link bandwidth", bandwidth)))
    }

    /// Fallible form of [`ProblemBuilder::link`]: rejects a non-finite
    /// or non-positive bandwidth with an error instead of a panic,
    /// leaving the builder untouched.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadBandwidth`] naming the id the link would have
    /// received.
    ///
    /// # Panics
    ///
    /// Invalid endpoints still panic (see [`DiGraph::add_edge`]) — node
    /// ids come from this builder, so a bad one is a caller bug, not
    /// input data.
    pub(crate) fn try_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: f64,
    ) -> Result<EdgeId, ModelError> {
        let Some(b) = Capacity::finite(bandwidth) else {
            return Err(ModelError::BadBandwidth {
                edge: EdgeId::from_index(self.graph.edge_count()),
            });
        };
        let id = self.graph.add_edge(src, dst);
        self.edge_bandwidth.push(b);
        Ok(id)
    }

    /// Declares a commodity entering at `source`, consumed at `sink`,
    /// generated at up to `max_rate`, valued by `utility`.
    pub fn commodity(
        &mut self,
        source: NodeId,
        sink: NodeId,
        max_rate: f64,
        utility: UtilityFn,
    ) -> CommodityId {
        let id = CommodityId::from_index(self.commodities.len());
        self.commodities
            .push(Commodity::new(source, sink, max_rate, utility));
        id
    }

    /// Declares that commodity `j` may use `edge`, spending `cost`
    /// compute per input unit and emitting `beta` output units per input
    /// unit.
    pub fn uses(&mut self, j: CommodityId, edge: EdgeId, cost: f64, beta: f64) -> &mut Self {
        self.entries.push((j, edge, EdgeParams::new(cost, beta)));
        self
    }

    /// Nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Validates and builds the problem.
    ///
    /// # Errors
    ///
    /// See [`Problem::from_parts`].
    pub fn build(self) -> Result<Problem, ModelError> {
        let mut overlay: Vec<Vec<Option<EdgeParams>>> =
            vec![vec![None; self.graph.edge_count()]; self.commodities.len()];
        for (j, e, p) in self.entries {
            overlay[j.index()][e.index()] = Some(p);
        }
        Problem::from_parts(
            self.graph,
            self.node_capacity,
            self.edge_bandwidth,
            self.commodities,
            overlay,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_chain() {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 3.0);
        let j = b.commodity(s, t, 2.0, UtilityFn::throughput());
        b.uses(j, e, 1.5, 0.8);
        let p = b.build().unwrap();
        assert_eq!(p.params(j, e).unwrap(), EdgeParams::new(1.5, 0.8));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bad_server_capacity_panics() {
        ProblemBuilder::new().server(-1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bad_bandwidth_panics() {
        let mut b = ProblemBuilder::new();
        let s = b.server(1.0);
        let t = b.server(1.0);
        b.link(s, t, f64::NAN);
    }

    #[test]
    fn try_constructors_report_instead_of_panicking() {
        let mut b = ProblemBuilder::new();
        let s = b.try_server(4.0).unwrap();
        assert_eq!(
            b.try_server(f64::INFINITY),
            Err(ModelError::BadNodeCapacity {
                node: NodeId::from_index(1)
            })
        );
        // The rejected server left no trace.
        assert_eq!(b.node_count(), 1);
        let t = b.try_server(4.0).unwrap();
        assert_eq!(t, NodeId::from_index(1));
        assert_eq!(
            b.try_link(s, t, -2.0),
            Err(ModelError::BadBandwidth {
                edge: EdgeId::from_index(0)
            })
        );
        assert_eq!(b.edge_count(), 0);
        let e = b.try_link(s, t, 2.0).unwrap();
        let j = b.commodity(s, t, 1.0, UtilityFn::throughput());
        b.uses(j, e, 1.0, 1.0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn counters() {
        let mut b = ProblemBuilder::new();
        let s = b.server(1.0);
        let t = b.server(1.0);
        b.link(s, t, 1.0);
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.edge_count(), 1);
    }
}
