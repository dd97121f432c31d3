//! The full optimization instance: graph, capacities, commodities, and
//! per-(commodity, edge) processing parameters.

use crate::capacity::Capacity;
use crate::commodity::{Commodity, CommodityId};
use crate::error::ModelError;
use crate::gains::reached_gains;
use spn_graph::reach::on_path_edges;
use spn_graph::{DiGraph, EdgeId, NodeId};

/// Per-(commodity, edge) processing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeParams {
    /// Computing power `c^j_ik` node `i` spends to process one unit of
    /// commodity-`j` input destined for `k`.
    pub cost: f64,
    /// Shrinkage factor `β^j_ik`: units of output per unit of input
    /// (`< 1` shrinks, `> 1` expands).
    pub beta: f64,
}

impl EdgeParams {
    /// Creates edge parameters.
    #[must_use]
    pub fn new(cost: f64, beta: f64) -> Self {
        EdgeParams { cost, beta }
    }

    fn is_valid(&self) -> bool {
        self.cost.is_finite() && self.cost > 0.0 && self.beta.is_finite() && self.beta > 0.0
    }
}

/// A validated instance of the paper's utility optimization problem
/// (§2): *Given network `G`, resource budgets `C`, consumption rates
/// `c`, shrinkage factors `β`, and input rates `Λ`, maximize
/// `Σ_j U_j(a_j)` subject to node, link, and flow-balance constraints.*
///
/// Construct via [`crate::builder::ProblemBuilder`] or
/// [`Problem::from_parts`]; both validate every structural assumption
/// the algorithms rely on (commodity DAGs, Property 1, reachability,
/// parameter signs), so downstream crates can use the data without
/// re-checking.
#[derive(Clone, Debug)]
pub struct Problem {
    graph: DiGraph,
    node_capacity: Vec<Capacity>,
    edge_bandwidth: Vec<Capacity>,
    commodities: Vec<Commodity>,
    /// `overlay[j][e]` — parameters of edge `e` for commodity `j`, or
    /// `None` if the commodity does not use the edge.
    overlay: Vec<Vec<Option<EdgeParams>>>,
    /// Cached per-commodity gains `g_j(n)`, from validation: `(node,
    /// gain)` for the nodes the commodity reaches from its source,
    /// ascending by node. Every other node's gain is `1.0`.
    gains: Vec<Vec<(NodeId, f64)>>,
}

impl Problem {
    /// Assembles and validates a problem from raw parts.
    ///
    /// `overlay[j][e]` gives commodity `j`'s parameters on edge `e`
    /// (`None` when the commodity does not use the edge).
    ///
    /// # Errors
    ///
    /// Every structural defect is reported as a specific
    /// [`ModelError`]; see that type for the full catalogue. Notably,
    /// overlay edges not on any source→sink path are rejected.
    pub fn from_parts(
        graph: DiGraph,
        node_capacity: Vec<Capacity>,
        edge_bandwidth: Vec<Capacity>,
        commodities: Vec<Commodity>,
        overlay: Vec<Vec<Option<EdgeParams>>>,
    ) -> Result<Self, ModelError> {
        if graph.node_count() == 0 {
            return Err(ModelError::EmptyGraph);
        }
        if commodities.is_empty() {
            return Err(ModelError::NoCommodities);
        }
        if node_capacity.len() != graph.node_count() {
            return Err(ModelError::ShapeMismatch {
                what: "node capacities",
                expected: graph.node_count(),
                actual: node_capacity.len(),
            });
        }
        if edge_bandwidth.len() != graph.edge_count() {
            return Err(ModelError::ShapeMismatch {
                what: "edge bandwidths",
                expected: graph.edge_count(),
                actual: edge_bandwidth.len(),
            });
        }
        if overlay.len() != commodities.len() {
            return Err(ModelError::ShapeMismatch {
                what: "commodity overlays",
                expected: commodities.len(),
                actual: overlay.len(),
            });
        }
        for v in graph.nodes() {
            let c = node_capacity[v.index()];
            if c.is_infinite() || c.value() <= 0.0 {
                return Err(ModelError::BadNodeCapacity { node: v });
            }
        }
        for e in graph.edges() {
            let b = edge_bandwidth[e.index()];
            if b.is_infinite() || b.value() <= 0.0 {
                return Err(ModelError::BadBandwidth { edge: e });
            }
        }

        let mut gains = Vec::with_capacity(commodities.len());
        for (ji, commodity) in commodities.iter().enumerate() {
            let j = CommodityId::from_index(ji);
            if overlay[ji].len() != graph.edge_count() {
                return Err(ModelError::ShapeMismatch {
                    what: "commodity overlay edges",
                    expected: graph.edge_count(),
                    actual: overlay[ji].len(),
                });
            }
            if !(commodity.max_rate.is_finite() && commodity.max_rate > 0.0) {
                return Err(ModelError::BadMaxRate { commodity: j });
            }
            commodity
                .utility
                .validate()
                .map_err(|reason| ModelError::BadUtility {
                    commodity: j,
                    reason,
                })?;
            if commodity.source() == commodity.sink() {
                return Err(ModelError::DegenerateCommodity { commodity: j });
            }

            let mut in_overlay = vec![false; graph.edge_count()];
            let mut beta = vec![1.0; graph.edge_count()];
            for e in graph.edges() {
                if let Some(p) = overlay[ji][e.index()] {
                    if !p.is_valid() {
                        return Err(ModelError::BadEdgeParams {
                            commodity: j,
                            edge: e,
                        });
                    }
                    in_overlay[e.index()] = true;
                    beta[e.index()] = p.beta;
                    if graph.source(e) == commodity.sink() {
                        return Err(ModelError::SinkProcesses { commodity: j });
                    }
                }
            }

            // DAG + Property 1 in one pass.
            let g = reached_gains(&graph, j, commodity.source(), &in_overlay, &beta)?;

            // Reachability and dead-edge checks.
            let useful = on_path_edges(&graph, commodity.source(), commodity.sink(), |e| {
                in_overlay[e.index()]
            });
            if !useful.iter().any(|&u| u) {
                return Err(ModelError::SinkUnreachable { commodity: j });
            }
            if let Some(e) = graph
                .edges()
                .find(|&e| in_overlay[e.index()] && !useful[e.index()])
            {
                return Err(ModelError::DisconnectedOverlayEdge {
                    commodity: j,
                    edge: e,
                });
            }
            gains.push(g);
        }

        Ok(Problem {
            graph,
            node_capacity,
            edge_bandwidth,
            commodities,
            overlay,
            gains,
        })
    }

    /// The physical network.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Computing capacity `C_u` of a node.
    #[must_use]
    pub fn node_capacity(&self, node: NodeId) -> Capacity {
        self.node_capacity[node.index()]
    }

    /// Bandwidth `B_ik` of a link.
    #[must_use]
    pub fn edge_bandwidth(&self, edge: EdgeId) -> Capacity {
        self.edge_bandwidth[edge.index()]
    }

    /// Number of commodities `J`.
    #[must_use]
    pub fn num_commodities(&self) -> usize {
        self.commodities.len()
    }

    /// Iterates over commodity ids.
    pub fn commodity_ids(&self) -> impl ExactSizeIterator<Item = CommodityId> {
        (0..self.commodities.len()).map(CommodityId::from_index)
    }

    /// A commodity's descriptor.
    #[must_use]
    pub fn commodity(&self, j: CommodityId) -> &Commodity {
        &self.commodities[j.index()]
    }

    /// All commodities in id order.
    #[must_use]
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Commodity `j`'s parameters on `edge`, if the edge is in its
    /// overlay.
    #[must_use]
    pub fn params(&self, j: CommodityId, edge: EdgeId) -> Option<EdgeParams> {
        self.overlay[j.index()][edge.index()]
    }

    /// Returns `true` if `edge` belongs to commodity `j`'s overlay.
    #[must_use]
    pub fn in_overlay(&self, j: CommodityId, edge: EdgeId) -> bool {
        self.overlay[j.index()][edge.index()].is_some()
    }

    /// Iterates over the edges of commodity `j`'s overlay.
    pub fn overlay_edges(&self, j: CommodityId) -> impl Iterator<Item = EdgeId> + '_ {
        let row = &self.overlay[j.index()];
        self.graph.edges().filter(move |e| row[e.index()].is_some())
    }

    /// The gain `g_j(n)`: output units observed at `n` per unit admitted
    /// at `s_j` (1.0 for nodes the commodity cannot reach).
    #[must_use]
    pub fn gain(&self, j: CommodityId, node: NodeId) -> f64 {
        let reached = &self.gains[j.index()];
        reached
            .binary_search_by_key(&node, |&(v, _)| v)
            .map_or(1.0, |at| reached[at].1)
    }

    /// Sum of the maximum input rates `Σ_j λ_j` — an upper bound on any
    /// admission vector.
    #[must_use]
    pub fn total_demand(&self) -> f64 {
        self.commodities.iter().map(|c| c.max_rate).sum()
    }

    /// Utility `Σ_j U_j(a_j)` of an admission vector.
    ///
    /// # Panics
    ///
    /// Panics if `admitted.len() != self.num_commodities()`.
    #[must_use]
    pub fn utility(&self, admitted: &[f64]) -> f64 {
        assert_eq!(admitted.len(), self.num_commodities());
        self.commodities
            .iter()
            .zip(admitted)
            .map(|(c, &a)| c.utility.value(a))
            .sum()
    }

    /// Returns a copy with every node capacity and edge bandwidth
    /// multiplied by `factor` (> 0). Useful for load-scaling experiments.
    #[must_use]
    pub fn scale_capacities(&self, factor: f64) -> Problem {
        assert!(factor.is_finite() && factor > 0.0);
        let mut p = self.clone();
        for c in &mut p.node_capacity {
            *c = Capacity::finite(c.value() * factor).expect("scaled capacity valid");
        }
        for b in &mut p.edge_bandwidth {
            *b = Capacity::finite(b.value() * factor).expect("scaled bandwidth valid");
        }
        p
    }

    /// Returns a copy with every maximum input rate multiplied by
    /// `factor` (> 0). Useful for overload/admission experiments.
    #[must_use]
    pub fn scale_demand(&self, factor: f64) -> Problem {
        assert!(factor.is_finite() && factor > 0.0);
        let mut p = self.clone();
        for c in &mut p.commodities {
            c.max_rate *= factor;
        }
        p
    }

    /// Returns a copy with commodity `j`'s utility replaced.
    #[must_use]
    pub fn with_utility(&self, j: CommodityId, utility: crate::UtilityFn) -> Problem {
        let mut p = self.clone();
        p.commodities[j.index()].utility = utility;
        p
    }

    /// Returns a copy with one node's computing capacity replaced
    /// (used by failure experiments to model a degraded or dead
    /// server).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is infinite (physical nodes are finite).
    #[must_use]
    pub fn with_node_capacity(&self, node: NodeId, capacity: Capacity) -> Problem {
        assert!(!capacity.is_infinite(), "physical capacities are finite");
        let mut p = self.clone();
        p.node_capacity[node.index()] = capacity;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityFn;

    /// Two-node, one-edge, one-commodity instance.
    pub(crate) fn tiny() -> Problem {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        Problem::from_parts(
            g,
            vec![
                Capacity::finite(10.0).unwrap(),
                Capacity::finite(10.0).unwrap(),
            ],
            vec![Capacity::finite(5.0).unwrap()],
            vec![Commodity::new(s, t, 4.0, UtilityFn::throughput())],
            vec![vec![Some(EdgeParams::new(2.0, 0.5))]],
        )
        .unwrap()
    }

    #[test]
    fn tiny_instance_validates() {
        let p = tiny();
        assert_eq!(p.num_commodities(), 1);
        assert_eq!(p.total_demand(), 4.0);
        let j = CommodityId::from_index(0);
        assert_eq!(p.params(j, EdgeId::from_index(0)).unwrap().beta, 0.5);
        assert_eq!(p.gain(j, NodeId::from_index(0)), 1.0);
        assert_eq!(p.gain(j, NodeId::from_index(1)), 0.5);
        assert_eq!(p.overlay_edges(j).count(), 1);
        assert!(p.in_overlay(j, EdgeId::from_index(0)));
    }

    /// The gain cache lists the nodes a commodity reaches and nothing
    /// else; `gain` answers `1.0` (the paper's convention) off that set.
    #[test]
    fn gains_are_cached_for_reached_nodes_only() {
        let mut g = DiGraph::new();
        let n: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        let e = g.add_edge(n[1], n[3]);
        g.add_edge(n[0], n[4]); // outside the overlay
        let cap = |c| Capacity::finite(c).unwrap();
        let p = Problem::from_parts(
            g,
            vec![cap(10.0); 5],
            vec![cap(5.0); 2],
            vec![Commodity::new(n[1], n[3], 4.0, UtilityFn::throughput())],
            vec![vec![Some(EdgeParams::new(2.0, 0.25)), None]],
        )
        .unwrap();
        let j = CommodityId::from_index(0);
        assert!(p.in_overlay(j, e));
        assert_eq!(p.gains[0], vec![(n[1], 1.0), (n[3], 0.25)]);
        let gains: Vec<f64> = n.iter().map(|&v| p.gain(j, v)).collect();
        assert_eq!(gains, vec![1.0, 1.0, 1.0, 0.25, 1.0]);
    }

    #[test]
    fn utility_of_admission_vector() {
        let p = tiny();
        assert_eq!(p.utility(&[3.0]), 3.0);
    }

    #[test]
    fn rejects_empty_graph() {
        let err = Problem::from_parts(DiGraph::new(), vec![], vec![], vec![], vec![]).unwrap_err();
        assert_eq!(err, ModelError::EmptyGraph);
    }

    #[test]
    fn rejects_no_commodities() {
        let mut g = DiGraph::new();
        g.add_node();
        let err = Problem::from_parts(
            g,
            vec![Capacity::finite(1.0).unwrap()],
            vec![],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::NoCommodities);
    }

    #[test]
    fn rejects_shape_mismatches() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let commodity = Commodity::new(s, t, 1.0, UtilityFn::throughput());
        let err = Problem::from_parts(
            g.clone(),
            vec![Capacity::finite(1.0).unwrap()], // missing one
            vec![Capacity::finite(1.0).unwrap()],
            vec![commodity.clone()],
            vec![vec![Some(EdgeParams::new(1.0, 1.0))]],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ModelError::ShapeMismatch {
                what: "node capacities",
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_rate_and_degenerate_commodity() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let caps = vec![Capacity::finite(1.0).unwrap(); 2];
        let bw = vec![Capacity::finite(1.0).unwrap()];
        let ov = vec![vec![Some(EdgeParams::new(1.0, 1.0))]];
        let err = Problem::from_parts(
            g.clone(),
            caps.clone(),
            bw.clone(),
            vec![Commodity::new(s, t, -1.0, UtilityFn::throughput())],
            ov.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::BadMaxRate { .. }));
        let err = Problem::from_parts(
            g,
            caps,
            bw,
            vec![Commodity::new(s, s, 1.0, UtilityFn::throughput())],
            ov,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DegenerateCommodity { .. }));
    }

    #[test]
    fn rejects_unreachable_sink() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        let u = g.add_node();
        g.add_edge(s, u); // sink t unreachable
        let err = Problem::from_parts(
            g,
            vec![Capacity::finite(1.0).unwrap(); 3],
            vec![Capacity::finite(1.0).unwrap()],
            vec![Commodity::new(s, t, 1.0, UtilityFn::throughput())],
            vec![vec![Some(EdgeParams::new(1.0, 1.0))]],
        )
        .unwrap_err();
        // the s→u edge is also off-path; either error is structurally
        // correct, but unreachable-sink must win when nothing is useful
        assert!(matches!(err, ModelError::SinkUnreachable { .. }));
    }

    #[test]
    fn rejects_dead_end_overlay_edge() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        let u = g.add_node();
        g.add_edge(s, t);
        g.add_edge(s, u); // dead end
        let err = Problem::from_parts(
            g,
            vec![Capacity::finite(1.0).unwrap(); 3],
            vec![Capacity::finite(1.0).unwrap(); 2],
            vec![Commodity::new(s, t, 1.0, UtilityFn::throughput())],
            vec![vec![
                Some(EdgeParams::new(1.0, 1.0)),
                Some(EdgeParams::new(1.0, 1.0)),
            ]],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DisconnectedOverlayEdge { .. }));
    }

    #[test]
    fn rejects_sink_with_outgoing_overlay_edge() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        g.add_edge(t, s);
        let err = Problem::from_parts(
            g,
            vec![Capacity::finite(1.0).unwrap(); 2],
            vec![Capacity::finite(1.0).unwrap(); 2],
            vec![Commodity::new(s, t, 1.0, UtilityFn::throughput())],
            vec![vec![
                Some(EdgeParams::new(1.0, 1.0)),
                Some(EdgeParams::new(1.0, 1.0)),
            ]],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::SinkProcesses { .. }));
    }

    #[test]
    fn rejects_bad_edge_params() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        for bad in [
            EdgeParams::new(0.0, 1.0),
            EdgeParams::new(1.0, 0.0),
            EdgeParams::new(f64::NAN, 1.0),
            EdgeParams::new(1.0, -2.0),
        ] {
            let err = Problem::from_parts(
                g.clone(),
                vec![Capacity::finite(1.0).unwrap(); 2],
                vec![Capacity::finite(1.0).unwrap()],
                vec![Commodity::new(s, t, 1.0, UtilityFn::throughput())],
                vec![vec![Some(bad)]],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::BadEdgeParams { .. }));
        }
    }

    #[test]
    fn scaling_helpers() {
        let p = tiny();
        let p2 = p.scale_capacities(2.0);
        assert_eq!(p2.node_capacity(NodeId::from_index(0)).value(), 20.0);
        assert_eq!(p2.edge_bandwidth(EdgeId::from_index(0)).value(), 10.0);
        let p3 = p.scale_demand(3.0);
        assert_eq!(p3.total_demand(), 12.0);
        let p4 = p.with_utility(CommodityId::from_index(0), UtilityFn::log(2.0));
        assert_eq!(
            p4.commodity(CommodityId::from_index(0)).utility,
            UtilityFn::log(2.0)
        );
    }
}
