//! Serde-friendly exchange format for problems.
//!
//! [`ProblemSpec`] is a plain-data mirror of [`Problem`] that derives
//! `Serialize`/`Deserialize`, so experiment manifests can be stored as
//! JSON and re-validated on load. The graph crate stays serde-free; the
//! spec stores edges as index pairs.

use crate::capacity::Capacity;
use crate::commodity::Commodity;
use crate::error::ModelError;
use crate::problem::{EdgeParams, Problem};
use crate::utility::UtilityFn;
use serde::{Deserialize, Serialize};
use spn_graph::{DiGraph, EdgeId, NodeId};

/// One physical link in a [`ProblemSpec`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Source node index.
    pub src: u32,
    /// Target node index.
    pub dst: u32,
    /// Link bandwidth `B`.
    pub bandwidth: f64,
}

/// One overlay entry of a commodity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlayEdgeSpec {
    /// Edge index into [`ProblemSpec::edges`].
    pub edge: u32,
    /// Resource cost `c^j` on the edge.
    pub cost: f64,
    /// Shrinkage factor `β^j` on the edge.
    pub beta: f64,
}

/// One commodity, with its overlay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommoditySpec {
    /// Source node index.
    pub source: u32,
    /// Sink node index.
    pub sink: u32,
    /// Maximum input rate `λ`.
    pub max_rate: f64,
    /// Utility function.
    pub utility: UtilityFn,
    /// The commodity's usable edges with parameters.
    pub overlay: Vec<OverlayEdgeSpec>,
}

/// Plain-data mirror of a [`Problem`], suitable for JSON manifests.
///
/// ```
/// use spn_model::spec::ProblemSpec;
/// use spn_model::random::RandomInstance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = RandomInstance::builder().nodes(12).commodities(2).seed(1).build()?;
/// let spec = ProblemSpec::from(&inst.problem);
/// let json = spec.to_json()?;
/// let back = ProblemSpec::from_json(&json)?;
/// let problem2 = back.into_problem()?;
/// assert_eq!(problem2.num_commodities(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Node computing capacities, indexed by node.
    pub node_capacities: Vec<f64>,
    /// Physical links.
    pub edges: Vec<EdgeSpec>,
    /// Commodities with their overlays.
    pub commodities: Vec<CommoditySpec>,
}

impl ProblemSpec {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors (shouldn't occur for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` parse error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Validates the spec into a [`Problem`].
    ///
    /// # Errors
    ///
    /// See [`Problem::from_parts`]; additionally, out-of-range node or
    /// edge indices are reported as [`ModelError::ShapeMismatch`], and
    /// an edge whose endpoints coincide as [`ModelError::SelfLoop`].
    pub fn into_problem(self) -> Result<Problem, ModelError> {
        let n = self.node_capacities.len();
        let m = self.edges.len();
        let mut graph = DiGraph::with_capacity(n, m);
        graph.add_nodes(n);
        for (i, e) in self.edges.iter().enumerate() {
            if e.src as usize >= n || e.dst as usize >= n {
                return Err(ModelError::ShapeMismatch {
                    what: "edge endpoint index",
                    expected: n,
                    actual: (e.src.max(e.dst)) as usize,
                });
            }
            if e.src == e.dst {
                return Err(ModelError::SelfLoop {
                    edge: EdgeId::from_index(i),
                });
            }
            graph.add_edge(
                NodeId::from_index(e.src as usize),
                NodeId::from_index(e.dst as usize),
            );
        }
        let node_capacity: Vec<Capacity> = self
            .node_capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                Capacity::finite(c).ok_or(ModelError::BadNodeCapacity {
                    node: NodeId::from_index(i),
                })
            })
            .collect::<Result<_, _>>()?;
        let edge_bandwidth: Vec<Capacity> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                Capacity::finite(e.bandwidth).ok_or(ModelError::BadBandwidth {
                    edge: EdgeId::from_index(i),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut commodities = Vec::with_capacity(self.commodities.len());
        let mut overlay = Vec::with_capacity(self.commodities.len());
        for c in self.commodities {
            if c.source as usize >= n || c.sink as usize >= n {
                return Err(ModelError::ShapeMismatch {
                    what: "commodity endpoint index",
                    expected: n,
                    actual: c.source.max(c.sink) as usize,
                });
            }
            let mut row = vec![None; m];
            for oe in c.overlay {
                if oe.edge as usize >= m {
                    return Err(ModelError::ShapeMismatch {
                        what: "overlay edge index",
                        expected: m,
                        actual: oe.edge as usize,
                    });
                }
                row[oe.edge as usize] = Some(EdgeParams::new(oe.cost, oe.beta));
            }
            commodities.push(Commodity::new(
                NodeId::from_index(c.source as usize),
                NodeId::from_index(c.sink as usize),
                c.max_rate,
                c.utility,
            ));
            overlay.push(row);
        }
        Problem::from_parts(graph, node_capacity, edge_bandwidth, commodities, overlay)
    }
}

impl From<&Problem> for ProblemSpec {
    fn from(p: &Problem) -> Self {
        let g = p.graph();
        ProblemSpec {
            node_capacities: g.nodes().map(|v| p.node_capacity(v).value()).collect(),
            edges: g
                .edges()
                .map(|e| {
                    let (s, t) = g.endpoints(e);
                    EdgeSpec {
                        src: s.index() as u32,
                        dst: t.index() as u32,
                        bandwidth: p.edge_bandwidth(e).value(),
                    }
                })
                .collect(),
            commodities: p
                .commodity_ids()
                .map(|j| {
                    let c = p.commodity(j);
                    CommoditySpec {
                        source: c.source().index() as u32,
                        sink: c.sink().index() as u32,
                        max_rate: c.max_rate,
                        utility: c.utility,
                        overlay: p
                            .overlay_edges(j)
                            .map(|e| {
                                let pp = p.params(j, e).expect("overlay edge has params");
                                OverlayEdgeSpec {
                                    edge: e.index() as u32,
                                    cost: pp.cost,
                                    beta: pp.beta,
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomInstance;

    #[test]
    fn round_trip_preserves_everything() {
        let inst = RandomInstance::builder()
            .nodes(16)
            .commodities(2)
            .seed(11)
            .build()
            .unwrap();
        let spec = ProblemSpec::from(&inst.problem);
        let json = spec.to_json().unwrap();
        let back = ProblemSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
        let p2 = back.into_problem().unwrap();
        assert_eq!(p2.graph().node_count(), inst.problem.graph().node_count());
        assert_eq!(p2.graph().edge_count(), inst.problem.graph().edge_count());
        for j in inst.problem.commodity_ids() {
            for e in inst.problem.graph().edges() {
                assert_eq!(inst.problem.params(j, e), p2.params(j, e));
            }
        }
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let spec = ProblemSpec {
            node_capacities: vec![1.0, 1.0],
            edges: vec![EdgeSpec {
                src: 0,
                dst: 5,
                bandwidth: 1.0,
            }],
            commodities: vec![],
        };
        assert!(matches!(
            spec.into_problem(),
            Err(ModelError::ShapeMismatch {
                what: "edge endpoint index",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_overlay_index() {
        let spec = ProblemSpec {
            node_capacities: vec![1.0, 1.0],
            edges: vec![EdgeSpec {
                src: 0,
                dst: 1,
                bandwidth: 1.0,
            }],
            commodities: vec![CommoditySpec {
                source: 0,
                sink: 1,
                max_rate: 1.0,
                utility: UtilityFn::throughput(),
                overlay: vec![OverlayEdgeSpec {
                    edge: 9,
                    cost: 1.0,
                    beta: 1.0,
                }],
            }],
        };
        assert!(matches!(
            spec.into_problem(),
            Err(ModelError::ShapeMismatch {
                what: "overlay edge index",
                ..
            })
        ));
    }

    #[test]
    fn json_is_human_readable() {
        let inst = RandomInstance::builder()
            .nodes(12)
            .commodities(1)
            .seed(2)
            .build()
            .unwrap();
        let json = ProblemSpec::from(&inst.problem).to_json().unwrap();
        assert!(json.contains("node_capacities"));
        assert!(json.contains("max_rate"));
    }
}
