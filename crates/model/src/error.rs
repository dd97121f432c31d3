//! Validation errors for model construction.

use crate::commodity::CommodityId;
use spn_graph::{EdgeId, NodeId};
use std::fmt;

/// Why a [`Problem`](crate::problem::Problem) failed validation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The physical graph has no nodes.
    EmptyGraph,
    /// There are no commodities to route.
    NoCommodities,
    /// A node capacity is missing, non-positive, NaN, or (for physical
    /// nodes) infinite.
    BadNodeCapacity {
        /// The offending node.
        node: NodeId,
    },
    /// An edge bandwidth is non-positive, NaN, or infinite.
    BadBandwidth {
        /// The offending edge.
        edge: EdgeId,
    },
    /// An edge's source and target coincide (a manifest is input data;
    /// the graph refuses self-loops).
    SelfLoop {
        /// The offending edge.
        edge: EdgeId,
    },
    /// Attribute arrays do not match the graph's node/edge counts.
    ShapeMismatch {
        /// Human-readable description of the mismatched array.
        what: &'static str,
        /// Expected length (node or edge count).
        expected: usize,
        /// Actual length provided.
        actual: usize,
    },
    /// A commodity's maximum input rate `λ_j` is not finite and positive.
    BadMaxRate {
        /// The offending commodity.
        commodity: CommodityId,
    },
    /// A commodity's utility function has invalid parameters.
    BadUtility {
        /// The offending commodity.
        commodity: CommodityId,
        /// Explanation from [`crate::UtilityFn::validate`].
        reason: String,
    },
    /// A commodity's source and sink coincide.
    DegenerateCommodity {
        /// The offending commodity.
        commodity: CommodityId,
    },
    /// A per-(commodity, edge) cost or shrinkage factor is not finite
    /// and positive.
    BadEdgeParams {
        /// The commodity whose overlay is invalid.
        commodity: CommodityId,
        /// The offending edge.
        edge: EdgeId,
    },
    /// A commodity subgraph contains a directed cycle — the paper
    /// requires each stream's task graph to be a DAG.
    CommodityCycle {
        /// The offending commodity.
        commodity: CommodityId,
        /// A node on the cycle.
        node: NodeId,
    },
    /// The sink is unreachable from the source within the commodity's
    /// subgraph.
    SinkUnreachable {
        /// The offending commodity.
        commodity: CommodityId,
    },
    /// The commodity's sink has outgoing edges in its own overlay; sinks
    /// only receive data.
    SinkProcesses {
        /// The offending commodity.
        commodity: CommodityId,
    },
    /// The shrinkage factors violate Property 1: two paths between the
    /// same endpoints have different `β` products, i.e. no consistent
    /// per-node gain assignment exists.
    InconsistentShrinkage {
        /// The offending commodity.
        commodity: CommodityId,
        /// Edge at which the inconsistency was detected.
        edge: EdgeId,
        /// Gain implied for the edge's target by earlier edges.
        expected_gain: f64,
        /// Gain implied via this edge.
        actual_gain: f64,
    },
    /// A commodity overlay contains an edge with parameters but whose
    /// endpoints cannot both lie on a source→sink path.
    DisconnectedOverlayEdge {
        /// The offending commodity.
        commodity: CommodityId,
        /// The off-path edge.
        edge: EdgeId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyGraph => write!(f, "physical graph has no nodes"),
            ModelError::NoCommodities => write!(f, "problem has no commodities"),
            ModelError::BadNodeCapacity { node } => {
                write!(f, "node {node} has an invalid capacity")
            }
            ModelError::BadBandwidth { edge } => {
                write!(f, "edge {edge} has an invalid bandwidth")
            }
            ModelError::SelfLoop { edge } => {
                write!(f, "edge {edge} is a self-loop (source and target coincide)")
            }
            ModelError::ShapeMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what}: expected length {expected}, got {actual}")
            }
            ModelError::BadMaxRate { commodity } => {
                write!(f, "commodity {commodity} has an invalid maximum rate")
            }
            ModelError::BadUtility { commodity, reason } => {
                write!(f, "commodity {commodity} has an invalid utility: {reason}")
            }
            ModelError::DegenerateCommodity { commodity } => {
                write!(f, "commodity {commodity} has identical source and sink")
            }
            ModelError::BadEdgeParams { commodity, edge } => {
                write!(
                    f,
                    "commodity {commodity} has invalid parameters on edge {edge}"
                )
            }
            ModelError::CommodityCycle { commodity, node } => {
                write!(
                    f,
                    "commodity {commodity} subgraph has a cycle through {node}"
                )
            }
            ModelError::SinkUnreachable { commodity } => {
                write!(
                    f,
                    "commodity {commodity} cannot reach its sink from its source"
                )
            }
            ModelError::SinkProcesses { commodity } => {
                write!(f, "commodity {commodity} sink has outgoing overlay edges")
            }
            ModelError::InconsistentShrinkage {
                commodity,
                edge,
                expected_gain,
                actual_gain,
            } => {
                write!(
                    f,
                    "commodity {commodity} violates Property 1 at edge {edge}: \
                     gain {actual_gain} vs {expected_gain} via another path"
                )
            }
            ModelError::DisconnectedOverlayEdge { commodity, edge } => {
                write!(
                    f,
                    "commodity {commodity} overlay edge {edge} is not on any source→sink path"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_distinct() {
        let errs = vec![
            ModelError::EmptyGraph,
            ModelError::NoCommodities,
            ModelError::BadNodeCapacity {
                node: NodeId::from_index(1),
            },
            ModelError::BadBandwidth {
                edge: EdgeId::from_index(2),
            },
            ModelError::SelfLoop {
                edge: EdgeId::from_index(2),
            },
            ModelError::ShapeMismatch {
                what: "capacities",
                expected: 3,
                actual: 4,
            },
            ModelError::BadMaxRate {
                commodity: CommodityId::from_index(0),
            },
            ModelError::DegenerateCommodity {
                commodity: CommodityId::from_index(0),
            },
            ModelError::SinkUnreachable {
                commodity: CommodityId::from_index(1),
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in errs {
            let s = format!("{e}");
            assert!(!s.is_empty());
            assert!(seen.insert(s));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(ModelError::EmptyGraph);
    }
}
