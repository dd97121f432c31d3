//! Numerical health: structured errors instead of panics.
//!
//! §3 of the paper motivates penalty headroom with recovery from "node
//! or link failures" and "changing demands" — but a runtime that
//! silently propagates a NaN, or panics deep in library code, cannot
//! *use* that headroom. This module provides the reporting half of the
//! fault-handling stack:
//!
//! * [`CoreError`] — a structured error type for everything the
//!   iteration core can detect going wrong (non-finite state, invalid
//!   fault targets, checkpoint shape mismatches). Library code reports
//!   through it instead of panicking.
//! * [`check_finite`] — the NaN/Inf scan over the iteration state. A
//!   caller runs it before stepping (Γ-row normalization would panic on
//!   NaN mass) and after, and answers a failure by rolling back.
//!
//! The recovery half — the checkpoint/rollback machinery a caller uses
//! to get *past* a fault the scan flagged — lives in
//! [`crate::checkpoint`]; the adversarial test bed that exercises both
//! under injected faults lives in `spn-sim`'s `chaos` module.

use crate::flows::FlowState;
use crate::marginals::Marginals;
use crate::routing::RoutingTable;
use std::fmt;

/// Which state buffer a non-finite value was found in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateDomain {
    /// Node traffic rates `t_i(j)` (eq. (3)).
    Traffic,
    /// Per-edge commodity flows `x_l(j)`.
    EdgeFlows,
    /// Cross-commodity usage totals `f_edge`/`f_node` (eqs. (4)–(5)).
    UsageTotals,
    /// Marginal costs `∂A/∂r_i(j)` (eq. (9)).
    Marginals,
    /// Routing fractions `φ_ik(j)`.
    Routing,
    /// The scalar utility `Σ_j U_j(a_j)`.
    Utility,
}

impl fmt::Display for StateDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StateDomain::Traffic => "traffic rates",
            StateDomain::EdgeFlows => "edge flows",
            StateDomain::UsageTotals => "usage totals",
            StateDomain::Marginals => "marginals",
            StateDomain::Routing => "routing fractions",
            StateDomain::Utility => "utility",
        };
        f.write_str(name)
    }
}

/// Structured runtime errors of the iteration core and its recovery
/// machinery. Library code reports these instead of panicking so a
/// supervising loop can react (roll back, fail over) rather than die.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A NaN or ±Inf entered the named state buffer.
    NonFinite {
        /// The buffer family the value was found in.
        domain: StateDomain,
        /// Flat index of the first offending entry (buffer-specific).
        index: usize,
        /// Iteration at which the check ran.
        iteration: usize,
    },
    /// A fault-injection target was not a physical processing node.
    NotProcessingNode {
        /// The rejected node.
        node: spn_graph::NodeId,
    },
    /// A fault-injection target edge has no bandwidth node (it is not a
    /// physical edge of the network).
    NoBandwidthNode {
        /// The rejected edge.
        edge: spn_graph::EdgeId,
    },
    /// A capacity value was not positive and finite.
    InvalidCapacity {
        /// The rejected value.
        value: f64,
    },
    /// A checkpoint's buffers do not match the algorithm's shape.
    ShapeMismatch {
        /// Which buffer mismatched.
        what: &'static str,
        /// Length the algorithm expected.
        expected: usize,
        /// Length the checkpoint holds.
        got: usize,
    },
    /// [`restore`](crate::GradientAlgorithm::restore) was called with a
    /// checkpoint that never captured state.
    EmptyCheckpoint,
    /// A checkpoint was captured under a different commodity set: an
    /// online admission or eviction reshaped the state since (or
    /// before) the capture, so the snapshot cannot be replayed.
    EpochMismatch {
        /// The algorithm's current commodity-set epoch.
        expected: u64,
        /// The epoch the checkpoint was captured under.
        got: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NonFinite {
                domain,
                index,
                iteration,
            } => write!(
                f,
                "non-finite value in {domain} at flat index {index} (iteration {iteration})"
            ),
            CoreError::NotProcessingNode { node } => {
                write!(f, "{node} is not a physical processing node")
            }
            CoreError::NoBandwidthNode { edge } => {
                write!(f, "{edge} has no bandwidth node (not a physical edge)")
            }
            CoreError::InvalidCapacity { value } => {
                write!(f, "capacity must be positive and finite, got {value}")
            }
            CoreError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "checkpoint shape mismatch in {what}: expected {expected} entries, got {got}"
            ),
            CoreError::EmptyCheckpoint => f.write_str("checkpoint holds no captured state"),
            CoreError::EpochMismatch { expected, got } => write!(
                f,
                "checkpoint epoch mismatch: algorithm at commodity-set epoch {expected}, capture at {got}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// Scans the iteration state for NaN/Inf in a fixed order (traffic,
/// edge flows, usage totals, marginals, routing), so the reported
/// entry is deterministic. Stateless and allocation-free.
///
/// # Errors
///
/// [`CoreError::NonFinite`] naming the first offending buffer and flat
/// index (`f_node` entries are numbered after the `f_edge` ones), with
/// `iteration` recorded as given.
pub fn check_finite(
    iteration: usize,
    flows: &FlowState,
    marginals: &Marginals,
    routing: &RoutingTable,
) -> Result<(), CoreError> {
    let buffers: [(StateDomain, &[f64], usize); 6] = [
        (StateDomain::Traffic, &flows.t, 0),
        (StateDomain::EdgeFlows, &flows.x, 0),
        (StateDomain::UsageTotals, &flows.f_edge, 0),
        (StateDomain::UsageTotals, &flows.f_node, flows.f_edge.len()),
        (StateDomain::Marginals, &marginals.d, 0),
        (StateDomain::Routing, routing.flat(), 0),
    ];
    for (domain, buf, offset) in buffers {
        if let Some(i) = buf.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFinite {
                domain,
                index: offset + i,
                iteration,
            });
        }
    }
    Ok(())
}

// --- serde (incident logs) -------------------------------------------
//
// Errors serialize so fault-injection runtimes (`spn-sim`'s chaos log,
// `spn-mesh`'s incident log) can be rendered to JSON and diffed across
// CI runs. The impls are manual: the graph crate is deliberately
// serde-free, so node/edge ids appear as their indices, and every
// variant renders as a map with a `"kind"` discriminant first —
// insertion order is preserved by the `Value` tree, so the rendering is
// deterministic.

fn tagged(kind: &str, fields: Vec<(String, serde::Value)>) -> serde::Value {
    let mut entries = vec![("kind".to_owned(), serde::Value::Str(kind.to_owned()))];
    entries.extend(fields);
    serde::Value::Map(entries)
}

fn field(name: &str, value: impl serde::Serialize) -> (String, serde::Value) {
    (name.to_owned(), value.to_value())
}

impl serde::Serialize for StateDomain {
    fn to_value(&self) -> serde::Value {
        let name = match self {
            StateDomain::Traffic => "Traffic",
            StateDomain::EdgeFlows => "EdgeFlows",
            StateDomain::UsageTotals => "UsageTotals",
            StateDomain::Marginals => "Marginals",
            StateDomain::Routing => "Routing",
            StateDomain::Utility => "Utility",
        };
        serde::Value::Str(name.to_owned())
    }
}

impl serde::Serialize for CoreError {
    fn to_value(&self) -> serde::Value {
        match self {
            CoreError::NonFinite {
                domain,
                index,
                iteration,
            } => tagged(
                "NonFinite",
                vec![
                    field("domain", domain),
                    field("index", index),
                    field("iteration", iteration),
                ],
            ),
            CoreError::NotProcessingNode { node } => {
                tagged("NotProcessingNode", vec![field("node", node.index())])
            }
            CoreError::NoBandwidthNode { edge } => {
                tagged("NoBandwidthNode", vec![field("edge", edge.index())])
            }
            CoreError::InvalidCapacity { value } => {
                tagged("InvalidCapacity", vec![field("value", value)])
            }
            CoreError::ShapeMismatch {
                what,
                expected,
                got,
            } => tagged(
                "ShapeMismatch",
                vec![
                    ("what".to_owned(), serde::Value::Str((*what).to_owned())),
                    field("expected", expected),
                    field("got", got),
                ],
            ),
            CoreError::EmptyCheckpoint => tagged("EmptyCheckpoint", Vec::new()),
            CoreError::EpochMismatch { expected, got } => tagged(
                "EpochMismatch",
                vec![field("expected", expected), field("got", got)],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GradientAlgorithm, GradientConfig};
    use spn_model::builder::ProblemBuilder;
    use spn_model::{CommodityId, UtilityFn};

    fn bottleneck() -> spn_model::Problem {
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(10.0);
        let t = b.server(100.0);
        let e1 = b.link(s, x, 100.0);
        let e2 = b.link(x, t, 100.0);
        let j = b.commodity(s, t, 20.0, UtilityFn::throughput());
        b.uses(j, e1, 1.0, 1.0).uses(j, e2, 2.0, 1.0);
        b.build().unwrap()
    }

    fn check(alg: &GradientAlgorithm) -> Result<(), CoreError> {
        check_finite(
            alg.iterations(),
            alg.flows(),
            alg.marginals(),
            alg.routing(),
        )
    }

    #[test]
    fn healthy_run_scans_clean() {
        let p = bottleneck();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        for _ in 0..200 {
            alg.step();
            check(&alg).unwrap();
        }
        assert!(alg.report().utility > 0.0);
    }

    #[test]
    fn nan_traffic_is_reported_not_panicked() {
        let p = bottleneck();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(50);
        let ext = alg.extended().clone();
        *alg.flows_mut().traffic_mut(
            &ext,
            CommodityId::from_index(0),
            spn_graph::NodeId::from_index(1),
        ) = f64::NAN;
        let err = check(&alg).expect_err("NaN state must be refused");
        assert!(matches!(
            err,
            CoreError::NonFinite {
                domain: StateDomain::Traffic,
                iteration: 50,
                ..
            }
        ));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn inf_marginal_is_flagged_with_its_iteration() {
        let p = bottleneck();
        let alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let mut bad = alg.marginals().clone();
        bad.set_node(
            alg.extended(),
            CommodityId::from_index(0),
            spn_graph::NodeId::from_index(0),
            f64::INFINITY,
        );
        let err = check_finite(7, alg.flows(), &bad, alg.routing()).expect_err("Inf not flagged");
        assert!(matches!(
            err,
            CoreError::NonFinite {
                domain: StateDomain::Marginals,
                iteration: 7,
                ..
            }
        ));
    }
}
