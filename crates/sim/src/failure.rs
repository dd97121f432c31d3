//! Failure injection.
//!
//! §3 of the paper motivates penalty headroom with: "such remaining
//! capacity could be used to better accommodate changing demands, or for
//! faster recovery in the case of node or link failures." This module
//! implements the failure model used by experiment E8: a node or link's
//! capacity collapses to (nearly) zero, the barrier then repels all
//! flow from it, and the running algorithm reroutes with no structural
//! change — recovery time is how many iterations the utility needs to
//! climb back.
//!
//! Injection targets are validated structurally: failing something that
//! cannot fail (a dummy node, a non-physical edge) or restoring to a
//! nonsensical capacity is a [`CoreError`], not a panic — the chaos
//! runtime ([`crate::chaos`]) fires these from scheduled plans and must
//! be able to surface bad schedules as values.

use spn_core::health::CoreError;
use spn_graph::{EdgeId, NodeId};
use spn_model::Capacity;
use spn_transform::{ExtendedNetwork, NodeKind};

/// Capacity assigned to failed resources (must stay positive: the
/// barrier needs a finite budget to be defined).
pub const FAILED_CAPACITY: f64 = 1e-3;

/// Collapses a physical node's computing capacity. Drivers hand in the
/// network they run on ([`crate::GradientSim::extended_mut`], the
/// [`crate::chaos`] runtime's own).
///
/// # Errors
///
/// [`CoreError::NotProcessingNode`] if `node` is not a physical
/// processing node; the network is untouched.
pub fn fail_node(ext: &mut ExtendedNetwork, node: NodeId) -> Result<(), CoreError> {
    if !matches!(ext.node_kind(node), NodeKind::Processing(_)) {
        return Err(CoreError::NotProcessingNode { node });
    }
    ext.set_capacity(node, Capacity::finite(FAILED_CAPACITY).expect("positive"));
    Ok(())
}

/// Collapses a physical link's bandwidth (its bandwidth node's budget);
/// returns the bandwidth node that was collapsed.
///
/// # Errors
///
/// [`CoreError::NoBandwidthNode`] if `edge` is not a physical edge of
/// the network.
pub(crate) fn fail_link(ext: &mut ExtendedNetwork, edge: EdgeId) -> Result<NodeId, CoreError> {
    let bw = bandwidth_node(ext, edge)?;
    ext.set_capacity(bw, Capacity::finite(FAILED_CAPACITY).expect("positive"));
    Ok(bw)
}

/// Restores a previously failed node (processing or bandwidth) to the
/// given capacity.
///
/// # Errors
///
/// [`CoreError::InvalidCapacity`] if `capacity` is not strictly
/// positive and finite.
pub(crate) fn restore_node(
    ext: &mut ExtendedNetwork,
    node: NodeId,
    capacity: f64,
) -> Result<(), CoreError> {
    let cap = Capacity::finite(capacity).ok_or(CoreError::InvalidCapacity { value: capacity })?;
    ext.set_capacity(node, cap);
    Ok(())
}

/// The bandwidth node carrying a physical edge's budget in the extended
/// graph.
///
/// # Errors
///
/// [`CoreError::NoBandwidthNode`] if `edge` has no bandwidth node (it
/// is not a physical edge).
pub(crate) fn bandwidth_node(ext: &ExtendedNetwork, edge: EdgeId) -> Result<NodeId, CoreError> {
    ext.graph()
        .nodes()
        .find(|&v| matches!(ext.node_kind(v), NodeKind::Bandwidth(e) if e == edge))
        .ok_or(CoreError::NoBandwidthNode { edge })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient_sim::GradientSim;
    use spn_core::GradientConfig;
    use spn_model::builder::ProblemBuilder;
    use spn_model::{Problem, UtilityFn};

    /// Diamond with two disjoint relays so one can fail.
    fn diamond() -> Problem {
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(50.0);
        let y = b.server(50.0);
        let t = b.server(100.0);
        let e_sx = b.link(s, x, 50.0);
        let e_sy = b.link(s, y, 50.0);
        let e_xt = b.link(x, t, 50.0);
        let e_yt = b.link(y, t, 50.0);
        let j = b.commodity(s, t, 20.0, UtilityFn::throughput());
        b.uses(j, e_sx, 1.0, 1.0)
            .uses(j, e_sy, 1.0, 1.0)
            .uses(j, e_xt, 1.0, 1.0)
            .uses(j, e_yt, 1.0, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn node_failure_then_recovery() {
        let p = diamond();
        let cfg = GradientConfig {
            eta: 0.3,
            ..GradientConfig::default()
        };
        let mut sim = GradientSim::new(&p, cfg).unwrap();
        for _ in 0..500 {
            sim.step();
        }
        let before = sim.utility();
        assert!(before > 10.0, "pre-failure utility {before}");
        // fail x, then give the barrier time to repel the flow off it
        fail_node(sim.extended_mut(), spn_graph::NodeId::from_index(1)).unwrap();
        for _ in 0..3000 {
            sim.step();
        }
        // all flow now goes through y (only the equilibrium trickle,
        // bounded by the collapsed capacity, may remain on x)
        assert!(
            sim.flows().node_usage(spn_graph::NodeId::from_index(1)) < 0.1,
            "dead node still carries {}",
            sim.flows().node_usage(spn_graph::NodeId::from_index(1))
        );
        assert!(sim.flows().node_usage(spn_graph::NodeId::from_index(2)) > 1.0);
        // y alone can carry the full demand, so utility recovers fully
        assert!(
            sim.utility() > 0.9 * before,
            "utility after reroute {} vs before {before}",
            sim.utility()
        );
    }

    #[test]
    fn link_failure_reroutes() {
        let p = diamond();
        let cfg = GradientConfig {
            eta: 0.3,
            ..GradientConfig::default()
        };
        let mut sim = GradientSim::new(&p, cfg).unwrap();
        for _ in 0..500 {
            sim.step();
        }
        let before = sim.utility();
        let bw = fail_link(sim.extended_mut(), spn_graph::EdgeId::from_index(0)).unwrap(); // s→x
        assert_eq!(bw, spn_graph::NodeId::from_index(4)); // first bandwidth node
        for _ in 0..3000 {
            sim.step();
        }
        // the bandwidth node of the failed link carries only a trickle
        assert!(
            sim.flows().node_usage(bw) < 0.1,
            "failed link carries {}",
            sim.flows().node_usage(bw)
        );
        assert!(sim.utility() > 0.9 * before);
    }

    #[test]
    fn restore_brings_capacity_back() {
        let p = diamond();
        let cfg = GradientConfig {
            eta: 0.3,
            ..GradientConfig::default()
        };
        let mut sim = GradientSim::new(&p, cfg).unwrap();
        fail_node(sim.extended_mut(), spn_graph::NodeId::from_index(1)).unwrap();
        restore_node(sim.extended_mut(), spn_graph::NodeId::from_index(1), 50.0).unwrap();
        assert_eq!(
            sim.extended()
                .capacity(spn_graph::NodeId::from_index(1))
                .value(),
            50.0
        );
    }

    #[test]
    fn failing_a_dummy_is_a_structured_error() {
        let p = diamond();
        let mut sim = GradientSim::new(&p, GradientConfig::default()).unwrap();
        let dummy = sim
            .extended()
            .dummy_source(spn_model::CommodityId::from_index(0));
        let err = fail_node(sim.extended_mut(), dummy).expect_err("dummy accepted a failure");
        assert_eq!(err, CoreError::NotProcessingNode { node: dummy });
        // the network is untouched: the dummy's budget stays infinite
        assert!(sim.extended().capacity(dummy).is_infinite());
    }

    #[test]
    fn failing_a_nonphysical_edge_is_a_structured_error() {
        let p = diamond();
        let mut sim = GradientSim::new(&p, GradientConfig::default()).unwrap();
        // extended edges beyond the physical 4 (split/dummy edges) have
        // no bandwidth node; so does any out-of-range id
        let bogus = spn_graph::EdgeId::from_index(999);
        let err = fail_link(sim.extended_mut(), bogus).expect_err("bogus edge accepted a failure");
        assert_eq!(err, CoreError::NoBandwidthNode { edge: bogus });
    }

    #[test]
    fn restore_rejects_invalid_capacities() {
        let p = diamond();
        let mut sim = GradientSim::new(&p, GradientConfig::default()).unwrap();
        let x = spn_graph::NodeId::from_index(1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err =
                restore_node(sim.extended_mut(), x, bad).expect_err("invalid capacity accepted");
            assert!(matches!(err, CoreError::InvalidCapacity { .. }), "{bad}");
        }
    }

    #[test]
    fn every_physical_edge_has_a_bandwidth_node_and_can_fail() {
        let p = diamond();
        let physical_edges = p.graph().edge_count();
        let mut sim = GradientSim::new(&p, GradientConfig::default()).unwrap();
        for e in 0..physical_edges {
            let edge = spn_graph::EdgeId::from_index(e);
            let bw = fail_link(sim.extended_mut(), edge).unwrap();
            assert_eq!(sim.extended().capacity(bw).value(), FAILED_CAPACITY);
        }
    }
}
