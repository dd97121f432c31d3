//! Dynamic-mutation hardening: mid-run demand and capacity edits
//! through [`GradientAlgorithm::extended_mut`] must keep the sparse
//! active-set engine bit-identical to the dense reference. Every edit
//! invalidates cached activity (a rate change moves one commodity's
//! offered load; a capacity change moves *every* commodity's shared
//! barrier term), so this is the direct regression test that the
//! invalidation hooks fire — a missed hook shows up as a one-ulp
//! divergence within a few steps of the edit.

use spn::core::{GradientAlgorithm, GradientConfig};
use spn::graph::{EdgeId, NodeId};
use spn::model::builder::ProblemBuilder;
use spn::model::random::RandomInstance;
use spn::model::{Capacity, CommodityId, UtilityFn};

/// Asserts complete bitwise state agreement between the two engines.
fn assert_identical(dense: &GradientAlgorithm, sparse: &GradientAlgorithm, what: &str) {
    assert_eq!(
        dense.routing(),
        sparse.routing(),
        "routing diverged: {what}"
    );
    assert_eq!(dense.flows(), sparse.flows(), "flow state diverged: {what}");
    assert_eq!(
        dense.marginals(),
        sparse.marginals(),
        "marginals diverged: {what}"
    );
    let (rd, rs) = (dense.report(), sparse.report());
    assert_eq!(
        rd.utility.to_bits(),
        rs.utility.to_bits(),
        "utility not bit-identical: {what}"
    );
}

/// Lockstep run with per-iteration routing comparison and scripted
/// mutations applied to both engines at the same iterations.
#[test]
fn sparse_matches_dense_through_demand_and_capacity_edits() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(33)
        .build()
        .unwrap()
        .problem;
    let cfg = |sparsity| GradientConfig {
        sparsity,
        ..GradientConfig::default()
    };
    let mut dense = GradientAlgorithm::new(&problem, cfg(false)).unwrap();
    let mut sparse = GradientAlgorithm::new(&problem, cfg(true)).unwrap();

    let j1 = CommodityId::from_index(1);
    let j3 = CommodityId::from_index(3);
    let base_rate = dense.extended().commodity(j1).max_rate;
    // A physical node on some route: halving its budget forces the
    // barrier to repel flow and reroute around it.
    let squeezed = NodeId::from_index(4);
    let base_cap = dense.extended().capacity(squeezed).value();

    for it in 0..300 {
        match it {
            // Demand surge on one commodity.
            100 => {
                dense.extended_mut().set_max_rate(j1, base_rate * 2.0);
                sparse.extended_mut().set_max_rate(j1, base_rate * 2.0);
            }
            // Capacity squeeze on a shared physical node.
            150 => {
                let cap = Capacity::finite(base_cap * 0.5).unwrap();
                dense.extended_mut().set_capacity(squeezed, cap);
                sparse.extended_mut().set_capacity(squeezed, cap);
            }
            // Recovery plus a second demand edit elsewhere.
            200 => {
                let cap = Capacity::finite(base_cap).unwrap();
                dense.extended_mut().set_capacity(squeezed, cap);
                sparse.extended_mut().set_capacity(squeezed, cap);
                dense.extended_mut().set_max_rate(j3, base_rate * 0.25);
                sparse.extended_mut().set_max_rate(j3, base_rate * 0.25);
            }
            _ => {}
        }
        dense.step();
        sparse.step();
        assert_eq!(
            dense.routing(),
            sparse.routing(),
            "routing diverged at iteration {it}"
        );
    }
    assert_identical(&dense, &sparse, "after scripted mutations");
    assert!(dense.utility().is_finite());
}

/// The mutation hooks themselves reject poisoned inputs — a NaN rate or
/// a non-positive capacity must die loudly at the call site instead of
/// leaking into the barrier where it would read as divergence.
#[test]
fn mutation_hooks_reject_poisoned_inputs() {
    let problem = RandomInstance::builder()
        .nodes(20)
        .commodities(2)
        .seed(34)
        .build()
        .unwrap()
        .problem;
    let alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    let j0 = CommodityId::from_index(0);

    let rate_err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut alg = alg.clone();
        alg.extended_mut().set_max_rate(j0, f64::NAN);
    }))
    .unwrap_err();
    let msg = rate_err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("max rate must be finite and positive"),
        "unexpected panic message: {msg}"
    );

    assert!(
        Capacity::finite(0.0).is_none() && Capacity::finite(f64::NAN).is_none(),
        "Capacity::finite must refuse non-positive and non-finite budgets"
    );
}

/// A rejected admission must leave the network — and the algorithm
/// around it — exactly as it was. `ExtendedNetwork::add_commodity` used
/// to check the overlay's edge ids and acyclicity only *after* pushing
/// the dummy node and both dummy links, so a bad `CommodityDef` unwound
/// out of a half-extended network (`graph` one node longer than
/// `commodities`), and `GradientAlgorithm::admit_commodity` inherited
/// it. Both a non-physical edge id and a cyclic overlay are tried; the
/// survivor must keep stepping bit-equal to a clone that never saw the
/// calls.
#[test]
fn a_rejected_admission_leaves_the_network_untouched() {
    // s → x ⇄ y → t and x → t: the x ⇄ y pair lets an overlay close a
    // cycle; the live commodities use only the forward edges.
    let mut b = ProblemBuilder::new();
    let [s, x, y, t] = [40.0, 30.0, 30.0, 40.0].map(|c| b.server(c));
    let e_sx = b.link(s, x, 20.0);
    let e_xy = b.link(x, y, 20.0);
    let e_yx = b.link(y, x, 20.0);
    let e_yt = b.link(y, t, 20.0);
    let e_xt = b.link(x, t, 20.0);
    let j0 = b.commodity(s, t, 6.0, UtilityFn::throughput());
    b.uses(j0, e_sx, 1.0, 1.0)
        .uses(j0, e_xy, 1.5, 1.0)
        .uses(j0, e_yt, 1.0, 1.0)
        .uses(j0, e_xt, 2.0, 1.0);
    let j1 = b.commodity(x, t, 3.0, UtilityFn::throughput());
    b.uses(j1, e_xt, 1.0, 1.0);
    let problem = b.build().unwrap();

    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    alg.run(40);
    let mut twin = alg.clone();
    let shape = |alg: &GradientAlgorithm| {
        let ext = alg.extended();
        (
            ext.graph().node_count(),
            ext.graph().edge_count(),
            ext.num_commodities(),
            ext.structure_version(),
            alg.epoch(),
        )
    };
    let before = shape(&alg);

    let good = alg.extended().commodity_def(j0);
    let mut ghost_edge = good.clone();
    ghost_edge.edges.push((EdgeId::from_index(99), 1.0, 1.0));
    let mut cyclic = good;
    cyclic.edges.push((e_yx, 1.0, 1.0));
    for (what, def) in [
        ("non-physical edge id", ghost_edge),
        ("cyclic overlay", cyclic),
    ] {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            alg.admit_commodity(def);
        }));
        assert!(refused.is_err(), "{what} was admitted");
        assert_eq!(shape(&alg), before, "{what} left the network reshaped");
        for it in 0..30 {
            let (a, b) = (alg.step(), twin.step());
            assert_eq!(
                (a.cost_before.to_bits(), a.gamma.total_shift.to_bits()),
                (b.cost_before.to_bits(), b.gamma.total_shift.to_bits()),
                "step {it} after the refused {what}"
            );
        }
        assert_identical(&twin, &alg, &format!("30 steps after the refused {what}"));
    }
}
