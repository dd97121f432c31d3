//! Dynamic-mutation hardening: mid-run demand and capacity edits
//! through [`GradientAlgorithm::extended_mut`] must keep the sparse
//! active-set engine bit-identical to the dense reference. Every edit
//! invalidates cached activity (a rate change moves one commodity's
//! offered load; a capacity change moves *every* commodity's shared
//! barrier term), so this is the direct regression test that the
//! invalidation hooks fire — a missed hook shows up as a one-ulp
//! divergence within a few steps of the edit.

use spn::core::{GradientAlgorithm, GradientConfig};
use spn::graph::NodeId;
use spn::model::random::RandomInstance;
use spn::model::{Capacity, CommodityId};

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
