//! Property-based tests for the distributed algorithm's invariants.

use proptest::prelude::*;
use spn_core::flows::{balance_residual, compute_flows};
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_model::random::RandomInstance;
use spn_model::Problem;

fn instance(seed: u64) -> Problem {
    RandomInstance::builder()
        .nodes(14)
        .commodities(2)
        .seed(seed)
        .build()
        .expect("valid instance")
        .problem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Across seeds and iteration counts, the routing decision stays
    /// structurally valid and loop-free, flows satisfy eq. (3), and the
    /// admitted rates respect their bounds.
    #[test]
    fn iteration_preserves_invariants(seed in 0u64..50, iters in 1usize..120) {
        let problem = instance(seed);
        let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        for _ in 0..iters {
            alg.step();
        }
        let ext = alg.extended();
        alg.routing().validate(ext).expect("routing valid");
        prop_assert!(alg.routing().is_loop_free(ext));
        let residual = balance_residual(ext, alg.routing(), alg.flows());
        prop_assert!(residual < 1e-8, "flow balance residual {residual}");
        let report = alg.report();
        for (j, &a) in ext.commodity_ids().zip(&report.admitted) {
            prop_assert!(a >= -1e-9);
            prop_assert!(a <= ext.commodity(j).max_rate + 1e-9);
        }
        // delivered = admitted × gain(sink): conservation-with-gain
        for j in problem.commodity_ids() {
            let expect = report.admitted[j.index()]
                * problem.gain(j, problem.commodity(j).sink());
            prop_assert!(
                (report.delivered[j.index()] - expect).abs() < 1e-6 * (1.0 + expect),
                "delivery/gain mismatch"
            );
        }
    }

    /// For a tiny step scale the relaxed cost A never increases — the
    /// descent property behind the paper's convergence claim.
    #[test]
    fn tiny_steps_descend(seed in 0u64..20) {
        let problem = instance(seed);
        let cfg = GradientConfig { eta: 0.002, epsilon: 0.002, ..GradientConfig::default() };
        let mut alg = GradientAlgorithm::new(&problem, cfg).unwrap();
        let mut last = f64::INFINITY;
        for _ in 0..60 {
            let cost = alg.cost_model().total_cost(alg.extended(), alg.flows());
            prop_assert!(cost <= last + 1e-7, "cost rose: {last} -> {cost}");
            last = cost;
            alg.step();
        }
    }

    /// Utility never exceeds the total offered load, and utilization
    /// stays within capacity at convergence-scale iteration counts.
    #[test]
    fn utility_and_utilization_bounds(seed in 0u64..30) {
        let problem = instance(seed);
        let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        let report = alg.run(800);
        prop_assert!(report.utility <= problem.total_demand() + 1e-6);
        prop_assert!(report.max_utilization <= 1.05, "utilization {}", report.max_utilization);
    }

    /// Re-evaluating flows from the final routing reproduces the
    /// algorithm's internal state (determinism / no hidden state).
    #[test]
    fn flows_are_pure_functions_of_routing(seed in 0u64..30, iters in 1usize..80) {
        let problem = instance(seed);
        let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        for _ in 0..iters {
            alg.step();
        }
        let recomputed = compute_flows(alg.extended(), alg.routing());
        for v in alg.extended().graph().nodes() {
            prop_assert!((recomputed.node_usage(v) - alg.flows().node_usage(v)).abs() < 1e-12);
        }
    }

    /// Two identically-configured runs are bit-identical (determinism).
    #[test]
    fn runs_are_deterministic(seed in 0u64..20) {
        let problem = instance(seed);
        let mut a = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        let mut b = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        for _ in 0..50 {
            a.step();
            b.step();
        }
        prop_assert_eq!(a.report().utility.to_bits(), b.report().utility.to_bits());
    }
}
