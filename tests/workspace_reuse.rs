//! Property test: one [`IterationWorkspace`] shared across
//! differently-sized problems never leaks state between them — every
//! pass through a reused (and possibly oversized or undersized)
//! workspace is bit-identical to the same pass through a fresh one.

use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use spn::core::blocked::compute_tags;
use spn::core::flows::{compute_flows_into, FlowState};
use spn::core::gamma::apply_gamma_ws;
use spn::core::marginals::{compute_marginals_into, Marginals};
use spn::core::{GradientAlgorithm, GradientConfig, IterationWorkspace};
use spn::model::random::RandomInstance;
use spn::model::Problem;

fn instance(seed: u64, nodes: usize, commodities: usize) -> Problem {
    RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()
        .expect("valid instance")
        .problem
}

/// Runs the full pass stack (flows → marginals → tags → Γ) for one
/// problem through `shared`, comparing every result against a fresh
/// workspace and against the algorithm's own internal state.
fn check_problem(problem: &Problem, shared: &mut IterationWorkspace) -> TestCaseResult {
    let mut alg = GradientAlgorithm::new(problem, GradientConfig::default()).unwrap();
    alg.run(30); // a non-trivial operating point
    let ext = alg.extended();
    let cost = alg.cost_model();
    let config = *alg.config();

    let mut state = FlowState::zeros(ext);
    compute_flows_into(ext, alg.routing(), &mut state, shared, None);
    prop_assert_eq!(
        &state,
        alg.flows(),
        "flows differ through a reused workspace"
    );

    let mut marginals = Marginals::zeros(ext);
    compute_marginals_into(ext, cost, alg.routing(), &state, &mut marginals, None);
    prop_assert_eq!(&marginals, alg.marginals(), "marginals differ");

    let tags = compute_tags(
        ext,
        cost,
        alg.routing(),
        &state,
        &marginals,
        config.eta,
        config.traffic_floor,
    );
    let mut rt_shared = alg.routing().clone();
    apply_gamma_ws(
        ext,
        cost,
        &mut rt_shared,
        &state,
        &marginals,
        &tags,
        config.eta,
        config.traffic_floor,
        config.opening_fraction,
        config.shift_cap,
        shared,
        None,
    );
    let mut rt_fresh = alg.routing().clone();
    let mut fresh = IterationWorkspace::new(ext);
    apply_gamma_ws(
        ext,
        cost,
        &mut rt_fresh,
        &state,
        &marginals,
        &tags,
        config.eta,
        config.traffic_floor,
        config.opening_fraction,
        config.shift_cap,
        &mut fresh,
        None,
    );
    prop_assert_eq!(
        rt_shared,
        rt_fresh,
        "gamma differs through a reused workspace"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Growing, shrinking, and revisiting problem sizes through one
    /// workspace is indistinguishable from using fresh workspaces.
    #[test]
    fn shared_workspace_across_problem_sizes(
        seed in 0u64..20,
        nodes_a in 10usize..24,
        nodes_b in 10usize..24,
        j_a in 1usize..4,
        j_b in 1usize..4,
    ) {
        let a = instance(seed, nodes_a, j_a);
        let b = instance(seed.wrapping_add(101), nodes_b, j_b);
        let mut shared = IterationWorkspace::default();
        check_problem(&a, &mut shared)?; // cold workspace
        check_problem(&b, &mut shared)?; // resized (grown or shrunk)
        check_problem(&a, &mut shared)?; // back to the first size
    }
}
