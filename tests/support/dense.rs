//! The dense oracle of ARCHITECTURE invariant 14: one step of
//! [`GradientAlgorithm`] must equal one dense kernel replay of its own
//! pre-step state, bit for bit.
//!
//! [`replay`] copies the routing, flows and marginals of the algorithm
//! and runs the three dense public kernels over every member arc and
//! router — `apply_gamma_ws`, `compute_flows_into`,
//! `compute_marginals_into`, the same calls the benchmark's replay leg
//! times — at the algorithm's ε, a constant of the run. [`checked_step`]
//! steps the algorithm and asserts that it holds exactly the replayed
//! state. Held
//! at every step from a shared start, this is at least as strong as
//! stepping a dense twin in lockstep, and the mutations a test applies
//! (restore, installed routing, η, capacity and demand edits) act on the
//! one algorithm only.
//!
//! The replay is Γ's. The Newton rule has its own dense replay, next to
//! it in `spn_core::newton`.

#![allow(dead_code)] // each test file uses part of the module

use spn::core::flows::{compute_flows_into, FlowState};
use spn::core::gamma::{apply_gamma_ws, GammaStats};
use spn::core::marginals::{compute_marginals_into, Marginals};
use spn::core::routing::RoutingTable;
use spn::core::{GradientAlgorithm, IterationWorkspace, StepStats};
use spn::transform::ExtendedNetwork;

/// The state one dense step leaves behind.
pub struct DenseStep {
    pub routing: RoutingTable,
    pub flows: FlowState,
    pub marginals: Marginals,
    pub gamma: GammaStats,
}

/// One dense step replayed on copies of `alg`'s pre-step state.
pub fn replay(alg: &GradientAlgorithm) -> DenseStep {
    let (ext, cfg) = (alg.extended(), alg.config());
    let cost = *alg.cost_model();
    let mut routing = alg.routing().clone();
    let mut flows = alg.flows().clone();
    let mut marginals = alg.marginals().clone();
    let mut ws = IterationWorkspace::new(ext);
    #[allow(deprecated)] // `apply_gamma_ws` ignores its `_tags` shim
    let tags = spn::core::blocked::BlockedTags::none(ext);
    let gamma = apply_gamma_ws(
        ext,
        &cost,
        &mut routing,
        &flows,
        &marginals,
        &tags,
        cfg.eta,
        cfg.traffic_floor,
        cfg.opening_fraction,
        cfg.shift_cap,
        &mut ws,
        None,
    );
    compute_flows_into(ext, &routing, &mut flows, &mut ws, None);
    compute_marginals_into(ext, &cost, &routing, &flows, &mut marginals, None);
    DenseStep {
        routing,
        flows,
        marginals,
        gamma,
    }
}

/// Every float of a routing, flows and marginals triple as bits, so
/// `-0.0` and `+0.0` differ (a derived `==` calls them equal): every
/// fraction, every member traffic and edge flow, the usage totals of
/// every edge and node, and every member marginal.
pub fn state_bits(
    ext: &ExtendedNetwork,
    routing: &RoutingTable,
    flows: &FlowState,
    marginals: &Marginals,
) -> [Vec<u64>; 3] {
    let mut phi = Vec::new();
    let mut f = Vec::new();
    let mut d = Vec::new();
    for j in ext.commodity_ids() {
        for l in ext.graph().edges() {
            phi.push(routing.fraction(j, l).to_bits());
            f.push(flows.edge_flow(j, l).to_bits());
        }
        for &v in ext.commodity_member_nodes(j) {
            f.push(flows.traffic(ext, j, v).to_bits());
        }
        d.extend(marginals.row(ext, j).iter().map(|x| x.to_bits()));
    }
    f.extend(ext.graph().edges().map(|l| flows.edge_usage(l).to_bits()));
    f.extend(flows.node_usages().iter().map(|x| x.to_bits()));
    [phi, f, d]
}

/// Steps `alg` once and asserts the step equals its dense replay: the
/// routing, the flows with their usage totals (idle nodes included),
/// the marginals and the Γ statistics, bit for bit.
pub fn checked_step(alg: &mut GradientAlgorithm, what: &str) -> StepStats {
    let expect = replay(alg);
    let ext = alg.extended();
    let want = state_bits(ext, &expect.routing, &expect.flows, &expect.marginals);
    let stats = alg.step();
    let got = state_bits(alg.extended(), alg.routing(), alg.flows(), alg.marginals());
    for (k, name) in ["routing", "flows", "marginals"].into_iter().enumerate() {
        assert!(got[k] == want[k], "{name}: {what}");
    }
    let bits = |g: GammaStats| (g.max_shift.to_bits(), g.total_shift.to_bits(), g.rows);
    assert_eq!(bits(stats.gamma), bits(expect.gamma), "Γ stats: {what}");
    stats
}

/// Asserts two algorithms hold the same state — [`state_bits`] and the
/// utility — bit for bit.
pub fn assert_identical(a: &GradientAlgorithm, b: &GradientAlgorithm, what: &str) {
    let bits =
        |x: &GradientAlgorithm| state_bits(x.extended(), x.routing(), x.flows(), x.marginals());
    let (sa, sb) = (bits(a), bits(b));
    for (k, name) in ["routing", "flows", "marginals"].into_iter().enumerate() {
        assert!(sa[k] == sb[k], "{name} diverged: {what}");
    }
    let utility = |x: &GradientAlgorithm| x.utility().to_bits();
    assert_eq!(utility(a), utility(b), "utility not bit-identical: {what}");
}

/// Asserts that `alg`'s flows and marginals are a dense recompute of
/// its routing — `compute_flows_into`, then `compute_marginals_into` —
/// bit for bit.
pub fn assert_dense_recompute(alg: &GradientAlgorithm, what: &str) {
    let ext = alg.extended();
    let mut flows = alg.flows().clone();
    let mut marginals = alg.marginals().clone();
    let mut ws = IterationWorkspace::new(ext);
    compute_flows_into(ext, alg.routing(), &mut flows, &mut ws, None);
    let cost = alg.cost_model();
    compute_marginals_into(ext, cost, alg.routing(), &flows, &mut marginals, None);
    let want = state_bits(ext, alg.routing(), &flows, &marginals);
    let got = state_bits(ext, alg.routing(), alg.flows(), alg.marginals());
    for (k, name) in ["flows", "marginals"].into_iter().enumerate() {
        assert!(
            got[k + 1] == want[k + 1],
            "{name} are no dense recompute: {what}"
        );
    }
}

/// [`checked_step`] `n` times.
pub fn checked_steps(alg: &mut GradientAlgorithm, n: usize, what: &str) {
    for it in 0..n {
        checked_step(alg, &format!("{what}, step {it}"));
    }
}
