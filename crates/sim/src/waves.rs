//! Message-level execution of the §5 protocol waves.
//!
//! The in-process driver in `spn-core` computes marginal costs and flow
//! forecasts with topological sweeps. Here the same computations run as
//! the paper describes them operationally: nodes hold per-commodity
//! protocol state, *wait* for the required values from their neighbors,
//! and broadcast their own when ready; messages are delivered one hop
//! per round. The scheduler records how many rounds and messages each
//! wave takes — exactly the quantities behind the paper's "it takes
//! `O(L)` message exchanges to update all nodes, where `L` represents
//! the length of the longest path" (experiment E4).

use spn_core::{CostModel, FlowState, Marginals, RoutingTable};
use spn_graph::NodeId;
use spn_transform::ExtendedNetwork;

/// Cost accounting of one protocol wave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Synchronous rounds until every node finished (the waves of all
    /// commodities run in parallel; this is the maximum over them).
    pub rounds: usize,
    /// Point-to-point messages sent, summed over commodities.
    pub messages: usize,
}

impl WaveOutcome {
    fn merge_parallel(&mut self, other: WaveOutcome) {
        self.rounds = self.rounds.max(other.rounds);
        self.messages += other.messages;
    }
}

/// Runs the marginal-cost wave as messages: for each destination `j`,
/// each node waits for `∂A/∂r` from every commodity out-neighbor, then
/// computes its own value (eq. (9)) and broadcasts it to its commodity
/// in-neighbors.
///
/// Returns the marginal values (numerically equal to
/// [`spn_core::marginals::compute_marginals`] up to floating-point
/// summation order — asserted by tests) and the wave cost.
#[must_use]
pub fn marginal_wave(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
) -> (Vec<Vec<f64>>, WaveOutcome) {
    let v_count = ext.graph().node_count();
    let mut values = vec![vec![0.0; v_count]; ext.num_commodities()];
    let mut outcome = WaveOutcome::default();

    for j in ext.commodity_ids() {
        let ji = j.index();
        let mut wave = WaveOutcome::default();
        // members: nodes with any commodity adjacency
        let member: Vec<bool> = ext
            .graph()
            .nodes()
            .map(|v| {
                ext.commodity_out_edges(j, v).next().is_some()
                    || ext.commodity_in_edges(j, v).next().is_some()
            })
            .collect();
        let mut pending: Vec<usize> = ext
            .graph()
            .nodes()
            .map(|v| ext.commodity_out_edges(j, v).count())
            .collect();
        // nodes ready immediately (sink and non-members)
        let mut frontier: Vec<NodeId> = ext
            .graph()
            .nodes()
            .filter(|&v| pending[v.index()] == 0)
            .collect();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                // compute ∂A/∂r_v(j) from received downstream values
                let mut acc = 0.0;
                if v != ext.commodity(j).sink() {
                    for l in ext.commodity_out_edges(j, v) {
                        let phi = routing.fraction(j, l);
                        if phi == 0.0 {
                            continue;
                        }
                        let head = ext.graph().target(l);
                        acc += phi * cost.edge_marginal(ext, state, j, l, values[ji][head.index()]);
                    }
                }
                values[ji][v.index()] = acc;
                // broadcast to commodity in-neighbors
                if member[v.index()] {
                    for l in ext.commodity_in_edges(j, v) {
                        wave.messages += 1;
                        let tail = ext.graph().source(l);
                        pending[tail.index()] -= 1;
                        if pending[tail.index()] == 0 {
                            next.push(tail);
                        }
                    }
                }
            }
            if !next.is_empty() {
                wave.rounds += 1;
            }
            frontier = next;
        }
        debug_assert!(
            pending.iter().all(|&p| p == 0),
            "marginal wave deadlocked — routing not loop-free?"
        );
        outcome.merge_parallel(wave);
    }
    (values, outcome)
}

/// Runs the flow-forecast wave as messages: each node waits for the
/// forecasted inflow from every commodity in-neighbor (under the new
/// routing decision), applies eq. (3), and forwards its own forecasts
/// downstream on every positive-fraction link.
///
/// Returns the forecasted [`FlowState`] (numerically equal to
/// [`spn_core::flows::compute_flows`]) and the wave cost.
#[must_use]
pub fn forecast_wave(ext: &ExtendedNetwork, routing: &RoutingTable) -> (FlowState, WaveOutcome) {
    let v_count = ext.graph().node_count();
    let l_count = ext.graph().edge_count();
    let j_count = ext.num_commodities();
    let mut t = vec![vec![0.0; v_count]; j_count];
    let mut x = vec![vec![0.0; l_count]; j_count];
    let mut f_edge = vec![0.0; l_count];
    let mut f_node = vec![0.0; v_count];
    let mut outcome = WaveOutcome::default();

    for j in ext.commodity_ids() {
        let ji = j.index();
        let mut wave = WaveOutcome::default();
        t[ji][ext.dummy_source(j).index()] = ext.commodity(j).max_rate;
        let mut pending: Vec<usize> = ext
            .graph()
            .nodes()
            .map(|v| ext.commodity_in_edges(j, v).count())
            .collect();
        let mut frontier: Vec<NodeId> = ext
            .graph()
            .nodes()
            .filter(|&v| pending[v.index()] == 0)
            .collect();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                let tv = t[ji][v.index()];
                for l in ext.commodity_out_edges(j, v) {
                    let phi = routing.fraction(j, l);
                    let flow = tv * phi;
                    x[ji][l.index()] = flow;
                    let usage = flow * ext.cost(j, l);
                    f_edge[l.index()] += usage;
                    f_node[v.index()] += usage;
                    let head = ext.graph().target(l);
                    t[ji][head.index()] += flow * ext.beta(j, l);
                    if flow > 0.0 {
                        wave.messages += 1; // forecast f¹ sent downstream
                    }
                    pending[head.index()] -= 1;
                    if pending[head.index()] == 0 {
                        next.push(head);
                    }
                }
            }
            if !next.is_empty() {
                wave.rounds += 1;
            }
            frontier = next;
        }
        debug_assert!(pending.iter().all(|&p| p == 0), "forecast wave deadlocked");
        outcome.merge_parallel(wave);
    }
    (FlowState::from_nested(ext, &t, &x, f_edge, f_node), outcome)
}

/// Converts raw per-node marginal values into the core crate's
/// [`Marginals`] (which keeps the entries of each commodity's members).
#[must_use]
pub fn into_marginals(ext: &ExtendedNetwork, values: &[Vec<f64>]) -> Marginals {
    Marginals::from_raw(ext, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::flows::compute_flows;
    use spn_core::marginals::compute_marginals;
    use spn_core::{GradientAlgorithm, GradientConfig};
    use spn_model::random::RandomInstance;

    fn setup(seed: u64) -> (ExtendedNetwork, CostModel, RoutingTable) {
        let inst = RandomInstance::builder()
            .nodes(20)
            .commodities(2)
            .seed(seed)
            .build()
            .unwrap();
        let mut alg = GradientAlgorithm::new(&inst.problem, GradientConfig::default()).unwrap();
        alg.run(50); // non-trivial routing state
        let ext = alg.extended().clone();
        let cost = *alg.cost_model();
        let routing = alg.routing().clone();
        (ext, cost, routing)
    }

    #[test]
    fn forecast_wave_matches_sweep() {
        for seed in 0..4 {
            let (ext, _, routing) = setup(seed);
            let (state, outcome) = forecast_wave(&ext, &routing);
            let reference = compute_flows(&ext, &routing);
            for v in ext.graph().nodes() {
                assert!(
                    (state.node_usage(v) - reference.node_usage(v)).abs() < 1e-9,
                    "node {v} usage differs"
                );
            }
            for j in ext.commodity_ids() {
                for v in ext.graph().nodes() {
                    assert!(
                        (state.traffic(&ext, j, v) - reference.traffic(&ext, j, v)).abs() < 1e-9
                    );
                }
            }
            assert!(outcome.rounds > 0);
            assert!(outcome.messages > 0);
        }
    }

    #[test]
    fn marginal_wave_matches_sweep() {
        for seed in 0..4 {
            let (ext, cost, routing) = setup(seed);
            let state = compute_flows(&ext, &routing);
            let (values, outcome) = marginal_wave(&ext, &cost, &routing, &state);
            let reference = compute_marginals(&ext, &cost, &routing, &state);
            for j in ext.commodity_ids() {
                for v in ext.graph().nodes() {
                    let got = values[j.index()][v.index()];
                    let want = reference.node(&ext, j, v);
                    assert!(
                        (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                        "marginal at {v} for {j}: {got} vs {want}"
                    );
                }
            }
            assert!(outcome.rounds > 0);
            assert!(outcome.messages > 0);
        }
    }

    #[test]
    fn rounds_scale_with_depth() {
        // deep pipeline ⇒ more rounds than a shallow one
        let deep = RandomInstance::builder()
            .nodes(40)
            .commodities(1)
            .stages(10..=10)
            .width(2..=2)
            .seed(1)
            .build()
            .unwrap();
        let shallow = RandomInstance::builder()
            .nodes(40)
            .commodities(1)
            .stages(2..=2)
            .width(2..=2)
            .seed(1)
            .build()
            .unwrap();
        let rounds = |p: &spn_model::Problem| {
            let alg = GradientAlgorithm::new(p, GradientConfig::default()).unwrap();
            let (_, o) =
                marginal_wave(alg.extended(), alg.cost_model(), alg.routing(), alg.flows());
            o.rounds
        };
        assert!(
            rounds(&deep.problem) > rounds(&shallow.problem) + 4,
            "deep {} vs shallow {}",
            rounds(&deep.problem),
            rounds(&shallow.problem)
        );
    }
}
