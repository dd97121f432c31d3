//! Centralized solutions in problem terms, with feasibility checking.

use spn_graph::EdgeId;
use spn_model::{CommodityId, Problem};

/// A centralized optimum of the stream processing problem, expressed on
/// the *physical* graph.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimalSolution {
    /// The objective value (total utility, or its piecewise bound).
    pub objective: f64,
    /// Admitted rate `a_j` per commodity.
    pub admitted: Vec<f64>,
    /// `edge_flow[j][e]` — commodity-`j` flow entering physical edge `e`
    /// in *input units of the edge's tail node* (the LP variable
    /// `x^j_e`); `β^j_e · x^j_e` units actually cross the wire.
    pub edge_flow: Vec<Vec<f64>>,
    /// Computing power used at each node.
    pub node_usage: Vec<f64>,
    /// Bandwidth used on each link.
    pub link_usage: Vec<f64>,
}

impl OptimalSolution {
    /// Utility `Σ_j U_j(a_j)` of the admitted rates under the problem's
    /// *true* (not approximated) utilities.
    #[must_use]
    pub fn true_utility(&self, problem: &Problem) -> f64 {
        problem.utility(&self.admitted)
    }

    /// Largest feasibility violation of this solution against the
    /// problem: capacity excess, bandwidth excess, negative flow,
    /// admission above `λ_j`, or flow-balance residual. `0.0` (up to
    /// numerical tolerance) for a valid solution.
    #[must_use]
    pub fn max_violation(&self, problem: &Problem) -> f64 {
        let g = problem.graph();
        let mut worst: f64 = 0.0;
        // non-negativity and admission bounds
        for j in problem.commodity_ids() {
            let a = self.admitted[j.index()];
            worst = worst.max(-a).max(a - problem.commodity(j).max_rate);
            for e in g.edges() {
                worst = worst.max(-self.edge_flow[j.index()][e.index()]);
            }
        }
        // node capacities (recomputed from flows, not trusted fields)
        for v in g.nodes() {
            let usage: f64 = problem
                .commodity_ids()
                .map(|j| {
                    g.out_edges(v)
                        .iter()
                        .filter_map(|&e| {
                            problem
                                .params(j, e)
                                .map(|p| p.cost * self.edge_flow[j.index()][e.index()])
                        })
                        .sum::<f64>()
                })
                .sum();
            worst = worst.max(usage - problem.node_capacity(v).value());
        }
        // link bandwidths
        for e in g.edges() {
            let usage: f64 = problem
                .commodity_ids()
                .filter_map(|j| {
                    problem
                        .params(j, e)
                        .map(|p| p.beta * self.edge_flow[j.index()][e.index()])
                })
                .sum();
            worst = worst.max(usage - problem.edge_bandwidth(e).value());
        }
        // flow balance (eq. (7)) at every non-sink node
        for j in problem.commodity_ids() {
            let c = problem.commodity(j);
            for v in g.nodes() {
                if v == c.sink() {
                    continue;
                }
                let outflow: f64 = g
                    .out_edges(v)
                    .iter()
                    .filter(|&&e| problem.in_overlay(j, e))
                    .map(|&e| self.edge_flow[j.index()][e.index()])
                    .sum();
                let inflow: f64 = g
                    .in_edges(v)
                    .iter()
                    .filter_map(|&e| {
                        problem
                            .params(j, e)
                            .map(|p| p.beta * self.edge_flow[j.index()][e.index()])
                    })
                    .sum();
                let r = if v == c.source() {
                    self.admitted[j.index()]
                } else {
                    0.0
                };
                worst = worst.max((outflow - inflow - r).abs());
            }
        }
        worst
    }

    /// Commodity-`j` flow on physical edge `e` in tail-input units.
    #[must_use]
    pub fn flow(&self, j: CommodityId, e: EdgeId) -> f64 {
        self.edge_flow[j.index()][e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::UtilityFn;

    fn chain() -> Problem {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 4.0);
        let j = b.commodity(s, t, 6.0, UtilityFn::throughput());
        b.uses(j, e, 2.0, 0.5);
        b.build().unwrap()
    }

    fn feasible_solution() -> OptimalSolution {
        // admit 4, route 4 over the edge: node usage 8 ≤ 10,
        // wire carries 2 ≤ 4
        OptimalSolution {
            objective: 4.0,
            admitted: vec![4.0],
            edge_flow: vec![vec![4.0]],
            node_usage: vec![8.0, 0.0],
            link_usage: vec![2.0],
        }
    }

    #[test]
    fn feasible_has_no_violation() {
        let p = chain();
        let s = feasible_solution();
        assert!(s.max_violation(&p) < 1e-12);
        assert_eq!(s.true_utility(&p), 4.0);
        assert_eq!(
            s.flow(CommodityId::from_index(0), spn_graph::EdgeId::from_index(0)),
            4.0
        );
    }

    #[test]
    fn detects_capacity_violation() {
        let p = chain();
        let mut s = feasible_solution();
        s.admitted = vec![6.0];
        s.edge_flow = vec![vec![6.0]]; // node usage 12 > 10
        assert!(s.max_violation(&p) >= 2.0 - 1e-9);
    }

    #[test]
    fn detects_balance_violation() {
        let p = chain();
        let mut s = feasible_solution();
        s.edge_flow = vec![vec![3.0]]; // admitted 4 but only 3 leaves
        assert!(s.max_violation(&p) >= 1.0 - 1e-9);
    }

    #[test]
    fn detects_admission_above_lambda() {
        let p = chain();
        let mut s = feasible_solution();
        s.admitted = vec![7.0];
        s.edge_flow = vec![vec![7.0]];
        assert!(s.max_violation(&p) >= 1.0 - 1e-9);
    }

    #[test]
    fn detects_negative_flow() {
        let p = chain();
        let mut s = feasible_solution();
        s.edge_flow = vec![vec![-1.0]];
        assert!(s.max_violation(&p) >= 1.0 - 1e-9);
    }
}
