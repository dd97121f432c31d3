//! Arc-flow LP encoding of the shrinkage multicommodity flow problem.
//!
//! Variables: one flow variable `x^j_e` per (commodity, overlay edge) —
//! the commodity-`j` rate entering edge `e`, in input units of the
//! edge's tail — plus one admission variable `a_j` per commodity.
//! Constraints (the paper's formulation of §2, flow balance per
//! eq. (7)):
//!
//! * **balance** at every non-sink node of each commodity:
//!   `Σ_out x − Σ_in β·x = a_j·[v = s_j]`;
//! * **admission** `a_j ≤ λ_j`;
//! * **node capacity** `Σ_j Σ_out c^j·x ≤ C_v`;
//! * **link bandwidth** `Σ_j β^j_e·x^j_e ≤ B_e` (the wire carries the
//!   *post-processing* flow).
//!
//! With linear utilities the objective is `Σ_j w_j·a_j` and
//! [`solve_linear_utility`] returns the exact optimum — the horizontal
//! line of Figure 4. For strictly concave utilities see
//! [`crate::piecewise`].

use crate::lp::{LinearProgram, LpFailure};
use crate::solution::OptimalSolution;
use spn_graph::{EdgeId, NodeId};
use spn_model::{CommodityId, Problem, UtilityFn};
use std::fmt;

/// What an LP constraint row represents (for dual extraction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowKind {
    /// Flow balance of a commodity at a node (eq. (7)).
    Balance(CommodityId, NodeId),
    /// The admission bound `a_j ≤ λ_j`.
    Admission(CommodityId),
    /// A node's computing-capacity constraint.
    NodeCapacity(NodeId),
    /// A link's bandwidth constraint.
    Bandwidth(EdgeId),
}

/// Shadow prices of the arc-flow LP: the marginal value (in utility per
/// unit of resource) of each capacity, plus the marginal utility of
/// letting each source offer more load. These are the centralized
/// counterpart of the distributed algorithm's marginal costs — the
/// `shadow_prices` experiment compares them.
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowPrices {
    /// Price of one more unit of computing capacity at each node.
    pub node: Vec<f64>,
    /// Price of one more unit of bandwidth on each link.
    pub link: Vec<f64>,
    /// Price of one more unit of offered load `λ_j` per commodity
    /// (zero when the commodity is capacity-limited).
    pub admission: Vec<f64>,
}

/// Variable layout of the arc-flow LP.
#[derive(Clone, Debug)]
pub struct ArcFlowEncoding {
    /// `x_col[j][e]` — LP column of `x^j_e`, if edge `e` is in commodity
    /// `j`'s overlay.
    x_col: Vec<Vec<Option<usize>>>,
    /// `a_col[j]` — LP column of the admission variable `a_j`.
    a_col: Vec<usize>,
    /// What each constraint row represents, in row order.
    rows: Vec<RowKind>,
}

impl ArcFlowEncoding {
    /// Column of `x^j_e`, or `None` when the commodity does not use `e`.
    #[must_use]
    pub(crate) fn flow_col(&self, j: CommodityId, e: spn_graph::EdgeId) -> Option<usize> {
        self.x_col[j.index()][e.index()]
    }

    /// Column of `a_j`.
    #[must_use]
    pub(crate) fn admission_col(&self, j: CommodityId) -> usize {
        self.a_col[j.index()]
    }

    /// What each constraint row represents, in row order.
    #[must_use]
    pub fn rows(&self) -> &[RowKind] {
        &self.rows
    }

    /// Extracts per-resource shadow prices from an LP dual vector.
    ///
    /// Signs are normalized so that *more capacity is worth a
    /// non-negative amount*.
    #[must_use]
    pub fn shadow_prices(&self, problem: &Problem, duals: &[f64]) -> ShadowPrices {
        let g = problem.graph();
        let mut prices = ShadowPrices {
            node: vec![0.0; g.node_count()],
            link: vec![0.0; g.edge_count()],
            admission: vec![0.0; problem.num_commodities()],
        };
        for (kind, &y) in self.rows.iter().zip(duals) {
            match *kind {
                RowKind::Balance(..) => {}
                RowKind::Admission(j) => prices.admission[j.index()] = y.max(0.0),
                RowKind::NodeCapacity(v) => prices.node[v.index()] = y.max(0.0),
                RowKind::Bandwidth(e) => prices.link[e.index()] = y.max(0.0),
            }
        }
        prices
    }

    /// Extracts an [`OptimalSolution`] from an LP point.
    #[must_use]
    pub(crate) fn extract(&self, problem: &Problem, objective: f64, x: &[f64]) -> OptimalSolution {
        let g = problem.graph();
        let admitted: Vec<f64> = self.a_col.iter().map(|&col| x[col].max(0.0)).collect();
        let mut edge_flow = vec![vec![0.0; g.edge_count()]; problem.num_commodities()];
        for j in problem.commodity_ids() {
            for e in g.edges() {
                if let Some(col) = self.flow_col(j, e) {
                    edge_flow[j.index()][e.index()] = x[col].max(0.0);
                }
            }
        }
        let mut node_usage = vec![0.0; g.node_count()];
        let mut link_usage = vec![0.0; g.edge_count()];
        for j in problem.commodity_ids() {
            for e in g.edges() {
                if let Some(p) = problem.params(j, e) {
                    let f = edge_flow[j.index()][e.index()];
                    node_usage[g.source(e).index()] += p.cost * f;
                    link_usage[e.index()] += p.beta * f;
                }
            }
        }
        OptimalSolution {
            objective,
            admitted,
            edge_flow,
            node_usage,
            link_usage,
        }
    }
}

/// Builds the constraint system (objective left at zero).
#[must_use]
pub fn encode(problem: &Problem) -> (LinearProgram, ArcFlowEncoding) {
    let g = problem.graph();
    let j_count = problem.num_commodities();

    // Column layout: all flow variables, then admissions.
    let mut x_col = vec![vec![None; g.edge_count()]; j_count];
    let mut next = 0;
    for j in problem.commodity_ids() {
        for e in problem.overlay_edges(j) {
            x_col[j.index()][e.index()] = Some(next);
            next += 1;
        }
    }
    let a_col: Vec<usize> = (0..j_count).map(|ji| next + ji).collect();
    let mut lp = LinearProgram::new(next + j_count);
    let mut rows: Vec<RowKind> = Vec::new();
    let enc_probe = ArcFlowEncoding {
        x_col,
        a_col,
        rows: Vec::new(),
    };
    let enc = &enc_probe;

    // Balance constraints.
    for j in problem.commodity_ids() {
        let c = problem.commodity(j);
        for v in g.nodes() {
            if v == c.sink() {
                continue;
            }
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for &e in g.out_edges(v) {
                if let Some(col) = enc.flow_col(j, e) {
                    coeffs.push((col, 1.0));
                }
            }
            for &e in g.in_edges(v) {
                if let Some(col) = enc.flow_col(j, e) {
                    let beta = problem.params(j, e).expect("overlay edge has params").beta;
                    coeffs.push((col, -beta));
                }
            }
            if v == c.source() {
                coeffs.push((enc.admission_col(j), -1.0));
            }
            if !coeffs.is_empty() {
                lp.equal(coeffs, 0.0);
                rows.push(RowKind::Balance(j, v));
            }
        }
        // admission bound
        lp.less_equal(vec![(enc.admission_col(j), 1.0)], c.max_rate);
        rows.push(RowKind::Admission(j));
    }

    // Node capacities.
    for v in g.nodes() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in problem.commodity_ids() {
            for &e in g.out_edges(v) {
                if let Some(col) = enc.flow_col(j, e) {
                    let cost = problem.params(j, e).expect("overlay edge has params").cost;
                    coeffs.push((col, cost));
                }
            }
        }
        if !coeffs.is_empty() {
            lp.less_equal(coeffs, problem.node_capacity(v).value());
            rows.push(RowKind::NodeCapacity(v));
        }
    }

    // Link bandwidths.
    for e in g.edges() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in problem.commodity_ids() {
            if let Some(col) = enc.flow_col(j, e) {
                let beta = problem.params(j, e).expect("overlay edge has params").beta;
                coeffs.push((col, beta));
            }
        }
        if !coeffs.is_empty() {
            lp.less_equal(coeffs, problem.edge_bandwidth(e).value());
            rows.push(RowKind::Bandwidth(e));
        }
    }

    let ArcFlowEncoding { x_col, a_col, .. } = enc_probe;
    (lp, ArcFlowEncoding { x_col, a_col, rows })
}

/// Why a centralized solve failed.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The LP solver failed (should not happen for valid problems: the
    /// zero flow is always feasible and utilities are bounded).
    Lp(LpFailure),
    /// [`solve_linear_utility`] requires every commodity's utility to be
    /// [`UtilityFn::Linear`].
    NotLinear {
        /// The first non-linear commodity.
        commodity: CommodityId,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "lp solve failed: {e}"),
            SolveError::NotLinear { commodity } => {
                write!(
                    f,
                    "commodity {commodity} has a non-linear utility; use piecewise"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Lp(e) => Some(e),
            SolveError::NotLinear { .. } => None,
        }
    }
}

impl From<LpFailure> for SolveError {
    fn from(e: LpFailure) -> Self {
        SolveError::Lp(e)
    }
}

/// Computes the exact optimum for a problem whose utilities are all
/// linear (`U_j(a) = w_j·a`): maximize `Σ_j w_j·a_j`.
///
/// # Errors
///
/// [`SolveError::NotLinear`] if any utility is not linear;
/// [`SolveError::Lp`] if the LP solver fails (not expected for valid
/// problems).
pub fn solve_linear_utility(problem: &Problem) -> Result<OptimalSolution, SolveError> {
    solve_linear_utility_with_prices(problem).map(|(sol, _)| sol)
}

/// Like [`solve_linear_utility`], additionally returning the LP's
/// shadow prices (capacity and admission duals).
///
/// # Errors
///
/// See [`solve_linear_utility`].
pub fn solve_linear_utility_with_prices(
    problem: &Problem,
) -> Result<(OptimalSolution, ShadowPrices), SolveError> {
    let (mut lp, enc) = encode(problem);
    for j in problem.commodity_ids() {
        match problem.commodity(j).utility {
            UtilityFn::Linear { weight } => lp.set_objective(enc.admission_col(j), weight),
            _ => return Err(SolveError::NotLinear { commodity: j }),
        }
    }
    let sol = crate::lp::solve(&lp)?;
    let prices = enc.shadow_prices(problem, &sol.duals);
    Ok((enc.extract(problem, sol.objective, &sol.x), prices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::random::RandomInstance;

    #[test]
    fn bottleneck_chain_optimum() {
        // s(c=1) → x(cap 10, c=2) → t; λ = 20 ⇒ optimum 5 (x limits)
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(10.0);
        let t = b.server(100.0);
        let e1 = b.link(s, x, 100.0);
        let e2 = b.link(x, t, 100.0);
        let j = b.commodity(s, t, 20.0, UtilityFn::throughput());
        b.uses(j, e1, 1.0, 1.0).uses(j, e2, 2.0, 1.0);
        let p = b.build().unwrap();
        let sol = solve_linear_utility(&p).unwrap();
        assert!(
            (sol.objective - 5.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(sol.max_violation(&p) < 1e-6);
    }

    #[test]
    fn bandwidth_bottleneck() {
        // wire carries β·x; with β=2 and B=6 the bandwidth caps x at 3
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let t = b.server(100.0);
        let e = b.link(s, t, 6.0);
        let j = b.commodity(s, t, 50.0, UtilityFn::throughput());
        b.uses(j, e, 1.0, 2.0);
        let p = b.build().unwrap();
        let sol = solve_linear_utility(&p).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!((sol.link_usage[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn demand_limited_when_capacity_ample() {
        let mut b = ProblemBuilder::new();
        let s = b.server(1e5);
        let t = b.server(1e5);
        let e = b.link(s, t, 1e5);
        let j = b.commodity(s, t, 7.5, UtilityFn::throughput());
        b.uses(j, e, 1.0, 1.0);
        let p = b.build().unwrap();
        let sol = solve_linear_utility(&p).unwrap();
        assert!((sol.objective - 7.5).abs() < 1e-6);
        assert!((sol.admitted[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn parallel_paths_add_up() {
        // two disjoint mid nodes, capacities 4 and 6 with unit costs
        let mut b = ProblemBuilder::new();
        let s = b.server(1e4);
        let x = b.server(4.0);
        let y = b.server(6.0);
        let t = b.server(1e4);
        let e_sx = b.link(s, x, 1e4);
        let e_sy = b.link(s, y, 1e4);
        let e_xt = b.link(x, t, 1e4);
        let e_yt = b.link(y, t, 1e4);
        let j = b.commodity(s, t, 100.0, UtilityFn::throughput());
        b.uses(j, e_sx, 1.0, 1.0)
            .uses(j, e_sy, 1.0, 1.0)
            .uses(j, e_xt, 1.0, 1.0)
            .uses(j, e_yt, 1.0, 1.0);
        let p = b.build().unwrap();
        let sol = solve_linear_utility(&p).unwrap();
        assert!(
            (sol.objective - 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(sol.max_violation(&p) < 1e-6);
    }

    #[test]
    fn weights_shift_allocation() {
        // two commodities share one node of capacity 10, unit costs;
        // weighted utility should give everything to the heavy one
        let mut b = ProblemBuilder::new();
        let s1 = b.server(1e4);
        let s2 = b.server(1e4);
        let x = b.server(10.0);
        let t1 = b.server(1e4);
        let t2 = b.server(1e4);
        let e1 = b.link(s1, x, 1e4);
        let e2 = b.link(s2, x, 1e4);
        let e3 = b.link(x, t1, 1e4);
        let e4 = b.link(x, t2, 1e4);
        let j1 = b.commodity(s1, t1, 100.0, UtilityFn::Linear { weight: 5.0 });
        let j2 = b.commodity(s2, t2, 100.0, UtilityFn::throughput());
        b.uses(j1, e1, 1.0, 1.0).uses(j1, e3, 1.0, 1.0);
        b.uses(j2, e2, 1.0, 1.0).uses(j2, e4, 1.0, 1.0);
        let p = b.build().unwrap();
        let sol = solve_linear_utility(&p).unwrap();
        // resource is charged at each edge's tail, so the shared relay x
        // pays 1 unit per admitted unit (its outgoing edge); its 10
        // units go entirely to the weight-5 commodity: objective 50
        assert!(
            (sol.objective - 50.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(sol.admitted[0] > 9.9 && sol.admitted[1] < 0.1);
    }

    #[test]
    fn rejects_nonlinear_utilities() {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 10.0);
        let j = b.commodity(s, t, 5.0, UtilityFn::log(1.0));
        b.uses(j, e, 1.0, 1.0);
        let p = b.build().unwrap();
        assert!(matches!(
            solve_linear_utility(&p),
            Err(SolveError::NotLinear { .. })
        ));
    }

    #[test]
    fn random_instances_solve_feasibly() {
        for seed in 0..5 {
            let inst = RandomInstance::builder()
                .nodes(18)
                .commodities(2)
                .seed(seed)
                .build()
                .unwrap();
            let sol = solve_linear_utility(&inst.problem).unwrap();
            assert!(sol.objective >= -1e-9);
            assert!(
                sol.max_violation(&inst.problem) < 1e-6,
                "seed {seed}: violation {}",
                sol.max_violation(&inst.problem)
            );
            // objective consistent with admitted rates (unit weights)
            let sum: f64 = sol.admitted.iter().sum();
            assert!((sum - sol.objective).abs() < 1e-6);
        }
    }

    use spn_model::UtilityFn;
}
