//! The relaxed objective `A = Y + ε·D` and its partial derivatives
//! w.r.t. edge resource usage (eq. (8) and eq. (11)).
//!
//! [`CostModel::total_cost`] is the one definition of `A`: a fold over
//! all `V` nodes, read on demand (`Report::cost`, or
//! `cost_model().total_cost(ext, flows)`). The step never evaluates it —
//! as in §5, no node prices the whole network; the step only needs the
//! partials, which every sweep evaluates locally.

use crate::flows::{FlowState, UsageView};
use spn_graph::{EdgeId, NodeId};
use spn_model::{CommodityId, Penalty};
use spn_transform::{EdgeKind, ExtendedNetwork};

/// Cost parameters: the penalty family `D`, its weight `ε`, and an
/// `ε`-independent capacity wall.
///
/// The wall exists because the paper's formulation enforces capacities
/// only through `ε·D`: as `ε → 0` (the regime where the relaxed optimum
/// approaches the true one) nothing stops the fluid iterates from
/// overshooting `C_i`. The wall is a convex, smooth penalty on
/// utilization beyond [`CostModel::wall_threshold`] whose weight does
/// *not* shrink with `ε`, so capacities hold at every ε. Set
/// `wall_strength = 0.0` for the paper's literal objective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// The per-node capacity penalty `D_i`.
    pub penalty: Penalty,
    /// The paper's tunable penalty weight `ε` (0.2 in §6).
    pub epsilon: f64,
    /// Utilization fraction beyond which the wall activates.
    pub wall_threshold: f64,
    /// Wall scale `K`: the wall derivative is
    /// `K·((u − θ)/(1 − θ))²` for utilization `u > θ` (zero below).
    pub wall_strength: f64,
}

impl CostModel {
    /// A cost model with the default wall (`θ = 0.95`, `K = 4`): a soft
    /// shoulder whose marginal reaches `K` at full utilization — enough
    /// to outweigh the unit marginal utility of the evaluation setup
    /// before `u = 1`, gentle enough not to create a new cliff.
    #[must_use]
    pub fn new(penalty: Penalty, epsilon: f64) -> Self {
        CostModel {
            penalty,
            epsilon,
            wall_threshold: 0.95,
            wall_strength: 4.0,
        }
    }

    /// Wall penalty value at load `z` on capacity `c`.
    #[must_use]
    pub(crate) fn wall_value(&self, c: spn_model::Capacity, z: f64) -> f64 {
        if self.wall_strength == 0.0 || c.is_infinite() {
            return 0.0;
        }
        let cap = c.value();
        let theta = self.wall_threshold;
        let s = (z / cap - theta) / (1.0 - theta);
        if s <= 0.0 {
            0.0
        } else {
            // ∫ K·s² dz with ds/dz = 1/(cap·(1−θ))
            self.wall_strength * cap * (1.0 - theta) * s * s * s / 3.0
        }
    }

    /// Wall penalty derivative `W'(z)`.
    #[must_use]
    pub fn wall_derivative(&self, c: spn_model::Capacity, z: f64) -> f64 {
        if self.wall_strength == 0.0 || c.is_infinite() {
            return 0.0;
        }
        let cap = c.value();
        let theta = self.wall_threshold;
        let s = (z / cap - theta) / (1.0 - theta);
        if s <= 0.0 {
            0.0
        } else {
            self.wall_strength * s * s
        }
    }
    /// Total utility-loss cost `Y = Σ_j Y_j(λ_j − a_j)` (eq. (1)).
    #[must_use]
    pub(crate) fn utility_loss(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
        ext.commodity_ids()
            .map(|j| {
                let c = ext.commodity(j);
                let rejected = state.rejected(ext, j).clamp(0.0, c.max_rate);
                c.utility.value(c.max_rate) - c.utility.value(c.max_rate - rejected)
            })
            .sum()
    }

    /// Total penalty cost `D = Σ_i D_i(f_i)` (unweighted).
    #[must_use]
    pub(crate) fn penalty_cost(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
        ext.graph()
            .nodes()
            .map(|v| self.penalty.value(ext.capacity(v), state.node_usage(v)))
            .sum()
    }

    /// Total wall cost `W = Σ_i W_i(f_i)` (zero when the wall is
    /// disabled or all loads are below the threshold).
    #[must_use]
    pub(crate) fn wall_cost(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
        if self.wall_strength == 0.0 {
            return 0.0;
        }
        ext.graph()
            .nodes()
            .map(|v| self.wall_value(ext.capacity(v), state.node_usage(v)))
            .sum()
    }

    /// The relaxed objective `A = Y + ε·D + W` the distributed
    /// algorithm minimizes (`W = 0` with the wall disabled, recovering
    /// the paper's `A = Y + ε·D`).
    #[must_use]
    pub fn total_cost(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
        self.utility_loss(ext, state)
            + self.epsilon * self.penalty_cost(ext, state)
            + self.wall_cost(ext, state)
    }

    /// `∂A_i/∂f_ik` for extended edge `l = (i, k)` (eq. (11)):
    /// `U'_j(λ_j − f_l)` on commodity `j`'s dummy difference link,
    /// `ε·D'_i(f_i)` everywhere else (zero at dummy sources, whose
    /// capacity is infinite). It reads a raw [`UsageView`] of the usage
    /// totals, since a sweep only ever reads its own commodity's rows
    /// plus these shared totals.
    pub(crate) fn edge_partial_view(
        &self,
        ext: &ExtendedNetwork,
        usage: UsageView<'_>,
        l: EdgeId,
    ) -> f64 {
        match ext.edge_kind(l) {
            EdgeKind::DummyDifference(j) => {
                let c = ext.commodity(j);
                let rejected = usage.f_edge[l.index()].clamp(0.0, c.max_rate);
                c.utility.derivative(c.max_rate - rejected)
            }
            _ => {
                let tail = ext.graph().source(l);
                let cap = ext.capacity(tail);
                let load = usage.f_node[tail.index()];
                self.epsilon * self.penalty.derivative(cap, load) + self.wall_derivative(cap, load)
            }
        }
    }

    /// The non-dummy-difference branch of [`CostModel::edge_partial_view`]
    /// keyed on the tail node `v` directly: `ε·D'_v(f_v)` plus the wall
    /// term. Every out-edge of a router other than the dummy source takes
    /// this branch with the same tail, so sparse sweeps hoist it out of
    /// the per-edge loop — the hoisted product/sum below must stay the
    /// exact expression of the per-edge path for bit-identity.
    pub(crate) fn node_partial_view(
        &self,
        ext: &ExtendedNetwork,
        usage: UsageView<'_>,
        v: NodeId,
    ) -> f64 {
        let cap = ext.capacity(v);
        let load = usage.f_node[v.index()];
        self.epsilon * self.penalty.derivative(cap, load) + self.wall_derivative(cap, load)
    }

    /// Marginal cost of pushing one more unit of commodity-`j` input
    /// over edge `l`, given the downstream marginals `d_a_d_r[head]`:
    /// the bracketed term of eqs. (9)/(10),
    /// `∂A_i/∂f_il · c^j_il + β^j_il · ∂A/∂r_head(j)`.
    #[must_use]
    pub fn edge_marginal(
        &self,
        ext: &ExtendedNetwork,
        state: &FlowState,
        j: CommodityId,
        l: EdgeId,
        downstream_marginal: f64,
    ) -> f64 {
        self.edge_marginal_view(ext, state.usage_view(), j, l, downstream_marginal)
    }

    /// [`CostModel::edge_marginal`] over a raw [`UsageView`] of the
    /// usage totals (see [`CostModel::edge_partial_view`]).
    pub(crate) fn edge_marginal_view(
        &self,
        ext: &ExtendedNetwork,
        usage: UsageView<'_>,
        j: CommodityId,
        l: EdgeId,
        downstream_marginal: f64,
    ) -> f64 {
        self.edge_partial_view(ext, usage, l) * ext.cost(j, l)
            + ext.beta(j, l) * downstream_marginal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::compute_flows;
    use crate::routing::RoutingTable;
    use spn_model::builder::ProblemBuilder;
    use spn_model::UtilityFn;

    fn setup() -> (ExtendedNetwork, CostModel) {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 5.0);
        let j = b.commodity(s, t, 4.0, UtilityFn::throughput());
        b.uses(j, e, 2.0, 1.0);
        let ext = ExtendedNetwork::build(&b.build().unwrap());
        let cm = CostModel::new(Penalty::default(), 0.2);
        (ext, cm)
    }

    #[test]
    fn full_rejection_costs_full_utility_loss() {
        let (ext, cm) = setup();
        let rt = RoutingTable::initial(&ext);
        let fs = compute_flows(&ext, &rt);
        // linear utility: Y = U(λ) − U(0) = 4
        assert!((cm.utility_loss(&ext, &fs) - 4.0).abs() < 1e-12);
        assert_eq!(cm.penalty_cost(&ext, &fs), 0.0);
        assert!((cm.total_cost(&ext, &fs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn admission_trades_loss_for_penalty() {
        let (ext, cm) = setup();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        rt.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.5), (ext.difference_edge(j), 0.5)],
        );
        let fs = compute_flows(&ext, &rt);
        assert!((cm.utility_loss(&ext, &fs) - 2.0).abs() < 1e-12);
        assert!(cm.penalty_cost(&ext, &fs) > 0.0);
        let total = cm.total_cost(&ext, &fs);
        assert!(
            total > 2.0 && total < 4.0,
            "cost {total} should improve on rejection"
        );
    }

    #[test]
    fn difference_link_partial_is_marginal_utility() {
        let (ext, cm) = setup();
        let rt = RoutingTable::initial(&ext);
        let fs = compute_flows(&ext, &rt);
        let j = CommodityId::from_index(0);
        let diff = ext.difference_edge(j);
        // linear utility ⇒ U' = 1 everywhere
        assert!((cm.edge_partial_view(&ext, fs.usage_view(), diff) - 1.0).abs() < 1e-12);
        // admission link partial at zero load: ε·D'_dummy = 0 (infinite cap)
        let input = ext.input_edge(j);
        assert_eq!(cm.edge_partial_view(&ext, fs.usage_view(), input), 0.0);
    }

    #[test]
    fn interior_partial_uses_penalty_derivative() {
        let (ext, cm) = setup();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        rt.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 1.0), (ext.difference_edge(j), 0.0)],
        );
        let fs = compute_flows(&ext, &rt);
        let s = ext.commodity(j).source();
        let ingress = ext.commodity_out_edges(j, s).next().unwrap();
        let expected = 0.2 * cm.penalty.derivative(ext.capacity(s), fs.node_usage(s));
        assert!((cm.edge_partial_view(&ext, fs.usage_view(), ingress) - expected).abs() < 1e-12);
        assert!(expected > 0.0);
    }

    #[test]
    fn edge_marginal_combines_cost_and_downstream() {
        let (ext, cm) = setup();
        let rt = RoutingTable::initial(&ext);
        let fs = compute_flows(&ext, &rt);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        let ingress = ext.commodity_out_edges(j, s).next().unwrap();
        let partial = cm.edge_partial_view(&ext, fs.usage_view(), ingress);
        // c = 2, β = 1, downstream marginal 0.3
        let m = cm.edge_marginal(&ext, &fs, j, ingress, 0.3);
        assert!((m - (partial * 2.0 + 0.3)).abs() < 1e-12);
    }

    #[test]
    fn wall_is_zero_below_threshold_and_convex_above() {
        let cm = CostModel::new(Penalty::default(), 0.2);
        let c = spn_model::Capacity::finite(10.0).unwrap();
        let theta = cm.wall_threshold;
        // inactive below the threshold
        assert_eq!(cm.wall_value(c, 10.0 * theta - 0.01), 0.0);
        assert_eq!(cm.wall_derivative(c, 10.0 * theta - 0.01), 0.0);
        // convex increasing above, growing past the capacity
        let mut prev_v = 0.0;
        let mut prev_d = 0.0;
        for i in 1..=40 {
            let z = 10.0 * theta + i as f64 * 0.05;
            let v = cm.wall_value(c, z);
            let d = cm.wall_derivative(c, z);
            assert!(
                v >= prev_v && d >= prev_d,
                "wall not convex increasing at {z}"
            );
            prev_v = v;
            prev_d = d;
        }
        // derivative reaches K at full utilization
        assert!((cm.wall_derivative(c, 10.0) - cm.wall_strength).abs() < 1e-9);
    }

    #[test]
    fn wall_derivative_matches_finite_difference() {
        let cm = CostModel::new(Penalty::default(), 0.2);
        let c = spn_model::Capacity::finite(7.0).unwrap();
        let h = 1e-6;
        for i in 0..30 {
            let z = 6.3 + i as f64 * 0.05; // spans the threshold
            let fd = (cm.wall_value(c, z + h) - cm.wall_value(c, z - h)) / (2.0 * h);
            let an = cm.wall_derivative(c, z);
            assert!(
                (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                "z={z}: {an} vs {fd}"
            );
        }
    }

    #[test]
    fn disabled_wall_recovers_paper_objective() {
        let mut cm = CostModel::new(Penalty::default(), 0.2);
        cm.wall_strength = 0.0;
        let c = spn_model::Capacity::finite(5.0).unwrap();
        assert_eq!(cm.wall_value(c, 10.0), 0.0);
        assert_eq!(cm.wall_derivative(c, 10.0), 0.0);
        // dummy nodes always free
        let cm2 = CostModel::new(Penalty::default(), 0.2);
        assert_eq!(cm2.wall_value(spn_model::Capacity::INFINITE, 1e9), 0.0);
    }

    #[test]
    fn concave_utility_rising_marginal_loss() {
        // with log utility, rejecting more makes the next rejected unit
        // costlier: U'(λ − x) grows with x
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 5.0);
        let j = b.commodity(s, t, 4.0, UtilityFn::log(1.0));
        b.uses(j, e, 1.0, 1.0);
        let ext = ExtendedNetwork::build(&b.build().unwrap());
        let cm = CostModel::new(Penalty::default(), 0.2);
        let diff = ext.difference_edge(CommodityId::from_index(0));
        let rt_low = {
            let mut rt = RoutingTable::initial(&ext);
            rt.set_row(
                &ext,
                CommodityId::from_index(0),
                ext.dummy_source(CommodityId::from_index(0)),
                &[
                    (ext.input_edge(CommodityId::from_index(0)), 0.9),
                    (diff, 0.1),
                ],
            );
            rt
        };
        let fs_low = compute_flows(&ext, &rt_low);
        let fs_high = compute_flows(&ext, &RoutingTable::initial(&ext));
        assert!(
            cm.edge_partial_view(&ext, fs_high.usage_view(), diff)
                > cm.edge_partial_view(&ext, fs_low.usage_view(), diff),
            "marginal utility loss should rise with rejection"
        );
    }
}
