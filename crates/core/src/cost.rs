//! The relaxed objective `A = Y + ε·D` and its partial derivatives
//! w.r.t. edge resource usage (eq. (8) and eq. (11)).
//!
//! [`CostModel::total_cost`] is the definition: a fold over all `V`
//! nodes. [`CostModel::total_cost_cached`] is what the step's
//! `cost_before` probe runs: the same fold over the router union only,
//! bit-identical by the argument on [`TotalCostCache`].

use crate::flows::{FlowState, UsageView};
use spn_graph::{EdgeId, NodeId};
use spn_model::{CommodityId, Penalty};
use spn_transform::{EdgeKind, ExtendedNetwork};

/// Cost parameters: the penalty family `D`, its weight `ε`, and an
/// `ε`-independent capacity wall.
///
/// The wall exists because the paper's formulation enforces capacities
/// only through `ε·D`: as `ε → 0` (the regime where the relaxed optimum
/// approaches the true one, and the end point of annealing schedules)
/// nothing stops the fluid iterates from overshooting `C_i`. The wall
/// is a convex, smooth penalty on utilization beyond
/// [`CostModel::wall_threshold`] whose weight does *not* shrink with
/// `ε`, so capacities hold along the whole schedule. Set
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
    pub fn wall_value(&self, c: spn_model::Capacity, z: f64) -> f64 {
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
    pub fn utility_loss(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
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
    pub fn penalty_cost(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
        ext.graph()
            .nodes()
            .map(|v| self.penalty.value(ext.capacity(v), state.node_usage(v)))
            .sum()
    }

    /// Total wall cost `W = Σ_i W_i(f_i)` (zero when the wall is
    /// disabled or all loads are below the threshold).
    #[must_use]
    pub fn wall_cost(&self, ext: &ExtendedNetwork, state: &FlowState) -> f64 {
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

    /// [`CostModel::total_cost`] through a [`TotalCostCache`]: walks the
    /// router union only ([`ExtendedNetwork::router_union`]), recomputes
    /// the penalty and wall values where a union node's usage bits
    /// changed since the previous call, and folds the cached value
    /// arrays in ascending node order.
    ///
    /// **Bit-identical** to the naive scan — the proof, and the
    /// precondition it needs, are on [`TotalCostCache`]. Where the
    /// precondition does not hold (checked on every rebuild) this *is*
    /// the naive scan. The association of the three terms matches
    /// [`CostModel::total_cost`] exactly, including the wall's early
    /// zero when `wall_strength == 0`.
    pub fn total_cost_cached(
        &self,
        ext: &ExtendedNetwork,
        state: &FlowState,
        cache: &mut TotalCostCache,
    ) -> f64 {
        let usages = state.node_usages();
        let union = ext.router_union();
        let key = (
            self.penalty,
            self.wall_threshold,
            self.wall_strength,
            ext.capacity_version(),
            ext.structure_version(),
        );
        if cache.key != Some(key) || cache.usage_bits.len() != union.len() {
            if !cache.rebuild(self, ext, usages, key) {
                return self.total_cost(ext, state);
            }
        } else {
            debug_assert!(
                idle_usages_are_zero(union, usages),
                "a node outside the router union carries usage: some write to \
                 FlowState skipped TotalCostCache::invalidate"
            );
            for (k, &v) in union.iter().enumerate() {
                let z = usages[v.index()];
                if z.to_bits() != cache.usage_bits[k] {
                    let c = ext.capacity(v);
                    cache.usage_bits[k] = z.to_bits();
                    cache.penalty_vals[k] = self.penalty.value(c, z);
                    cache.wall_vals[k] = self.wall_value(c, z);
                }
            }
        }
        let penalty_sum: f64 = cache.penalty_vals.iter().sum();
        let wall_sum: f64 = if self.wall_strength == 0.0 {
            0.0
        } else {
            cache.wall_vals.iter().sum()
        };
        self.utility_loss(ext, state) + self.epsilon * penalty_sum + wall_sum
    }

    /// `∂A_i/∂f_ik` for extended edge `l = (i, k)` (eq. (11)):
    /// `U'_j(λ_j − f_l)` on commodity `j`'s dummy difference link,
    /// `ε·D'_i(f_i)` everywhere else (zero at dummy sources, whose
    /// capacity is infinite).
    #[must_use]
    pub fn edge_partial(&self, ext: &ExtendedNetwork, state: &FlowState, l: EdgeId) -> f64 {
        self.edge_partial_view(ext, state.usage_view(), l)
    }

    /// [`CostModel::edge_partial`] over a raw [`UsageView`] of the
    /// usage totals — the form the sweeps use, since a sweep only ever
    /// reads its own commodity's rows plus these shared totals.
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

/// Whether every node outside the ascending `union` holds exactly
/// `+0.0` in `usages`.
fn idle_usages_are_zero(union: &[NodeId], usages: &[f64]) -> bool {
    let mut members = union.iter().peekable();
    usages.iter().enumerate().all(|(v, z)| {
        if members.peek().is_some_and(|m| m.index() == v) {
            members.next();
            true
        } else {
            z.to_bits() == 0
        }
    })
}

/// Incremental evaluator state for [`CostModel::total_cost_cached`]:
/// per *router-union position*, the raw bits of the node's usage total
/// and the penalty / wall values computed from them.
///
/// `total_cost` is the per-step convergence probe (`cost_before` in
/// [`crate::StepStats`]), and the naive form evaluates the penalty and
/// the wall at all `V` nodes. Only routers ever carry usage, and on
/// placement-style instances they are a few percent of the nodes, so
/// the cache walks [`ExtendedNetwork::router_union`] and nothing else:
/// `O(|union|)` per call instead of `O(V)`.
///
/// ## Why skipping the idle nodes changes no bit
///
/// The naive total folds `D_v(f_v)` (and `W_v(f_v)`) over all nodes in
/// ascending order with `f64::sum`; the cache folds the same values, in
/// the same order, over the union only. [`Penalty::value`] and
/// [`CostModel::wall_value`] are pure functions of `(capacity, usage)`,
/// so the union terms are identical; what is dropped are the idle
/// nodes' terms. The rebuild below *checks* (it does not assume) that
/// every idle node holds usage `+0.0` and that both of its values are
/// zeros: `+0.0` for the reciprocal barriers (`1/C − 1/C`, `C·0/C`),
/// for the wall below its threshold and for infinite capacities,
/// `-0.0` for `LogBarrier` (`−ln(1) = −(+0.0)`).
///
/// Adding `-0.0` never changes an IEEE accumulator. Adding `+0.0`
/// changes it only when it is `-0.0` (to `+0.0`), and an accumulator is
/// `-0.0` only while every term so far was `-0.0` — `f64::sum` starts
/// from the `-0.0` identity (from `+0.0` on older toolchains, where the
/// accumulator is never `-0.0` and there is nothing to prove), and
/// `x + y = -0.0` needs both operands `-0.0`. Step both folds through
/// the full node sequence: they hold equal bits, or the naive one holds
/// `+0.0` where the union one still holds `-0.0`; the first union term
/// that is not `-0.0` makes them equal again for good (`±0.0 + x = x`
/// for `x ≠ -0.0`). Such a term always exists: the highest node id of a
/// non-empty union is a dummy source, whose infinite capacity
/// short-circuits both functions to a literal `+0.0` (also checked by
/// the rebuild). Hence equal bits at the end of the fold.
///
/// ## What keeps the precondition true
///
/// Idle nodes stay at `+0.0` because no sweep writes them and every
/// totals reduction leaves them zero (`reduce_usage_totals_tracked` in
/// `step.rs`); their values stay zeros because they depend on nothing
/// outside the key. The snapshot
/// key — penalty family, wall shape,
/// [`ExtendedNetwork::capacity_version`],
/// [`ExtendedNetwork::structure_version`] — catches parameter and
/// topology drift; a caller that lets anything else write the flow
/// state (checkpoint restore, raw state access) calls
/// [`TotalCostCache::invalidate`]. Either way the next call rebuilds
/// with one full-width pass, and a rebuild that finds the precondition
/// broken (poisoned idle usage, a wall threshold outside `[0, 1)`, no
/// commodities) caches nothing and returns the naive total, so the
/// result is exact for every input.
#[derive(Clone, Debug, Default)]
pub struct TotalCostCache {
    /// `f64::to_bits` of each union node's usage at the last evaluation.
    usage_bits: Vec<u64>,
    /// `penalty.value(capacity(v), usage(v))` per union position.
    penalty_vals: Vec<f64>,
    /// `wall_value(capacity(v), usage(v))` per union position.
    wall_vals: Vec<f64>,
    /// `(penalty, wall_threshold, wall_strength, capacity_version,
    /// structure_version)` snapshot the cached values were computed
    /// under; `None` forces a rebuild.
    key: Option<(Penalty, f64, f64, u64, u64)>,
}

impl TotalCostCache {
    /// Forces the next evaluation to rebuild (one full-width pass that
    /// re-checks the idle nodes). Call after anything other than the
    /// iteration's own sweeps wrote the usage totals.
    pub fn invalidate(&mut self) {
        self.key = None;
    }

    /// Refills the per-union arrays from `usages` while checking the
    /// precondition of the union-only fold at every other node. Returns
    /// `false` — leaving the cache invalid — when it does not hold.
    fn rebuild(
        &mut self,
        cost: &CostModel,
        ext: &ExtendedNetwork,
        usages: &[f64],
        key: (Penalty, f64, f64, u64, u64),
    ) -> bool {
        self.key = None;
        self.usage_bits.clear();
        self.penalty_vals.clear();
        self.wall_vals.clear();
        let union = ext.router_union();
        if !union.last().is_some_and(|&v| ext.capacity(v).is_infinite()) {
            return false;
        }
        let mut members = union.iter().peekable();
        for (v, &z) in usages.iter().enumerate() {
            let c = ext.capacity(NodeId::from_index(v));
            let (p, w) = (cost.penalty.value(c, z), cost.wall_value(c, z));
            if members.peek().is_some_and(|m| m.index() == v) {
                members.next();
                self.usage_bits.push(z.to_bits());
                self.penalty_vals.push(p);
                self.wall_vals.push(w);
            } else if z.to_bits() != 0 || p != 0.0 || w != 0.0 {
                return false;
            }
        }
        if members.next().is_some() {
            return false;
        }
        self.key = Some(key);
        true
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

    /// `setup()` with half the offered load admitted — the sink `t` is
    /// the one node outside the router union.
    fn half_admitted(ext: &ExtendedNetwork) -> FlowState {
        let mut rt = RoutingTable::initial(ext);
        let j = CommodityId::from_index(0);
        rt.set_row(
            ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.5), (ext.difference_edge(j), 0.5)],
        );
        compute_flows(ext, &rt)
    }

    #[test]
    fn cached_total_walks_the_union_and_matches_the_naive_scan() {
        let (ext, cm) = setup();
        let sink = ext.commodity(CommodityId::from_index(0)).sink();
        assert!(!ext.router_union().contains(&sink));
        let mut cache = TotalCostCache::default();
        for state in [
            compute_flows(&ext, &RoutingTable::initial(&ext)),
            half_admitted(&ext),
            half_admitted(&ext),
        ] {
            let cached = cm.total_cost_cached(&ext, &state, &mut cache);
            assert_eq!(cached.to_bits(), cm.total_cost(&ext, &state).to_bits());
            assert!(cache.key.is_some(), "the union fold must engage");
            assert_eq!(cache.usage_bits.len(), ext.router_union().len());
        }
    }

    /// Usage on a node outside the union breaks the fold's precondition:
    /// the rebuild must notice, answer with the naive total (which counts
    /// the poison) and cache nothing until the state is clean again.
    #[test]
    fn poisoned_idle_usage_is_counted_and_never_cached() {
        let (ext, cm) = setup();
        let sink = ext.commodity(CommodityId::from_index(0)).sink();
        let clean = half_admitted(&ext);
        let mut poisoned = clean.clone();
        poisoned.f_node[sink.index()] = 7.5;
        let mut cache = TotalCostCache::default();
        cm.total_cost_cached(&ext, &clean, &mut cache);
        // Whoever wrote the state from outside invalidates the cache.
        cache.invalidate();
        let cached = cm.total_cost_cached(&ext, &poisoned, &mut cache);
        assert_eq!(cached.to_bits(), cm.total_cost(&ext, &poisoned).to_bits());
        assert!(cached > cm.total_cost(&ext, &clean));
        assert!(
            cache.key.is_none(),
            "a broken precondition must not be cached"
        );
        let healed = cm.total_cost_cached(&ext, &clean, &mut cache);
        assert_eq!(healed.to_bits(), cm.total_cost(&ext, &clean).to_bits());
        assert!(cache.key.is_some());
    }

    /// A wall threshold below zero charges idle nodes a nonzero wall
    /// value, so there is nothing to skip: still exact, never cached.
    #[test]
    fn nonzero_idle_values_fall_back_to_the_naive_scan() {
        let (ext, mut cm) = setup();
        cm.wall_threshold = -0.5;
        let state = half_admitted(&ext);
        let mut cache = TotalCostCache::default();
        for _ in 0..2 {
            let cached = cm.total_cost_cached(&ext, &state, &mut cache);
            assert_eq!(cached.to_bits(), cm.total_cost(&ext, &state).to_bits());
            assert!(cache.key.is_none());
        }
    }

    /// The sign-of-zero corner the proof turns on: every finite-capacity
    /// `LogBarrier` term of an all-reject state is `-0.0`, the dummy
    /// source's is `+0.0`, and both folds end on `+0.0`.
    #[test]
    fn log_barrier_idle_terms_are_negative_zero_and_fold_away() {
        let (ext, mut cm) = setup();
        cm.penalty = Penalty::new(spn_model::PenaltyKind::LogBarrier, 0.95).unwrap();
        let state = compute_flows(&ext, &RoutingTable::initial(&ext));
        let sink = ext.commodity(CommodityId::from_index(0)).sink();
        let idle = cm.penalty.value(ext.capacity(sink), state.node_usage(sink));
        assert_eq!(idle.to_bits(), (-0.0f64).to_bits());
        assert_eq!(cm.penalty_cost(&ext, &state).to_bits(), 0.0f64.to_bits());
        let mut cache = TotalCostCache::default();
        let cached = cm.total_cost_cached(&ext, &state, &mut cache);
        assert_eq!(cached.to_bits(), cm.total_cost(&ext, &state).to_bits());
        assert!(cache.key.is_some());
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
        assert!((cm.edge_partial(&ext, &fs, diff) - 1.0).abs() < 1e-12);
        // admission link partial at zero load: ε·D'_dummy = 0 (infinite cap)
        let input = ext.input_edge(j);
        assert_eq!(cm.edge_partial(&ext, &fs, input), 0.0);
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
        assert!((cm.edge_partial(&ext, &fs, ingress) - expected).abs() < 1e-12);
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
        let partial = cm.edge_partial(&ext, &fs, ingress);
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
            cm.edge_partial(&ext, &fs_high, diff) > cm.edge_partial(&ext, &fs_low, diff),
            "marginal utility loss should rise with rejection"
        );
    }
}
