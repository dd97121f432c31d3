//! Marginal-cost computation `∂A/∂r_i(j)` (eq. (9)).
//!
//! For each commodity (destination) `j`, each node's marginal cost obeys
//!
//! ```text
//! ∂A/∂r_i(j) = Σ_k φ_ik(j) [ ∂A_i/∂f_ik · c^j_ik + β^j_ik · ∂A/∂r_k(j) ]
//! ```
//!
//! with `∂A/∂r_j(j) = 0` at the sink. In the protocol of §5 each node
//! waits for the value from every downstream neighbor, then broadcasts
//! its own; here (the synchronous in-process driver) that wave is one
//! sweep over the commodity's reverse topological order. The
//! message-level version of the same computation lives in `spn-sim`.
//!
//! [`compute_marginals_into`] reuses the caller's buffer (no heap
//! allocation once warm); [`compute_marginals`] is the allocating
//! convenience wrapper. Each commodity writes only its own row.

use crate::active::LiveRow;
use crate::cost::CostModel;
use crate::flows::{FlowState, UsageView};
use crate::routing::RoutingTable;
use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;
use std::ops::Range;

/// Per-commodity marginal costs `∂A/∂r_i(j)`, ragged and keyed by
/// member position (`d[ext.member_range(j)][p]`): one entry per node the
/// commodity passes through — the paper's §5 information model, where a
/// node holds `∂A/∂r_i(j)` only for the commodities it routes. A node
/// outside the commodity has no entry; [`Marginals::node`] answers
/// `0.0` there.
#[derive(Clone, Debug, PartialEq)]
pub struct Marginals {
    pub(crate) d: Vec<f64>,
}

impl Marginals {
    /// An all-zero marginal set sized for `ext`.
    #[must_use]
    pub fn zeros(ext: &ExtendedNetwork) -> Self {
        Marginals {
            d: vec![0.0; ext.member_total()],
        }
    }

    /// Builds marginals from raw per-commodity values indexed by
    /// extended node (used by the message-level simulator, which
    /// computes the same quantities from received broadcasts). Entries
    /// at nodes outside a commodity are not kept.
    ///
    /// # Panics
    ///
    /// Panics unless there is one row per commodity, each with one
    /// entry per extended node.
    #[must_use]
    pub fn from_raw(ext: &ExtendedNetwork, rows: &[Vec<f64>]) -> Self {
        assert_eq!(rows.len(), ext.num_commodities(), "one row per commodity");
        let mut d = Vec::with_capacity(ext.member_total());
        for (j, row) in ext.commodity_ids().zip(rows) {
            assert_eq!(
                row.len(),
                ext.graph().node_count(),
                "marginal row length mismatch"
            );
            d.extend(ext.commodity_member_nodes(j).iter().map(|v| row[v.index()]));
        }
        Marginals { d }
    }

    /// Resizes (and zeroes) the buffer for `ext`.
    pub(crate) fn reset(&mut self, ext: &ExtendedNetwork) {
        self.d.clear();
        self.d.resize(ext.member_total(), 0.0);
    }

    /// Drops the row of a commodity that left the network (`row` is its
    /// [`ExtendedNetwork::member_range`] from *before* the removal),
    /// preserving every survivor's values bit-for-bit — member positions
    /// do not move when another commodity leaves. Survivors are
    /// deliberately *not* recomputed: an eviction changes the shared
    /// usage totals, and the next iteration refreshes marginals from
    /// the new flows anyway; until then the pre-reshape values remain
    /// visible unchanged.
    pub(crate) fn evict(&mut self, row: Range<usize>) {
        self.d.drain(row);
    }

    /// `∂A/∂r_v(j)` (`0.0` at a node outside the commodity).
    #[must_use]
    pub fn node(&self, ext: &ExtendedNetwork, j: CommodityId, v: NodeId) -> f64 {
        ext.member_pos(j, v)
            .map_or(0.0, |p| self.d[ext.member_range(j).start + p])
    }

    /// Overwrites one marginal entry. Simulators use this to assemble
    /// the *received* view of the marginal broadcast — under message
    /// loss or staleness the value a node acts on is not the value its
    /// neighbor computed — and fault-injection tests use it to plant
    /// corruption [`check_finite`](crate::health::check_finite) must
    /// flag.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member of commodity `j` (there is no entry
    /// to write).
    pub fn set_node(&mut self, ext: &ExtendedNetwork, j: CommodityId, v: NodeId, value: f64) {
        let p = ext
            .member_pos(j, v)
            .unwrap_or_else(|| panic!("{v} carries no {j} marginal entry"));
        self.d[ext.member_range(j).start + p] = value;
    }

    /// Commodity-`j` marginal row, indexed by member position (the
    /// order of [`ExtendedNetwork::commodity_member_nodes`]) — what a
    /// caller walking [`ExtendedNetwork::members`] reads instead of one
    /// [`Marginals::node`] search per entry.
    #[must_use]
    pub fn row(&self, ext: &ExtendedNetwork, j: CommodityId) -> &[f64] {
        &self.d[ext.member_range(j)]
    }

    /// Mutable [`Marginals::row`] — for a caller that has already
    /// resolved member positions and writes a batch of entries.
    pub fn row_mut(&mut self, ext: &ExtendedNetwork, j: CommodityId) -> &mut [f64] {
        &mut self.d[ext.member_range(j)]
    }

    /// The bracketed per-link marginal of eqs. (9)/(10) for edge
    /// `l = (i, k)`:
    /// `∂A_i/∂f_il · c^j_il + β^j_il · ∂A/∂r_k(j)`.
    #[must_use]
    pub fn edge(
        &self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        state: &FlowState,
        j: CommodityId,
        l: EdgeId,
    ) -> f64 {
        let head = ext.graph().target(l);
        cost.edge_marginal(ext, state, j, l, self.node(ext, j, head))
    }
}

/// One commodity's reverse sweep of eq. (9), writing its member-position
/// row `d` (every non-sink member is overwritten; the sink entry must
/// arrive 0 and stays 0 by convention). `phi` is the commodity's
/// fraction row and `usage` the shared usage totals — the only
/// cross-commodity data the sweep reads.
pub(crate) fn marginal_sweep(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    usage: UsageView<'_>,
    j: CommodityId,
    d: &mut [f64],
) {
    let m = ext.members(j);
    let sink = ext.commodity(j).sink();
    for &p in m.topo().iter().rev() {
        let p = p as usize;
        if m.node(p) == sink {
            continue; // stays 0
        }
        let mut acc = 0.0;
        let (out, heads) = m.out_arcs(p);
        for (&l, &head) in out.iter().zip(heads) {
            let phi = phi[l.index()];
            if phi == 0.0 {
                continue;
            }
            acc += phi * cost.edge_marginal_view(ext, usage, j, l, d[head as usize]);
        }
        d[p] = acc;
    }
}

/// [`marginal_sweep`] over a commodity's live-arc row (the sparse
/// engine's marginal pass). Walks the topo router list in
/// reverse, accumulating each router's marginal from its live arcs only
/// — the dense sweep skips zero-fraction arcs, so the addition chain is
/// identical. Non-router `d` entries are *not* rewritten: they are
/// invariantly zero (the dense sweep always writes an empty sum there,
/// nothing else ever writes them), so skipping the row fill is
/// bit-identical too. For routers other than the dummy source every
/// out-edge shares the tail's resource partial, which is hoisted out of
/// the arc loop as in Γ (`partial * cost + beta * d`, never fused).
pub(crate) fn marginal_sweep_active(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    usage: UsageView<'_>,
    j: CommodityId,
    d: &mut [f64],
    row: LiveRow<'_>,
) {
    let m = ext.members(j);
    let routers = m.routers_topo();
    let mut idx = row.live;
    for r in (0..routers.len()).rev() {
        let p = routers[r] as usize;
        let n = row.lens[r] as usize;
        idx -= n;
        let live = row.span(idx, n);
        let mut acc = 0.0;
        if p == m.dummy() {
            for (l, head) in live {
                acc += phi[l.index()] * cost.edge_marginal_view(ext, usage, j, l, d[head]);
            }
        } else {
            let tail_partial = cost.node_partial_view(ext, usage, m.node(p));
            for (l, head) in live {
                acc += phi[l.index()] * (tail_partial * ext.cost(j, l) + ext.beta(j, l) * d[head]);
            }
        }
        d[p] = acc;
    }
    debug_assert_eq!(idx, 0, "live-arc prefix mismatch for {j}");
}

/// Runs the marginal-cost wave for every commodity into a caller-owned
/// buffer — the dense reference sweep, allocation-free once warm.
///
/// `_pool` is an inert shim: `None` is its only value. It exists so the
/// frozen `benchmark/` surface compiles; the next `[benchmark]` PR
/// removes it.
pub fn compute_marginals_into(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
    out: &mut Marginals,
    _pool: Option<Infallible>,
) {
    out.reset(ext);
    for j in ext.commodity_ids() {
        let d = &mut out.d[ext.member_range(j)];
        marginal_sweep(ext, cost, routing.row(j), state.usage_view(), j, d);
    }
}

/// Runs the marginal-cost wave for every commodity (eq. (9), sink
/// convention `∂A/∂r_j(j) = 0`). Allocating wrapper over
/// [`compute_marginals_into`].
#[must_use]
pub fn compute_marginals(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
) -> Marginals {
    let mut out = Marginals::zeros(ext);
    compute_marginals_into(ext, cost, routing, state, &mut out, None);
    out
}

/// Numerically verifies eq. (9) at one member node by finite
/// differences: perturbs the external input `r_v(j)` by `±h`
/// (propagating through the fixed routing) and compares the cost delta
/// with the analytic marginal; `0.0` at a node outside the commodity
/// (traffic injected there has no edge to move over). Used by tests.
#[must_use]
pub fn finite_difference_marginal(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    j: CommodityId,
    v: NodeId,
    h: f64,
) -> f64 {
    let Some(p) = ext.member_pos(j, v) else {
        return 0.0;
    };
    let at = ext.member_range(j).start + p;
    let eval = |delta: f64| -> f64 {
        // recompute flows with an extra external input `delta` at v
        let mut state = FlowState::zeros(ext);
        for jj in ext.commodity_ids() {
            let m = ext.members(jj);
            let base = ext.member_range(jj).start;
            let edges = jj.index() * state.l_count;
            state.t[base + m.dummy()] = ext.commodity(jj).max_rate;
            if jj == j {
                state.t[at] += delta;
            }
            for &p in m.topo() {
                let p = p as usize;
                let tu = state.t[base + p];
                if tu == 0.0 {
                    continue;
                }
                let (out, heads) = m.out_arcs(p);
                for (&l, &head) in out.iter().zip(heads) {
                    let phi = routing.fraction(jj, l);
                    if phi == 0.0 {
                        continue;
                    }
                    let flow = tu * phi;
                    state.x[edges + l.index()] = flow;
                    let usage = flow * ext.cost(jj, l);
                    state.f_edge[l.index()] += usage;
                    state.f_node[m.node(p).index()] += usage;
                    state.t[base + head as usize] += flow * ext.beta(jj, l);
                }
            }
        }
        cost.total_cost(ext, &state)
    };
    (eval(h) - eval(-h)) / (2.0 * h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::compute_flows;
    use spn_model::builder::ProblemBuilder;
    use spn_model::{Penalty, UtilityFn};

    fn diamond() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(30.0);
        let x = b.server(20.0);
        let y = b.server(40.0);
        let t = b.server(30.0);
        let e_sx = b.link(s, x, 15.0);
        let e_sy = b.link(s, y, 25.0);
        let e_xt = b.link(x, t, 15.0);
        let e_yt = b.link(y, t, 25.0);
        let j = b.commodity(s, t, 6.0, UtilityFn::throughput());
        b.uses(j, e_sx, 2.0, 0.8)
            .uses(j, e_sy, 1.5, 1.2)
            .uses(j, e_xt, 1.0, 1.25)
            .uses(j, e_yt, 2.5, 0.833_333_333_333_333_3);
        ExtendedNetwork::build(&b.build().unwrap())
    }

    fn cm() -> CostModel {
        CostModel::new(Penalty::default(), 0.2)
    }

    fn admitting_split(ext: &ExtendedNetwork) -> RoutingTable {
        let j = CommodityId::from_index(0);
        let mut rt = RoutingTable::initial(ext);
        rt.set_row(
            ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.6), (ext.difference_edge(j), 0.4)],
        );
        let s = ext.commodity(j).source();
        let outs: Vec<_> = ext.commodity_out_edges(j, s).collect();
        rt.set_row(ext, j, s, &[(outs[0], 0.5), (outs[1], 0.5)]);
        rt
    }

    #[test]
    fn sink_marginal_is_zero() {
        let ext = diamond();
        let rt = admitting_split(&ext);
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let j = CommodityId::from_index(0);
        assert_eq!(m.node(&ext, j, ext.commodity(j).sink()), 0.0);
    }

    #[test]
    fn marginals_match_finite_differences() {
        let ext = diamond();
        let rt = admitting_split(&ext);
        let fs = compute_flows(&ext, &rt);
        let cost = cm();
        let m = compute_marginals(&ext, &cost, &rt, &fs);
        let j = CommodityId::from_index(0);
        for v in ext.graph().nodes() {
            if v == ext.commodity(j).sink() {
                continue;
            }
            let analytic = m.node(&ext, j, v);
            let fd = finite_difference_marginal(&ext, &cost, &rt, j, v, 1e-5);
            assert!(
                (analytic - fd).abs() < 1e-5 * (1.0 + analytic.abs()),
                "node {v}: analytic {analytic} vs fd {fd}"
            );
        }
    }

    #[test]
    fn dummy_marginal_blends_admit_and_reject() {
        let ext = diamond();
        let rt = admitting_split(&ext);
        let fs = compute_flows(&ext, &rt);
        let cost = cm();
        let m = compute_marginals(&ext, &cost, &rt, &fs);
        let j = CommodityId::from_index(0);
        let dummy = ext.dummy_source(j);
        let input_m = m.edge(&ext, &cost, &fs, j, ext.input_edge(j));
        let diff_m = m.edge(&ext, &cost, &fs, j, ext.difference_edge(j));
        let blended = 0.6 * input_m + 0.4 * diff_m;
        assert!((m.node(&ext, j, dummy) - blended).abs() < 1e-12);
        // linear utility ⇒ rejecting costs exactly 1 at the margin
        assert!((diff_m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_rise_with_load() {
        let ext = diamond();
        let j = CommodityId::from_index(0);
        let cost = cm();
        let mut low = RoutingTable::initial(&ext);
        low.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.1), (ext.difference_edge(j), 0.9)],
        );
        let mut high = low.clone();
        high.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.9), (ext.difference_edge(j), 0.1)],
        );
        let fs_low = compute_flows(&ext, &low);
        let fs_high = compute_flows(&ext, &high);
        let m_low = compute_marginals(&ext, &cost, &low, &fs_low);
        let m_high = compute_marginals(&ext, &cost, &high, &fs_high);
        let s = ext.commodity(j).source();
        assert!(m_high.node(&ext, j, s) > m_low.node(&ext, j, s));
    }

    #[test]
    fn zero_flow_edges_still_have_marginals() {
        // the Γ update needs marginals on φ=0 edges (to decide whether
        // to open them); Marginals::edge must work there
        let ext = diamond();
        let rt = RoutingTable::initial(&ext); // interior all-to-one-edge
        let fs = compute_flows(&ext, &rt);
        let cost = cm();
        let m = compute_marginals(&ext, &cost, &rt, &fs);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        for l in ext.commodity_out_edges(j, s) {
            let em = m.edge(&ext, &cost, &fs, j, l);
            assert!(em.is_finite());
            assert!(em >= 0.0);
        }
    }

    #[test]
    fn into_variant_matches_fresh_on_a_reused_buffer() {
        let ext = diamond();
        let rt = admitting_split(&ext);
        let fs = compute_flows(&ext, &rt);
        let cost = cm();
        let reference = compute_marginals(&ext, &cost, &rt, &fs);
        let mut reused = Marginals::zeros(&ext);
        for _ in 0..2 {
            compute_marginals_into(&ext, &cost, &rt, &fs, &mut reused, None);
            assert_eq!(reused, reference);
        }
    }
}
