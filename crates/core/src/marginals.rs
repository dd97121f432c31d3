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

use crate::cost::CostModel;
use crate::flows::{FlowState, UsageView};
use crate::routing::RoutingTable;
use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;

/// Per-commodity, per-node marginal costs `∂A/∂r_i(j)`, stored as one
/// flat row-major buffer (`d[j·V + v]`).
#[derive(Clone, Debug, PartialEq)]
pub struct Marginals {
    pub(crate) d: Vec<f64>,
    pub(crate) v_count: usize,
}

impl Marginals {
    /// An all-zero marginal set sized for `ext`.
    #[must_use]
    pub fn zeros(ext: &ExtendedNetwork) -> Self {
        let v_count = ext.graph().node_count();
        Marginals {
            d: vec![0.0; ext.num_commodities() * v_count],
            v_count,
        }
    }

    /// Builds marginals from raw per-commodity per-node values (used by
    /// the message-level simulator, which computes the same quantities
    /// from received broadcasts).
    ///
    /// # Panics
    ///
    /// Panics if the per-commodity rows have unequal lengths.
    #[must_use]
    pub fn from_raw(rows: Vec<Vec<f64>>) -> Self {
        let v_count = rows.first().map_or(0, Vec::len);
        let mut d = Vec::with_capacity(rows.len() * v_count);
        for row in &rows {
            assert_eq!(row.len(), v_count, "marginal row length mismatch");
            d.extend_from_slice(row);
        }
        Marginals { d, v_count }
    }

    /// Resizes (and zeroes) the buffer for `ext`.
    pub(crate) fn reset(&mut self, ext: &ExtendedNetwork) {
        self.v_count = ext.graph().node_count();
        self.d.clear();
        self.d.resize(ext.num_commodities() * self.v_count, 0.0);
    }

    /// Restrides after commodity row `jr` and its dummy source (node
    /// column `d`) left the network: drops that row and column while
    /// preserving every survivor's values bit-for-bit. Survivors are
    /// deliberately *not* recomputed — an eviction changes the shared
    /// usage totals, and the next iteration refreshes marginals from
    /// the new flows anyway; until then the pre-reshape values remain
    /// visible unchanged. The dropped column holds zeros for survivors
    /// (a foreign dummy is outside their subgraphs).
    pub(crate) fn evict(&mut self, jr: usize, d: usize) {
        let old_v = self.v_count;
        let old_rows = self.d.len() / old_v;
        debug_assert!(jr < old_rows && d < old_v);
        let mut w = 0;
        for ji in 0..old_rows {
            if ji == jr {
                continue;
            }
            for vi in 0..old_v {
                if vi == d {
                    debug_assert_eq!(
                        self.d[ji * old_v + vi],
                        0.0,
                        "survivor marginal nonzero at a foreign dummy"
                    );
                    continue;
                }
                self.d[w] = self.d[ji * old_v + vi];
                w += 1;
            }
        }
        self.d.truncate(w);
        self.v_count = old_v - 1;
    }

    /// `∂A/∂r_v(j)`.
    #[must_use]
    pub fn node(&self, j: CommodityId, v: NodeId) -> f64 {
        self.d[j.index() * self.v_count + v.index()]
    }

    /// Overwrites one marginal entry. Simulators use this to assemble
    /// the *received* view of the marginal broadcast — under message
    /// loss or staleness the value a node acts on is not the value its
    /// neighbor computed — and fault-injection tests use it to plant
    /// corruption the watchdog must flag.
    pub fn set_node(&mut self, j: CommodityId, v: NodeId, value: f64) {
        self.d[j.index() * self.v_count + v.index()] = value;
    }

    /// Commodity-`j` marginal row, indexed by extended node.
    pub(crate) fn row(&self, j: CommodityId) -> &[f64] {
        &self.d[j.index() * self.v_count..(j.index() + 1) * self.v_count]
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
        cost.edge_marginal(ext, state, j, l, self.node(j, head))
    }
}

/// One commodity's reverse sweep of eq. (9), writing its row `d`
/// (every non-sink reachable node is overwritten; the sink entry must
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
    let sink = ext.commodity(j).sink();
    for &v in ext.topo_order(j).iter().rev() {
        if v == sink {
            continue; // stays 0
        }
        let mut acc = 0.0;
        for &l in ext.commodity_out_slice(j, v) {
            let phi = phi[l.index()];
            if phi == 0.0 {
                continue;
            }
            let head = ext.graph().target(l);
            acc += phi * cost.edge_marginal_view(ext, usage, j, l, d[head.index()]);
        }
        d[v.index()] = acc;
    }
}

/// [`marginal_sweep`] over a commodity's live-arc sub-list (the
/// active-set engine's marginal pass). Walks the topo router list in
/// reverse, accumulating each router's marginal from its live arcs only
/// — the dense sweep skips zero-fraction arcs, so the addition chain is
/// identical. Non-router `d` entries are *not* rewritten: they are
/// invariantly zero (the dense sweep always writes an empty sum there,
/// nothing else ever writes them), so skipping the row fill is
/// bit-identical too. For routers other than the dummy source every
/// out-edge shares the tail's resource partial, which is hoisted out of
/// the arc loop as in Γ (`partial * cost + beta * d`, never fused).
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn marginal_sweep_active(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    usage: UsageView<'_>,
    j: CommodityId,
    d: &mut [f64],
    arc_len: &[u32],
    arcs: &[EdgeId],
    live: usize,
) {
    let routers = ext.commodity_routers_topo(j);
    let dummy = ext.dummy_source(j);
    let mut idx = live;
    for r in (0..routers.len()).rev() {
        let v = routers[r];
        let n = arc_len[r] as usize;
        idx -= n;
        let row = &arcs[idx..idx + n];
        let mut acc = 0.0;
        if v == dummy {
            for &l in row {
                let head = ext.graph().target(l);
                acc += phi[l.index()] * cost.edge_marginal_view(ext, usage, j, l, d[head.index()]);
            }
        } else {
            let tail_partial = cost.node_partial_view(ext, usage, v);
            for &l in row {
                let head = ext.graph().target(l);
                acc += phi[l.index()]
                    * (tail_partial * ext.cost(j, l) + ext.beta(j, l) * d[head.index()]);
            }
        }
        d[v.index()] = acc;
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
    let v_count = out.v_count;
    for (ji, d) in out.d.chunks_mut(v_count.max(1)).enumerate() {
        let j = CommodityId::from_index(ji);
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

/// Numerically verifies eq. (9) at one node by finite differences:
/// perturbs the external input `r_v(j)` by `±h` (propagating through the
/// fixed routing) and compares the cost delta with the analytic
/// marginal. Used by tests.
#[must_use]
pub fn finite_difference_marginal(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    j: CommodityId,
    v: NodeId,
    h: f64,
) -> f64 {
    let eval = |delta: f64| -> f64 {
        // recompute flows with an extra external input `delta` at v
        let v_count = ext.graph().node_count();
        let l_count = ext.graph().edge_count();
        let j_count = ext.num_commodities();
        let mut t = vec![vec![0.0; v_count]; j_count];
        let mut f_edge = vec![0.0; l_count];
        let mut f_node = vec![0.0; v_count];
        let mut x = vec![vec![0.0; l_count]; j_count];
        for jj in ext.commodity_ids() {
            let ji = jj.index();
            t[ji][ext.dummy_source(jj).index()] = ext.commodity(jj).max_rate;
            if jj == j {
                t[ji][v.index()] += delta;
            }
            for &u in ext.topo_order(jj) {
                let tu = t[ji][u.index()];
                if tu == 0.0 {
                    continue;
                }
                for l in ext.commodity_out_edges(jj, u) {
                    let phi = routing.fraction(jj, l);
                    if phi == 0.0 {
                        continue;
                    }
                    let flow = tu * phi;
                    x[ji][l.index()] = flow;
                    let usage = flow * ext.cost(jj, l);
                    f_edge[l.index()] += usage;
                    f_node[u.index()] += usage;
                    t[ji][ext.graph().target(l).index()] += flow * ext.beta(jj, l);
                }
            }
        }
        let state = FlowState::from_nested(&t, &x, f_edge, f_node);
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
        assert_eq!(m.node(j, ext.commodity(j).sink()), 0.0);
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
            let analytic = m.node(j, v);
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
        assert!((m.node(j, dummy) - blended).abs() < 1e-12);
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
        assert!(m_high.node(j, s) > m_low.node(j, s));
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
