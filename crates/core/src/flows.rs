//! Flow balance and resource usage (eqs. (3)–(5)).
//!
//! Given a routing decision `φ` and the fixed offered loads `r` (each
//! dummy source receives `λ_j`), the node traffic rates solve
//!
//! ```text
//! t_i(j) = r_i(j) + Σ_l t_l(j) φ_li(j) β^j_li          (3)
//! ```
//!
//! which we evaluate in one pass over the commodity's topological order
//! (the positive-`φ` subgraph of a commodity is always a sub-DAG of its
//! extended subgraph). Resource usage then follows
//!
//! ```text
//! f_ik = Σ_j t_i(j) φ_ik(j) c^j_ik                     (4)
//! f_i  = Σ_{(i,k)} f_ik                                 (5)
//! ```
//!
//! (eq. (4) is printed with `t_l` in the paper — a typo for `t_i`, as in
//! Gallager's original formulation that the paper generalizes).
//!
//! Two entry points evaluate the equations: [`compute_flows`] allocates
//! a fresh [`FlowState`], while [`compute_flows_into`] reuses the
//! caller's state and an [`IterationWorkspace`] so the steady-state
//! iteration performs no heap allocation. Both produce bit-identical
//! results: each commodity accumulates its own `f_edge`/`f_node`
//! partial rows, and the partials are reduced in ascending commodity
//! order.

use crate::active::LiveRow;
use crate::routing::RoutingTable;
use crate::workspace::IterationWorkspace;
use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;

/// Traffic and resource-usage rates induced by a routing decision.
///
/// The per-commodity traffic rows are **ragged and keyed by member
/// position**: commodity `j`'s row is `t[ext.member_range(j)]`, one
/// entry per node of [`ExtendedNetwork::commodity_member_nodes`] —
/// `Σ_j members_j` entries in all, none for a node the commodity never
/// touches (its traffic there is `0.0` by definition, which is what
/// [`FlowState::traffic`] answers). The per-commodity edge rows are
/// flat and row-major (`[commodity][edge]`).
#[derive(Clone, Debug, PartialEq)]
pub struct FlowState {
    /// `t[member_range(j)][p]` — commodity-`j` traffic rate at its
    /// member `p` (in that node's input units), eq. (3).
    pub(crate) t: Vec<f64>,
    /// `x[j·L + l]` — commodity-`j` input flow routed over extended edge
    /// `l`: `t_i(j)·φ_il(j)` (input units of the tail node).
    pub(crate) x: Vec<f64>,
    /// `f_edge[l]` — total resource usage rate on edge `l` across all
    /// commodities, eq. (4).
    pub(crate) f_edge: Vec<f64>,
    /// `f_node[v]` — total resource usage rate at node `v`, eq. (5).
    pub(crate) f_node: Vec<f64>,
    pub(crate) l_count: usize,
}

/// Borrowed view of the cross-commodity usage totals `f_edge`/`f_node` —
/// the only [`FlowState`] data the per-commodity sweeps share. The step
/// rewrites the totals only between its flow and marginal phases, so a
/// sweep can hold this view while its commodity's own rows are written.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UsageView<'a> {
    /// Total resource usage per extended edge, eq. (4).
    pub(crate) f_edge: &'a [f64],
    /// Total resource usage per extended node, eq. (5).
    pub(crate) f_node: &'a [f64],
}

impl FlowState {
    /// An all-zero state sized for `ext`.
    #[must_use]
    pub fn zeros(ext: &ExtendedNetwork) -> Self {
        let l_count = ext.graph().edge_count();
        FlowState {
            t: vec![0.0; ext.member_total()],
            x: vec![0.0; ext.num_commodities() * l_count],
            f_edge: vec![0.0; l_count],
            f_node: vec![0.0; ext.graph().node_count()],
            l_count,
        }
    }

    /// Builds a state from per-commodity nested rows indexed by extended
    /// node / edge (used by the message-level simulator, which assembles
    /// the same quantities from received forecasts). Traffic entries at
    /// nodes outside a commodity are not kept.
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent with `ext`.
    #[must_use]
    pub fn from_nested(
        ext: &ExtendedNetwork,
        t: &[Vec<f64>],
        x: &[Vec<f64>],
        f_edge: Vec<f64>,
        f_node: Vec<f64>,
    ) -> Self {
        let v_count = f_node.len();
        let l_count = f_edge.len();
        assert_eq!(t.len(), x.len(), "t and x must have one row per commodity");
        assert_eq!(t.len(), ext.num_commodities(), "one row per commodity");
        let mut flat_t = Vec::with_capacity(ext.member_total());
        for (j, row) in ext.commodity_ids().zip(t) {
            assert_eq!(row.len(), v_count, "traffic row length mismatch");
            flat_t.extend(ext.commodity_member_nodes(j).iter().map(|v| row[v.index()]));
        }
        let mut flat_x = Vec::with_capacity(x.len() * l_count);
        for row in x {
            assert_eq!(row.len(), l_count, "edge-flow row length mismatch");
            flat_x.extend_from_slice(row);
        }
        FlowState {
            t: flat_t,
            x: flat_x,
            f_edge,
            f_node,
            l_count,
        }
    }

    /// Whether the buffers have the lengths `ext` calls for.
    pub(crate) fn fits(&self, ext: &ExtendedNetwork) -> bool {
        self.t.len() == ext.member_total()
            && self.x.len() == ext.num_commodities() * ext.graph().edge_count()
    }

    /// Resizes (and zeroes) the buffers for `ext`. No-op allocation-wise
    /// when the dimensions already match and only `fill` is needed.
    pub(crate) fn reset(&mut self, ext: &ExtendedNetwork) {
        self.l_count = ext.graph().edge_count();
        self.t.clear();
        self.t.resize(ext.member_total(), 0.0);
        self.x.clear();
        self.x.resize(ext.num_commodities() * self.l_count, 0.0);
        self.f_edge.clear();
        self.f_edge.resize(self.l_count, 0.0);
        self.f_node.clear();
        self.f_node.resize(ext.graph().node_count(), 0.0);
    }

    /// Commodity-`j` traffic rate at `v` (`0.0` at a node the commodity
    /// has no edge at).
    #[must_use]
    pub fn traffic(&self, ext: &ExtendedNetwork, j: CommodityId, v: NodeId) -> f64 {
        ext.member_pos(j, v)
            .map_or(0.0, |p| self.t[ext.member_range(j).start + p])
    }

    /// Commodity-`j` input flow over edge `l`.
    #[must_use]
    pub fn edge_flow(&self, j: CommodityId, l: EdgeId) -> f64 {
        self.x[j.index() * self.l_count + l.index()]
    }

    /// Total resource usage on edge `l` (all commodities).
    #[must_use]
    pub fn edge_usage(&self, l: EdgeId) -> f64 {
        self.f_edge[l.index()]
    }

    /// Total resource usage at node `v`.
    #[must_use]
    pub fn node_usage(&self, v: NodeId) -> f64 {
        self.f_node[v.index()]
    }

    /// The full per-node usage vector `f` (extended node order).
    #[must_use]
    pub fn node_usages(&self) -> &[f64] {
        &self.f_node
    }

    /// The shared usage totals as a [`UsageView`].
    pub(crate) fn usage_view(&self) -> UsageView<'_> {
        UsageView {
            f_edge: &self.f_edge,
            f_node: &self.f_node,
        }
    }

    /// Commodity-`j` traffic row, indexed by member position.
    pub(crate) fn t_row(&self, ext: &ExtendedNetwork, j: CommodityId) -> &[f64] {
        &self.t[ext.member_range(j)]
    }

    /// Mutable access to one traffic entry — a corruption hook for tests
    /// that verify the balance residual flags inconsistent states.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member of commodity `j` (there is no entry
    /// to hand out).
    #[doc(hidden)]
    pub fn traffic_mut(&mut self, ext: &ExtendedNetwork, j: CommodityId, v: NodeId) -> &mut f64 {
        let p = ext
            .member_pos(j, v)
            .unwrap_or_else(|| panic!("{v} carries no {j} traffic entry"));
        &mut self.t[ext.member_range(j).start + p]
    }

    /// Admitted rate `a_j`: the flow on the dummy input link.
    #[must_use]
    pub fn admitted(&self, ext: &ExtendedNetwork, j: CommodityId) -> f64 {
        self.edge_flow(j, ext.input_edge(j))
    }

    /// Rejected rate `λ_j − a_j`: the flow on the dummy difference link.
    #[must_use]
    pub fn rejected(&self, ext: &ExtendedNetwork, j: CommodityId) -> f64 {
        self.edge_flow(j, ext.difference_edge(j))
    }

    /// Data rate of *real* (non-rejected) commodity-`j` traffic arriving
    /// at the sink. By Property 1 this equals `a_j · g_j(sink)`.
    #[must_use]
    pub fn delivered(&self, ext: &ExtendedNetwork, j: CommodityId) -> f64 {
        let sink = ext.commodity(j).sink();
        let diff = ext.difference_edge(j);
        ext.commodity_in_edges(j, sink)
            .filter(|&l| l != diff)
            .map(|l| self.edge_flow(j, l) * ext.beta(j, l))
            .sum()
    }
}

/// One commodity's forward sweep of eqs. (3)–(5): fills the traffic row
/// `t`, the edge-flow row `x`, and the commodity's *partial* resource
/// usage rows. `phi` is the commodity's fraction row (indexed once per
/// edge — the routing table's nested lookup is too hot here); `t` and
/// `f_node` are member-position rows, `x` and `f_edge` edge rows. All
/// rows are caller-zeroed and disjoint per commodity.
pub(crate) fn flow_sweep(
    ext: &ExtendedNetwork,
    phi: &[f64],
    j: CommodityId,
    t: &mut [f64],
    x: &mut [f64],
    f_edge: &mut [f64],
    f_node: &mut [f64],
) {
    let m = ext.members(j);
    t[m.dummy()] = ext.commodity(j).max_rate;
    for &p in m.topo() {
        let p = p as usize;
        let tv = t[p];
        if tv == 0.0 {
            continue;
        }
        let (out, heads) = m.out_arcs(p);
        for (&l, &head) in out.iter().zip(heads) {
            let phi = phi[l.index()];
            if phi == 0.0 {
                continue;
            }
            let flow = tv * phi;
            x[l.index()] = flow;
            let usage = flow * ext.cost(j, l);
            f_edge[l.index()] += usage;
            f_node[p] += usage;
            t[head as usize] += flow * ext.beta(j, l);
        }
    }
}

/// [`flow_sweep`] over a commodity's live-arc row (the sparse engine's
/// flow pass). `row` is the commodity's row of
/// [`LiveArcSweeps`](crate::LiveArcSweeps): per topo-router live
/// out-degrees, the live arcs themselves (grouped by router in
/// topological order with CSR sub-order) and the member position of
/// each arc's head. Since the
/// dense sweep skips zero-traffic tails and zero-fraction arcs, walking
/// exactly the nonzero-fraction arcs in the same order performs the
/// identical sequence of float operations — bit-identical rows, a
/// fraction of the memory traffic.
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn flow_sweep_active(
    ext: &ExtendedNetwork,
    phi: &[f64],
    j: CommodityId,
    t: &mut [f64],
    x: &mut [f64],
    f_edge: &mut [f64],
    f_node: &mut [f64],
    row: LiveRow<'_>,
) {
    let m = ext.members(j);
    t[m.dummy()] = ext.commodity(j).max_rate;
    let mut idx = 0usize;
    for (r, &p) in m.routers_topo().iter().enumerate() {
        let n = row.lens[r] as usize;
        let live = row.span(idx, n);
        idx += n;
        let p = p as usize;
        let tv = t[p];
        if tv == 0.0 {
            continue;
        }
        for (l, head) in live {
            let phi = phi[l.index()];
            debug_assert!(phi != 0.0, "live arc {l} with zero fraction");
            let flow = tv * phi;
            x[l.index()] = flow;
            let usage = flow * ext.cost(j, l);
            f_edge[l.index()] += usage;
            f_node[p] += usage;
            t[head] += flow * ext.beta(j, l);
        }
    }
}

/// Adds the per-commodity usage partials into the (caller-zeroed)
/// totals, in ascending commodity order (edge partial then node partial
/// per commodity) — the one float-addition order every path shares, so
/// totals are bit-identical however the partials were produced. The
/// edge partials are `L`-wide rows; the node partials are
/// member-position rows, scattered to their nodes.
pub(crate) fn accumulate_usage_totals(
    ext: &ExtendedNetwork,
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
) {
    let l_count = fe_tot.len();
    for j in ext.commodity_ids() {
        let fe = &fe_part[j.index() * l_count..(j.index() + 1) * l_count];
        for (acc, &p) in fe_tot.iter_mut().zip(fe) {
            *acc += p;
        }
        let fnode = &fn_part[ext.member_range(j)];
        for (&v, &p) in ext.commodity_member_nodes(j).iter().zip(fnode) {
            fn_tot[v.index()] += p;
        }
    }
}

/// Evaluates eqs. (3)–(5) into caller-owned buffers — the dense
/// reference sweep, allocation-free in steady state. Every commodity
/// writes its own rows, and the per-commodity `f_edge`/`f_node` partials
/// are reduced in ascending commodity order (each partial entry is a
/// complete per-commodity sum, so the reduction order is the only order
/// there is).
///
/// `_pool` is an inert shim: `None` is its only value. It exists so the
/// frozen `benchmark/` surface compiles; the next `[benchmark]` PR
/// removes it.
pub fn compute_flows_into(
    ext: &ExtendedNetwork,
    routing: &RoutingTable,
    state: &mut FlowState,
    ws: &mut IterationWorkspace,
    _pool: Option<Infallible>,
) {
    state.reset(ext);
    ws.ensure(ext);
    let l_count = state.l_count;
    ws.f_edge_part.fill(0.0);
    ws.f_node_part.fill(0.0);

    for j in ext.commodity_ids() {
        let edges = j.index() * l_count..(j.index() + 1) * l_count;
        let members = ext.member_range(j);
        flow_sweep(
            ext,
            routing.row(j),
            j,
            &mut state.t[members.clone()],
            &mut state.x[edges.clone()],
            &mut ws.f_edge_part[edges],
            &mut ws.f_node_part[members],
        );
    }

    accumulate_usage_totals(
        ext,
        &mut state.f_edge,
        &mut state.f_node,
        &ws.f_edge_part,
        &ws.f_node_part,
    );
}

/// Evaluates eqs. (3)–(5) for the given routing decision.
///
/// The offered load is the paper's `r`: commodity `j` arrives at its
/// dummy source at the fixed rate `λ_j` (eq. (2)); all other external
/// inputs are zero. Allocating convenience wrapper over
/// [`compute_flows_into`].
#[must_use]
pub fn compute_flows(ext: &ExtendedNetwork, routing: &RoutingTable) -> FlowState {
    let mut state = FlowState::zeros(ext);
    let mut ws = IterationWorkspace::new(ext);
    compute_flows_into(ext, routing, &mut state, &mut ws, None);
    state
}

/// Maximum absolute flow-balance residual of eq. (3) over all
/// commodities and their member nodes — a verification helper used by
/// tests and debug assertions (`compute_flows` satisfies it by
/// construction; the solver's outputs are checked against the same
/// residual). A node outside a commodity has no traffic entry and no
/// inflow, so its residual is identically zero and it is not visited.
/// Pure iterator reductions: no per-call collections.
#[must_use]
pub fn balance_residual(ext: &ExtendedNetwork, routing: &RoutingTable, state: &FlowState) -> f64 {
    let mut worst: f64 = 0.0;
    for j in ext.commodity_ids() {
        let m = ext.members(j);
        let t = state.t_row(ext, j);
        let sink = ext.commodity(j).sink();
        for (p, &v) in m.nodes().iter().enumerate() {
            if v == sink {
                continue;
            }
            let r = if p == m.dummy() {
                ext.commodity(j).max_rate
            } else {
                0.0
            };
            let (into, tails) = m.in_arcs(p);
            let inflow: f64 = into
                .iter()
                .zip(tails)
                .map(|(&l, &tail)| t[tail as usize] * routing.fraction(j, l) * ext.beta(j, l))
                .sum();
            worst = worst.max((t[p] - r - inflow).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::UtilityFn;
    use spn_transform::ExtendedNetwork;

    /// s → x → t with β = 0.5 then 2.0, costs 2 and 3.
    fn chain_ext() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(100.0);
        let t = b.server(100.0);
        let e1 = b.link(s, x, 50.0);
        let e2 = b.link(x, t, 50.0);
        let j = b.commodity(s, t, 8.0, UtilityFn::throughput());
        b.uses(j, e1, 2.0, 0.5).uses(j, e2, 3.0, 2.0);
        ExtendedNetwork::build(&b.build().unwrap())
    }

    fn fully_admitting(ext: &ExtendedNetwork) -> RoutingTable {
        let mut rt = RoutingTable::initial(ext);
        for j in ext.commodity_ids() {
            let dummy = ext.dummy_source(j);
            rt.set_row(
                ext,
                j,
                dummy,
                &[(ext.input_edge(j), 1.0), (ext.difference_edge(j), 0.0)],
            );
        }
        rt
    }

    #[test]
    fn shrinkage_propagates_through_chain() {
        let ext = chain_ext();
        let rt = fully_admitting(&ext);
        let fs = compute_flows(&ext, &rt);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        let sink = ext.commodity(j).sink();
        // a = λ = 8; at x: 8·0.5 = 4; at sink: 4·2 = 8
        assert!((fs.admitted(&ext, j) - 8.0).abs() < 1e-12);
        assert!((fs.traffic(&ext, j, s) - 8.0).abs() < 1e-12);
        assert!((fs.traffic(&ext, j, sink) - 8.0).abs() < 1e-12);
        assert!((fs.delivered(&ext, j) - 8.0).abs() < 1e-12);
        assert_eq!(fs.rejected(&ext, j), 0.0);
    }

    #[test]
    fn resource_usage_charges_the_tail() {
        let ext = chain_ext();
        let rt = fully_admitting(&ext);
        let fs = compute_flows(&ext, &rt);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        // source spends c=2 per unit on 8 units = 16
        assert!((fs.node_usage(s) - 16.0).abs() < 1e-12);
        // first bandwidth node carries 8·0.5 = 4 units at c=1
        let bw0 = spn_graph::NodeId::from_index(3);
        assert!((fs.node_usage(bw0) - 4.0).abs() < 1e-12);
        // middle server x processes 4 units at c=3 = 12
        let x = spn_graph::NodeId::from_index(1);
        assert!((fs.node_usage(x) - 12.0).abs() < 1e-12);
        // sink spends nothing
        assert_eq!(fs.node_usage(ext.commodity(j).sink()), 0.0);
    }

    #[test]
    fn full_rejection_loads_nothing() {
        let ext = chain_ext();
        let rt = RoutingTable::initial(&ext);
        let fs = compute_flows(&ext, &rt);
        let j = CommodityId::from_index(0);
        assert_eq!(fs.admitted(&ext, j), 0.0);
        assert!((fs.rejected(&ext, j) - 8.0).abs() < 1e-12);
        assert_eq!(fs.delivered(&ext, j), 0.0);
        // only the dummy node consumes (virtual) resource
        for v in ext.graph().nodes() {
            if v != ext.dummy_source(j) {
                assert_eq!(fs.node_usage(v), 0.0, "node {v} loaded");
            }
        }
    }

    #[test]
    fn split_routing_balances() {
        // diamond with a 60/40 split
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(100.0);
        let y = b.server(100.0);
        let t = b.server(100.0);
        let e_sx = b.link(s, x, 50.0);
        let e_sy = b.link(s, y, 50.0);
        let e_xt = b.link(x, t, 50.0);
        let e_yt = b.link(y, t, 50.0);
        let j = b.commodity(s, t, 10.0, UtilityFn::throughput());
        b.uses(j, e_sx, 1.0, 1.0)
            .uses(j, e_sy, 1.0, 1.0)
            .uses(j, e_xt, 1.0, 1.0)
            .uses(j, e_yt, 1.0, 1.0);
        let ext = ExtendedNetwork::build(&b.build().unwrap());
        let mut rt = fully_admitting(&ext);
        let j = CommodityId::from_index(0);
        let src = ext.commodity(j).source();
        let outs: Vec<_> = ext.commodity_out_edges(j, src).collect();
        rt.set_row(&ext, j, src, &[(outs[0], 0.6), (outs[1], 0.4)]);
        let fs = compute_flows(&ext, &rt);
        assert!((fs.delivered(&ext, j) - 10.0).abs() < 1e-9);
        assert!(balance_residual(&ext, &rt, &fs) < 1e-9);
        // x and y see the split
        let xv = spn_graph::NodeId::from_index(1);
        let yv = spn_graph::NodeId::from_index(2);
        assert!((fs.traffic(&ext, j, xv) - 6.0).abs() < 1e-9);
        assert!((fs.traffic(&ext, j, yv) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn balance_residual_flags_corruption() {
        let ext = chain_ext();
        let rt = fully_admitting(&ext);
        let mut fs = compute_flows(&ext, &rt);
        assert!(balance_residual(&ext, &rt, &fs) < 1e-12);
        *fs.traffic_mut(
            &ext,
            CommodityId::from_index(0),
            spn_graph::NodeId::from_index(1),
        ) += 1.0;
        assert!(balance_residual(&ext, &rt, &fs) > 0.5);
    }

    #[test]
    fn into_variant_reuses_buffers_bit_identically() {
        let ext = chain_ext();
        let rt = fully_admitting(&ext);
        let reference = compute_flows(&ext, &rt);
        let mut state = FlowState::zeros(&ext);
        let mut ws = IterationWorkspace::new(&ext);
        for _ in 0..3 {
            compute_flows_into(&ext, &rt, &mut state, &mut ws, None);
            assert_eq!(state, reference);
        }
    }

    #[test]
    fn partial_admission() {
        let ext = chain_ext();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        let dummy = ext.dummy_source(j);
        rt.set_row(
            &ext,
            j,
            dummy,
            &[(ext.input_edge(j), 0.25), (ext.difference_edge(j), 0.75)],
        );
        let fs = compute_flows(&ext, &rt);
        assert!((fs.admitted(&ext, j) - 2.0).abs() < 1e-12);
        assert!((fs.rejected(&ext, j) - 6.0).abs() < 1e-12);
        assert!((fs.delivered(&ext, j) - 2.0).abs() < 1e-12);
    }
}
