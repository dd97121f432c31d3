//! Live-arc compaction: the sparse iteration engine's sweeps
//! (`GradientConfig::sparsity`) and the region mesh's.
//!
//! Γ drives most routing fractions to exactly zero, and every dense
//! sweep skips a zero-fraction arc. A commodity's *live arcs* are its
//! arcs with `φ ≠ 0`, listed per topo router in CSR sub-order; a sweep
//! over that list performs the dense sweep's float operations in the
//! dense order over a fraction of the memory, so it is bit-identical to
//! the dense sweep (ARCHITECTURE invariants 14 and 17).
//!
//! [`LiveArcSweeps`] owns the table. It is sized once per commodity
//! *structure* — the sizing key is
//! [`ExtendedNetwork::structure_version`], because an evict followed by
//! an admit can restore the commodity, node and edge counts while moving
//! every per-commodity extent — and maintenance afterwards is
//! allocation-free (ARCHITECTURE invariant 15). A row is rebuilt only
//! when its routing row's *support* (which fractions are nonzero)
//! changes: the sparse steps rebuild on Γ's support flag, other writers
//! mark the row stale. Every commodity runs every sweep on every call;
//! nothing is skipped but the zero-fraction arcs.

use crate::blocked::{tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::FlowState;
use crate::marginals::{marginal_sweep_active, Marginals};
use crate::routing::RoutingTable;
use crate::step::{flow_pass_active, reduce_usage_totals};
use crate::workspace::{sizing_key, IterationWorkspace, SizingKey};
use spn_graph::EdgeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;

/// One commodity's live-arc row, borrowed: per topo-router live
/// out-degrees, the live arcs, their heads' member positions (both rows
/// filled up to `live`), and the live total.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LiveRow<'a> {
    pub(crate) lens: &'a [u32],
    pub(crate) arcs: &'a [EdgeId],
    pub(crate) heads: &'a [u32],
    pub(crate) live: usize,
}

impl<'a> LiveRow<'a> {
    /// The `n` live arcs starting at `at`, each with its head's member
    /// position.
    pub(crate) fn span(&self, at: usize, n: usize) -> impl Iterator<Item = (EdgeId, usize)> + 'a {
        let arcs = self.arcs[at..at + n].iter();
        arcs.zip(&self.heads[at..at + n])
            .map(|(&l, &head)| (l, head as usize))
    }
}

/// The live-arc table and the three per-iteration sweeps of eqs.
/// (3)–(5), (9) and (18) — marginal wave, blocking tags, flow forecast —
/// over it, for callers that drive the phases themselves (the region
/// mesh runs them on different transport ticks). Each method runs every
/// commodity and is bit-identical to its dense counterpart
/// ([`compute_marginals_into`], [`compute_tags_into`],
/// [`compute_flows_into`]) over the live arcs instead of every member
/// arc. The sparse gradient and Newton steps use the same table with
/// their own per-commodity schedule.
///
/// **Staleness contract.** The live-arc table is derived from the
/// routing table's *support* — which fractions are nonzero — not from
/// its values. Whoever changes which fractions of commodity `j` are zero
/// must call [`mark_stale`](Self::mark_stale) (or
/// [`mark_all_stale`](Self::mark_all_stale)) before the next sweep; a
/// write that only moves values on the support the row already has
/// needs no mark. Every sweep rebuilds stale rows first and
/// debug-asserts the table against the routing it was handed.
///
/// **Zero-entry contract.** The sweeps write router entries and member
/// edges only, so the output buffers must hold what the dense sweeps
/// leave at a commodity's other members (its sink) and on foreign edges
/// — `0.0` / `false` — which is true of buffers produced by the dense
/// functions, by this type, or by the constructors (`zeros`, `none`),
/// and of copies of such buffers.
///
/// Rows use uniform strides (`router_stride`, `arc_stride` — the maxima
/// over commodities of the router and arc counts).
///
/// [`compute_marginals_into`]: crate::marginals::compute_marginals_into
/// [`compute_tags_into`]: crate::blocked::compute_tags_into
/// [`compute_flows_into`]: crate::flows::compute_flows_into
#[derive(Clone, Debug, Default)]
pub struct LiveArcSweeps {
    router_stride: usize,
    arc_stride: usize,
    /// `arc_len[ji * router_stride + r]` — live out-degree of the
    /// `r`-th topo router of commodity `ji`.
    arc_len: Vec<u32>,
    /// `arcs[ji * arc_stride ..]` — the live arcs, grouped by router in
    /// topo order, CSR sub-order within a router.
    arcs: Vec<EdgeId>,
    /// Member position of the head of each `arcs` entry, so a sweep
    /// reaches the head's traffic / marginal / tag entry with no lookup.
    heads: Vec<u32>,
    /// Total live arcs per commodity (the filled prefix of its row).
    live: Vec<usize>,
    /// Row must be rebuilt before its next use.
    stale: Vec<bool>,
    sized_for: Option<SizingKey>,
}

impl LiveArcSweeps {
    /// A sweep set sized for `ext`, every live-arc row stale.
    #[must_use]
    pub fn new(ext: &ExtendedNetwork) -> Self {
        let mut sweeps = LiveArcSweeps::default();
        sweeps.ensure(ext);
        sweeps
    }

    /// Commodity `j`'s routing row changed which fractions are zero:
    /// rebuild its live arcs before the next sweep.
    pub fn mark_stale(&mut self, j: CommodityId) {
        self.stale[j.index()] = true;
    }

    /// The whole routing table was replaced (a checkpoint restore).
    pub fn mark_all_stale(&mut self) {
        self.stale.fill(true);
    }

    /// Whether every non-stale live-arc row equals the `φ ≠ 0` filter of
    /// its routing row — the invariant each sweep relies on after its
    /// rebuild (test and debug-assert hook).
    #[must_use]
    pub fn is_consistent(&self, ext: &ExtendedNetwork, routing: &RoutingTable) -> bool {
        ext.commodity_ids().all(|j| {
            if self.stale[j.index()] {
                return true;
            }
            let row = self.row(j);
            let phi = routing.row(j);
            let m = ext.members(j);
            let mut idx = 0usize;
            for (r, &p) in m.routers_topo().iter().enumerate() {
                let (out, heads) = m.out_arcs(p as usize);
                let expect = out.iter().zip(heads).filter(|(l, _)| phi[l.index()] != 0.0);
                let n = row.lens[r] as usize;
                if idx + n > row.live
                    || !expect.eq(row.arcs[idx..idx + n].iter().zip(&row.heads[idx..idx + n]))
                {
                    return false;
                }
                idx += n;
            }
            idx == row.live
        })
    }

    /// Re-sizes on a structure change (uniform strides = the maxima over
    /// commodities), leaving every row stale.
    fn ensure(&mut self, ext: &ExtendedNetwork) {
        let key = sizing_key(ext);
        if self.sized_for == Some(key) {
            return;
        }
        let j_count = ext.num_commodities();
        self.router_stride = ext
            .commodity_ids()
            .map(|j| ext.commodity_routers(j).len())
            .max()
            .unwrap_or(0);
        self.arc_stride = ext
            .commodity_ids()
            .map(|j| ext.commodity_router_arc_total(j))
            .max()
            .unwrap_or(0);
        self.arc_len.clear();
        self.arc_len.resize(j_count * self.router_stride, 0);
        self.arcs.clear();
        self.arcs
            .resize(j_count * self.arc_stride, EdgeId::from_index(0));
        self.heads.clear();
        self.heads.resize(j_count * self.arc_stride, 0);
        self.live.clear();
        self.live.resize(j_count, 0);
        self.stale.clear();
        self.stale.resize(j_count, true);
        self.sized_for = Some(key);
    }

    /// Sizes the table for `ext` and rebuilds every stale row from
    /// `routing`.
    pub(crate) fn refresh(&mut self, ext: &ExtendedNetwork, routing: &RoutingTable) {
        self.ensure(ext);
        for j in ext.commodity_ids() {
            if self.stale[j.index()] {
                self.rebuild(ext, j, routing.row(j));
            }
        }
        debug_assert!(
            self.is_consistent(ext, routing),
            "live-arc table out of date: a write that moved a fraction across zero skipped mark_stale"
        );
    }

    /// Rebuilds commodity `j`'s live-arc row from its fraction row: the
    /// `phi != 0` arcs of each topo router, CSR sub-order.
    pub(crate) fn rebuild(&mut self, ext: &ExtendedNetwork, j: CommodityId, phi: &[f64]) {
        let ji = j.index();
        let lens = &mut self.arc_len[ji * self.router_stride..(ji + 1) * self.router_stride];
        let arcs = &mut self.arcs[ji * self.arc_stride..(ji + 1) * self.arc_stride];
        let heads = &mut self.heads[ji * self.arc_stride..(ji + 1) * self.arc_stride];
        let m = ext.members(j);
        let mut idx = 0usize;
        for (r, &p) in m.routers_topo().iter().enumerate() {
            let start = idx;
            let (out, out_heads) = m.out_arcs(p as usize);
            for (&l, &head) in out.iter().zip(out_heads) {
                if phi[l.index()] != 0.0 {
                    arcs[idx] = l;
                    heads[idx] = head;
                    idx += 1;
                }
            }
            lens[r] = (idx - start) as u32;
        }
        self.live[ji] = idx;
        self.stale[ji] = false;
    }

    /// The live-arc row of commodity `j`.
    pub(crate) fn row(&self, j: CommodityId) -> LiveRow<'_> {
        let ji = j.index();
        let arcs = ji * self.arc_stride..(ji + 1) * self.arc_stride;
        LiveRow {
            lens: &self.arc_len[ji * self.router_stride..(ji + 1) * self.router_stride],
            arcs: &self.arcs[arcs.clone()],
            heads: &self.heads[arcs],
            live: self.live[ji],
        }
    }

    /// The marginal-cost wave (eq. (9)) for every commodity;
    /// bit-identical to [`compute_marginals_into`].
    ///
    /// [`compute_marginals_into`]: crate::marginals::compute_marginals_into
    pub fn marginals_into(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        routing: &RoutingTable,
        state: &FlowState,
        out: &mut Marginals,
    ) {
        self.refresh(ext, routing);
        if out.d.len() != ext.member_total() {
            out.reset(ext);
        }
        for j in ext.commodity_ids() {
            marginal_sweep_active(
                ext,
                cost,
                routing.row(j),
                state.usage_view(),
                j,
                &mut out.d[ext.member_range(j)],
                self.row(j),
            );
        }
    }

    /// The blocking tags (eq. (18)) for every commodity; bit-identical
    /// to [`compute_tags_into`].
    ///
    /// [`compute_tags_into`]: crate::blocked::compute_tags_into
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
    pub fn tags_into(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        routing: &RoutingTable,
        state: &FlowState,
        marginals: &Marginals,
        eta: f64,
        traffic_floor: f64,
        out: &mut BlockedTags,
    ) {
        self.refresh(ext, routing);
        if out.tagged.len() != ext.member_total() {
            out.reset(ext);
        }
        for j in ext.commodity_ids() {
            let row = &mut out.tagged[ext.member_range(j)];
            row.fill(false);
            tag_sweep_active(
                ext,
                cost,
                routing.row(j),
                state.t_row(ext, j),
                state.usage_view(),
                marginals.row(ext, j),
                eta,
                traffic_floor,
                j,
                row,
                self.row(j),
            );
        }
    }

    /// The flow forecast (eqs. (3)–(5)) for every commodity;
    /// bit-identical to [`compute_flows_into`].
    ///
    /// [`compute_flows_into`]: crate::flows::compute_flows_into
    pub fn flows_into(
        &mut self,
        ext: &ExtendedNetwork,
        routing: &RoutingTable,
        state: &mut FlowState,
        ws: &mut IterationWorkspace,
    ) {
        self.refresh(ext, routing);
        if !state.fits(ext) {
            state.reset(ext);
        }
        ws.ensure(ext);
        for j in ext.commodity_ids() {
            flow_pass_active(ext, routing.row(j), j, state, ws, self.row(j));
        }
        // no stored totals to trust: zero the nodes full width
        reduce_usage_totals(ext, state, ws, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::UtilityFn;

    fn ext() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let x = b.server(10.0);
        let t = b.server(10.0);
        let e1 = b.link(s, x, 5.0);
        let e2 = b.link(x, t, 5.0);
        let j = b.commodity(s, t, 2.0, UtilityFn::throughput());
        b.uses(j, e1, 1.0, 1.0).uses(j, e2, 1.0, 1.0);
        ExtendedNetwork::build(&b.build().unwrap())
    }

    /// The phase-split sweeps against the dense free functions over a
    /// hand-driven trajectory (sweeps → Γ → flows, as the mesh splits
    /// it): every buffer bit-equal, whole arrays, every iteration.
    #[test]
    fn live_arc_sweeps_match_the_dense_functions() {
        use crate::blocked::compute_tags_into;
        use crate::flows::compute_flows_into;
        use crate::gamma::apply_gamma;
        use crate::marginals::compute_marginals_into;
        use spn_model::random::RandomInstance;

        let instance = RandomInstance::builder()
            .nodes(24)
            .commodities(3)
            .seed(7)
            .build()
            .unwrap();
        let ext = ExtendedNetwork::build(&instance.problem);
        let cost = CostModel::new(spn_model::Penalty::default(), 0.2);
        let (eta, floor) = (0.1, 1e-9);

        let mut routing = RoutingTable::initial(&ext);
        let (mut dense_ws, mut live_ws) =
            (IterationWorkspace::new(&ext), IterationWorkspace::new(&ext));
        let (mut dense_flows, mut live_flows) = (FlowState::zeros(&ext), FlowState::zeros(&ext));
        let (mut dense_d, mut live_d) = (Marginals::zeros(&ext), Marginals::zeros(&ext));
        let (mut dense_tags, mut live_tags) = (BlockedTags::none(&ext), BlockedTags::none(&ext));
        let mut sweeps = LiveArcSweeps::new(&ext);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for it in 0..60 {
            compute_flows_into(&ext, &routing, &mut dense_flows, &mut dense_ws, None);
            sweeps.flows_into(&ext, &routing, &mut live_flows, &mut live_ws);
            assert_eq!(bits(&dense_flows.t), bits(&live_flows.t), "t at {it}");
            assert_eq!(bits(&dense_flows.x), bits(&live_flows.x), "x at {it}");
            assert_eq!(bits(&dense_flows.f_edge), bits(&live_flows.f_edge));
            assert_eq!(bits(&dense_flows.f_node), bits(&live_flows.f_node));

            compute_marginals_into(&ext, &cost, &routing, &dense_flows, &mut dense_d, None);
            sweeps.marginals_into(&ext, &cost, &routing, &live_flows, &mut live_d);
            assert_eq!(bits(&dense_d.d), bits(&live_d.d), "marginals at {it}");

            compute_tags_into(
                &ext,
                &cost,
                &routing,
                &dense_flows,
                &dense_d,
                eta,
                floor,
                &mut dense_tags,
                None,
            );
            sweeps.tags_into(
                &ext,
                &cost,
                &routing,
                &live_flows,
                &live_d,
                eta,
                floor,
                &mut live_tags,
            );
            assert_eq!(dense_tags, live_tags, "tags at {it}");

            apply_gamma(
                &ext,
                &cost,
                &mut routing,
                &dense_flows,
                &dense_d,
                &dense_tags,
                eta,
                floor,
                0.05,
                0.02,
            );
            sweeps.mark_all_stale();
            assert!(sweeps.is_consistent(&ext, &routing));
        }
        assert!(
            dense_flows.admitted(&ext, CommodityId::from_index(0)) > 0.0,
            "the trajectory never left the all-reject start"
        );
    }

    /// A routing write without a stale mark is what `is_consistent`
    /// (and the sweeps' debug assert) exists to catch.
    #[test]
    fn an_unmarked_routing_write_is_inconsistent() {
        let ext = ext();
        let j = CommodityId::from_index(0);
        let mut routing = RoutingTable::initial(&ext);
        let mut sweeps = LiveArcSweeps::new(&ext);
        let mut flows = FlowState::zeros(&ext);
        let mut ws = IterationWorkspace::new(&ext);
        sweeps.flows_into(&ext, &routing, &mut flows, &mut ws);
        assert!(sweeps.is_consistent(&ext, &routing));
        // admit everything: the support moves off the difference link
        routing.set_fraction(j, ext.input_edge(j), 1.0);
        routing.set_fraction(j, ext.difference_edge(j), 0.0);
        assert!(!sweeps.is_consistent(&ext, &routing));
        sweeps.mark_stale(j);
        assert!(sweeps.is_consistent(&ext, &routing));
        sweeps.flows_into(&ext, &routing, &mut flows, &mut ws);
        assert!(sweeps.is_consistent(&ext, &routing));
        assert_eq!(flows.rejected(&ext, j), 0.0);
    }

    #[test]
    fn rebuild_collects_exactly_the_nonzero_arcs() {
        let ext = ext();
        let mut sweeps = LiveArcSweeps::new(&ext);
        let j = CommodityId::from_index(0);
        let routing = crate::routing::RoutingTable::initial(&ext);
        sweeps.rebuild(&ext, j, routing.row(j));
        let row = sweeps.row(j);
        let mut idx = 0usize;
        for (r, v) in ext.commodity_routers_topo(j).enumerate() {
            let expect: Vec<_> = ext
                .commodity_out_slice(j, v)
                .iter()
                .copied()
                .filter(|&l| routing.fraction(j, l) != 0.0)
                .collect();
            assert_eq!(row.lens[r] as usize, expect.len(), "router {v}");
            assert_eq!(&row.arcs[idx..idx + expect.len()], &expect[..]);
            for (&l, &head) in expect.iter().zip(&row.heads[idx..]) {
                let head = ext.commodity_member_nodes(j)[head as usize];
                assert_eq!(ext.graph().target(l), head, "head of {l}");
            }
            idx += expect.len();
        }
        assert_eq!(row.live, idx);
        assert!(!sweeps.stale[0]);
    }
}
