//! Active-set bookkeeping for the sparsity-aware iteration engine
//! (`GradientConfig::sparsity`).
//!
//! Near convergence most routing rows stop moving: Γ reproduces the
//! same fractions bit-for-bit and the usage totals it would feed back
//! are unchanged. The structures here track exactly that — which
//! commodities must re-run their tag/Γ/flow chain this iteration, which
//! must re-run their marginal sweep, and the per-commodity *live arc*
//! sub-lists (arcs with nonzero fraction) that the sparse sweeps iterate
//! instead of the full topological order.
//!
//! Soundness of every skip reduces to one induction: a pass may be
//! skipped only when re-running it would reproduce its outputs
//! bit-for-bit, which holds when all of its inputs are bitwise-unchanged
//! *and* its previous run made no change (Γ is a `φ → φ'` map, so "no
//! change" is part of the input-unchanged condition). Anything that
//! mutates algorithm state behind the tracker's back — checkpoints
//! restored, capacities edited, η changes — calls
//! [`ActiveSet::invalidate`], which forces one fully dense iteration.
//!
//! All buffers are sized once in [`ActiveSet::ensure`]; maintenance
//! afterwards is allocation-free (ARCHITECTURE invariant 15). "Once"
//! means once per commodity *structure*: the sizing key is
//! [`ExtendedNetwork::structure_version`], because an evict followed by
//! an admit can restore the commodity, node and edge counts while
//! moving every per-commodity extent. The saved usage totals the
//! changed-totals test compares against are kept per edge and per
//! *router-union position*
//! ([`ExtendedNetwork::router_union`]) — idle nodes are never copied,
//! zeroed or compared (see `reduce_usage_totals_tracked` in `step.rs`).
//!
//! [`LiveArcSweeps`] is the public, skip-free face of the same live-arc
//! table: the three sweeps as separately callable phases for callers
//! (the region mesh) whose iteration is split across transport ticks.

use crate::blocked::{tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::FlowState;
use crate::marginals::{marginal_sweep_active, Marginals};
use crate::routing::RoutingTable;
use crate::step::{accumulate_usage_totals_scoped, flow_pass_active};
use crate::workspace::{sizing_key, IterationWorkspace, SizingKey};
use spn_graph::EdgeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;

/// Per-commodity live-arc sub-lists in CSR form over
/// [`ExtendedNetwork::commodity_routers_topo`].
///
/// Rows use uniform strides (`router_stride`, `arc_stride` — the maxima
/// over commodities of the router and arc counts).
#[derive(Clone, Debug, Default)]
pub(crate) struct ActiveArcs {
    pub(crate) router_stride: usize,
    pub(crate) arc_stride: usize,
    /// `arc_len[ji * router_stride + r]` — live out-degree of the
    /// `r`-th topo router of commodity `ji`.
    pub(crate) arc_len: Vec<u32>,
    /// `arcs[ji * arc_stride ..]` — the live arcs, grouped by router in
    /// topo order, CSR sub-order within a router.
    pub(crate) arcs: Vec<EdgeId>,
    /// Member position of the head of each `arcs` entry, so a sweep
    /// reaches the head's traffic / marginal / tag entry with no lookup.
    pub(crate) heads: Vec<u32>,
    /// Total live arcs per commodity (the filled prefix of its row).
    pub(crate) live: Vec<usize>,
    /// Row must be rebuilt before its next use (set by invalidation;
    /// support changes rebuild eagerly instead).
    pub(crate) stale: Vec<bool>,
}

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

impl ActiveArcs {
    /// Sizes the table for `ext`'s shape (uniform strides = the maxima
    /// over commodities) and marks every row stale.
    pub(crate) fn resize(&mut self, ext: &ExtendedNetwork) {
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
    }

    /// The live-arc row of commodity `ji`.
    pub(crate) fn row(&self, ji: usize) -> LiveRow<'_> {
        let arcs = ji * self.arc_stride..(ji + 1) * self.arc_stride;
        LiveRow {
            lens: &self.arc_len[ji * self.router_stride..(ji + 1) * self.router_stride],
            arcs: &self.arcs[arcs.clone()],
            heads: &self.heads[arcs],
            live: self.live[ji],
        }
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
}

/// The three per-iteration sweeps of eqs. (3)–(5), (9) and (18) —
/// marginal wave, blocking tags, flow forecast — run over per-commodity
/// *live-arc* lists (arcs with `φ ≠ 0`) instead of the full topological
/// order, for callers that drive the phases themselves (the region mesh
/// runs one per transport tick). Every commodity runs every call: this
/// is the sparse engine's kernels without its skip algebra, so each
/// method is bit-identical to its dense counterpart
/// ([`compute_marginals_into`], [`compute_tags_into`],
/// [`compute_flows_into`]) over the live arcs instead of every member
/// arc.
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
/// [`compute_marginals_into`]: crate::marginals::compute_marginals_into
/// [`compute_tags_into`]: crate::blocked::compute_tags_into
/// [`compute_flows_into`]: crate::flows::compute_flows_into
#[derive(Clone, Debug, Default)]
pub struct LiveArcSweeps {
    arcs: ActiveArcs,
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
        self.arcs.stale[j.index()] = true;
    }

    /// The whole routing table was replaced (a checkpoint restore).
    pub fn mark_all_stale(&mut self) {
        self.arcs.stale.fill(true);
    }

    /// Whether every non-stale live-arc row equals the `φ ≠ 0` filter of
    /// its routing row — the invariant each sweep relies on after its
    /// rebuild (test and debug-assert hook).
    #[must_use]
    pub fn is_consistent(&self, ext: &ExtendedNetwork, routing: &RoutingTable) -> bool {
        ext.commodity_ids().all(|j| {
            if self.arcs.stale[j.index()] {
                return true;
            }
            let row = self.arcs.row(j.index());
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

    /// Re-sizes on a structure change, leaving every row stale.
    fn ensure(&mut self, ext: &ExtendedNetwork) {
        let key = sizing_key(ext);
        if self.sized_for != Some(key) {
            self.arcs.resize(ext);
            self.sized_for = Some(key);
        }
    }

    /// Rebuilds every stale row from `routing`.
    fn refresh(&mut self, ext: &ExtendedNetwork, routing: &RoutingTable) {
        self.ensure(ext);
        for j in ext.commodity_ids() {
            if self.arcs.stale[j.index()] {
                self.arcs.rebuild(ext, j, routing.row(j));
            }
        }
        debug_assert!(
            self.is_consistent(ext, routing),
            "live-arc table out of date: a write that moved a fraction across zero skipped mark_stale"
        );
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
                self.arcs.row(j.index()),
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
                self.arcs.row(j.index()),
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
            flow_pass_active(ext, routing.row(j), j, state, ws, self.arcs.row(j.index()));
        }
        // Skip-free: no saved copy to compare against, so zero both
        // totals full-width and accumulate.
        state.f_edge.fill(0.0);
        state.f_node.fill(0.0);
        accumulate_usage_totals_scoped(
            ext,
            &mut state.f_edge,
            &mut state.f_node,
            &ws.f_edge_part,
            &ws.f_node_part,
        );
    }
}

/// The activity tracker: dirty flags carried across iterations, change
/// flags produced within one, the previous usage totals for the exact
/// bitwise changed-totals test, the live-arc sub-lists, and the
/// preallocated dirty list the step iterates.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActiveSet {
    /// Commodity must run tags + Γ this iteration (its φ moved last
    /// run, the shared totals moved, or an invalidation forced it).
    pub(crate) chain_dirty: Vec<bool>,
    /// Commodity must run its flow pass even if Γ reproduces φ
    /// bit-for-bit — set by invalidation, when the persistent workspace
    /// partial rows or `FlowState` rows can no longer be trusted.
    pub(crate) flow_dirty: Vec<bool>,
    /// Output of this iteration's Γ: any fraction bit changed.
    pub(crate) phi_changed: Vec<bool>,
    /// This iteration ran the commodity's flow pass.
    pub(crate) flow_ran: Vec<bool>,
    /// Usage totals of the previous iteration, for the bitwise
    /// changed-totals test: every edge, and the nodes of
    /// [`ExtendedNetwork::router_union`] by union position (the only
    /// nodes the tracked reduction rewrites).
    pub(crate) prev_f_edge: Vec<f64>,
    pub(crate) prev_f_union: Vec<f64>,
    /// Treat totals as changed this iteration regardless of the
    /// comparison (set by invalidation).
    pub(crate) force_totals: bool,
    /// Commodities whose chain runs this iteration (compacted from
    /// `chain_dirty` — phase A walks *this*, not `0..J`).
    pub(crate) dirty_list: Vec<u32>,
    pub(crate) arcs: ActiveArcs,
    sized_for: Option<SizingKey>,
}

impl ActiveSet {
    /// Sizes every buffer for `ext`'s commodity structure; re-entry
    /// with the same structure is a cheap no-op that preserves all
    /// tracking state. Any resize invalidates (the first iteration after
    /// construction or a reshape is fully dense).
    pub(crate) fn ensure(&mut self, ext: &ExtendedNetwork) {
        let key = sizing_key(ext);
        if self.sized_for == Some(key) {
            return;
        }
        let j_count = ext.num_commodities();
        let l_count = ext.graph().edge_count();
        self.chain_dirty.resize(j_count, false);
        self.flow_dirty.resize(j_count, false);
        self.phi_changed.resize(j_count, false);
        self.flow_ran.resize(j_count, false);
        self.prev_f_edge.resize(l_count, 0.0);
        self.prev_f_union.resize(ext.router_union().len(), 0.0);
        self.dirty_list.clear();
        self.dirty_list.reserve(j_count);
        self.arcs.resize(ext);
        self.sized_for = Some(key);
        self.invalidate();
    }

    /// Forces the next iteration to run fully dense: every chain and
    /// flow pass dirty, every live-arc row stale, totals treated as
    /// changed. Called whenever algorithm state is mutated outside the
    /// step loop (restore, capacity edits, η changes, raw state
    /// access).
    pub(crate) fn invalidate(&mut self) {
        self.chain_dirty.iter_mut().for_each(|d| *d = true);
        self.flow_dirty.iter_mut().for_each(|d| *d = true);
        self.arcs.stale.iter_mut().for_each(|s| *s = true);
        self.force_totals = true;
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

    #[test]
    fn ensure_sizes_and_invalidates_once() {
        let ext = ext();
        let mut active = ActiveSet::default();
        active.ensure(&ext);
        let j_count = ext.num_commodities();
        assert_eq!(active.chain_dirty, vec![true; j_count]);
        assert!(active.force_totals);
        // Same shape: state must be preserved, not re-invalidated.
        active.chain_dirty[0] = false;
        active.force_totals = false;
        active.ensure(&ext);
        assert!(!active.chain_dirty[0]);
        assert!(!active.force_totals);
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
        let mut active = ActiveSet::default();
        active.ensure(&ext);
        let j = CommodityId::from_index(0);
        let routing = crate::routing::RoutingTable::initial(&ext);
        active.arcs.rebuild(&ext, j, routing.row(j));
        let row = active.arcs.row(j.index());
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
        assert!(!active.arcs.stale[0]);
    }
}
