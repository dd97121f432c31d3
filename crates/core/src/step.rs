//! The serial active-set step and the tracked totals reduction.
//!
//! One iteration of the protocol (tags → Γ → flows → marginals) has one
//! schedule. Per commodity `j`, the tag sweep, the Γ update and the flow
//! sweep read only `j`'s own rows (fraction, traffic, marginal, tag) plus
//! the shared usage totals `f_edge`/`f_node` — and the totals are *stale
//! by design*: the step's semantics evaluate tags, Γ and the new flows
//! against the previous iteration's usage. So the step is
//!
//! ```text
//! phase A   (per dirty commodity, ascending)  tags(j) → Γ(j) → flows(j)   [old totals]
//! totals    per-commodity usage partials reduced into f_edge/f_node,
//!           in ascending commodity order, only if a flow pass ran
//! phase B   (per moved commodity, ascending)  marginals(j)                [new totals]
//! ```
//!
//! with the ε-annealing mutation (when scheduled) landing between the
//! totals and phase B. [`sparse_step_serial`] is that step for
//! [`GradientAlgorithm`](crate::GradientAlgorithm); `NewtonGradient`
//! runs the same shape with its own row rule and shares the helpers
//! here.
//!
//! ## Fixed reduction orders
//!
//! The usage totals are folded in ascending commodity order and the Γ
//! statistics in ascending router chunk ([`GAMMA_CHUNK`]) — the orders
//! the dense reference path uses too, so dense ≡ sparse is bit-for-bit
//! (ARCHITECTURE invariant 14) and two identical runs are bit-identical
//! (invariant 9).
//!
//! ## Per-step cost
//!
//! The step has no `O(V)` lane. Per-commodity work walks the
//! commodity's own member-position rows and member edges
//! (`flow_pass_active`, the live-arc sweeps), and the one
//! cross-commodity lane — the totals reduction with its
//! bitwise changed-totals test, [`reduce_usage_totals_tracked`], shared
//! by the gradient, annealing and Newton steps — touches every edge and
//! the nodes of [`ExtendedNetwork::router_union`] only:
//! `O(Σ_j members_j + |router union| + L)` per step. Only an
//! invalidated step (restore, raw state access, reshape, capacity edit)
//! goes full-width over the nodes, once, so externally written totals
//! heal.

use crate::active::{ActiveSet, LiveRow};
use crate::blocked::{tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::{flow_sweep_active, FlowState};
use crate::gamma::{gamma_commodity_tracked, reduce_gamma_stats, GammaCtx, GammaStats};
use crate::marginals::{marginal_sweep_active, Marginals};
use crate::routing::RoutingTable;
use crate::workspace::IterationWorkspace;
use crate::GradientConfig;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;

/// Adds every commodity's usage partials into the totals over its
/// member edge and router lists only, in ascending commodity order —
/// the dense [`accumulate_usage_totals`] without its `L`-wide edge pass.
/// On zeroed accumulators it is bit-identical to the dense reduction:
/// the skipped partial entries (foreign edges, non-router members) are
/// exactly `+0.0` (zeroed at reset and never written by any sweep),
/// adding `+0.0` leaves an accumulator's bits unchanged unless it is
/// `-0.0`, and no accumulator here can be `-0.0` (every partial is a
/// product/sum of non-negative values). Within one commodity every
/// member edge and router appears exactly once and targets a distinct
/// accumulator, so only the cross-commodity order — ascending, as in
/// the dense reduction — affects the float-addition order.
///
/// [`accumulate_usage_totals`]: crate::flows::accumulate_usage_totals
pub(crate) fn accumulate_usage_totals_scoped(
    ext: &ExtendedNetwork,
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
) {
    let l_count = fe_tot.len();
    for j in ext.commodity_ids() {
        let fe = &fe_part[j.index() * l_count..(j.index() + 1) * l_count];
        for &l in ext.commodity_edges(j) {
            fe_tot[l.index()] += fe[l.index()];
        }
        let fnode = &fn_part[ext.member_range(j)];
        let m = ext.members(j);
        for &p in m.routers() {
            fn_tot[m.node(p as usize).index()] += fnode[p as usize];
        }
    }
}

/// The active-set engines' totals step — the one save → zero →
/// accumulate → compare in the crate: re-reduces the usage totals from
/// the persistent per-commodity partials and returns whether any bit of
/// them moved (`bits_differ(old, new)` over both whole arrays).
///
/// Edges run `L`-wide (every extended edge belongs to some commodity on
/// every generator family, so there is no narrower set to walk). Nodes
/// run over [`ExtendedNetwork::router_union`] only: `prev_fn` holds the
/// previous totals *per union position*, and only union entries of
/// `fn_tot` are saved, zeroed, accumulated into and compared.
///
/// Leaving the idle nodes alone is bit-identical to the full-width
/// reduction because they hold `+0.0` before (the invariant this
/// function maintains) and the full-width reduction gives them `+0.0`
/// again (`+0.0` plus all-`+0.0` partials — no sweep writes a partial
/// outside its commodity's routers), so they contribute equal bits to
/// both sides of the comparison. Anything that may have written the
/// totals from outside — restore, raw state access, a reshape — sets
/// `full_width` (`ActiveSet::force_totals`): idle entries are then
/// compared against `+0.0` and zeroed too, which is where a poisoned
/// idle value heals, exactly as the full-width reduction healed it.
#[allow(clippy::too_many_arguments)] // the totals, the partials, the saved copy
pub(crate) fn reduce_usage_totals_tracked(
    ext: &ExtendedNetwork,
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
    prev_fe: &mut [f64],
    prev_fn: &mut [f64],
    full_width: bool,
) -> bool {
    let union = ext.router_union();
    // The zips below truncate silently: a short `prev_fn` would leave
    // union entries un-zeroed and corrupt the totals.
    assert_eq!(prev_fn.len(), union.len(), "prev_fn not sized to the union");
    prev_fe.copy_from_slice(fe_tot);
    fe_tot.fill(0.0);
    for (prev, &v) in prev_fn.iter_mut().zip(union) {
        *prev = std::mem::replace(&mut fn_tot[v.index()], 0.0);
    }
    // With the union zeroed, any set bit left is on an idle node.
    debug_assert!(
        full_width || fn_tot.iter().all(|z| z.to_bits() == 0),
        "an idle node carries usage but nothing invalidated the tracker"
    );
    let idle_moved = full_width && fn_tot.iter().any(|z| z.to_bits() != 0);
    if idle_moved {
        fn_tot.fill(0.0);
    }
    accumulate_usage_totals_scoped(ext, fe_tot, fn_tot, fe_part, fn_part);
    idle_moved
        || bits_differ(prev_fe, fe_tot)
        || prev_fn
            .iter()
            .zip(union)
            .any(|(prev, &v)| prev.to_bits() != fn_tot[v.index()].to_bits())
}

/// One commodity's flow pass of the active-set engines: zeroes its
/// traffic row, its usage-partial rows and its member edges' flow
/// entries, then runs [`flow_sweep_active`] over its live arcs. The
/// node rows are whole member-position rows; the edge rows are zeroed
/// over the member edges only — entries on foreign edges are never
/// written by any sweep (dense or sparse): they are `+0.0` from
/// [`FlowState::reset`] / the workspace fills and stay that way, so
/// re-zeroing them is a no-op to skip.
pub(crate) fn flow_pass_active(
    ext: &ExtendedNetwork,
    phi: &[f64],
    j: CommodityId,
    state: &mut FlowState,
    ws: &mut IterationWorkspace,
    row: LiveRow<'_>,
) {
    let l_count = state.l_count;
    let edges = j.index() * l_count..(j.index() + 1) * l_count;
    let members = ext.member_range(j);
    let t = &mut state.t[members.clone()];
    let x = &mut state.x[edges.clone()];
    let fe = &mut ws.f_edge_part[edges];
    let fnode = &mut ws.f_node_part[members];
    t.fill(0.0);
    fnode.fill(0.0);
    for &l in ext.commodity_edges(j) {
        x[l.index()] = 0.0;
        fe[l.index()] = 0.0;
    }
    flow_sweep_active(ext, phi, j, t, x, fe, fnode, row);
}

/// `true` when two equal-length float slices differ in any bit.
pub(crate) fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Builds the iteration's compacted dirty list from the carried dirty
/// flags and rebuilds any live-arc row an invalidation marked stale
/// (cheap: only ever needed right after an invalidation).
pub(crate) fn sparse_prepare(
    active: &mut ActiveSet,
    ext: &ExtendedNetwork,
    routing: &RoutingTable,
) {
    active.phi_changed.iter_mut().for_each(|x| *x = false);
    active.flow_ran.iter_mut().for_each(|x| *x = false);
    active.dirty_list.clear();
    for ji in 0..active.chain_dirty.len() {
        if !active.chain_dirty[ji] {
            continue;
        }
        let j = CommodityId::from_index(ji);
        active.dirty_list.push(ji as u32);
        if active.arcs.stale[ji] {
            active.arcs.rebuild(ext, j, routing.row(j));
        }
    }
}

/// Applies the iteration's outcomes to the flags the next iteration
/// reads: a commodity's chain is dirty when its own fractions moved,
/// when the shared totals moved (every Γ input changed), or when ε was
/// annealed (the cost model changed under everyone).
pub(crate) fn sparse_carry_forward(active: &mut ActiveSet, effective_totals: bool, annealed: bool) {
    for ji in 0..active.chain_dirty.len() {
        active.chain_dirty[ji] = annealed || effective_totals || active.phi_changed[ji];
    }
    active.flow_dirty.iter_mut().for_each(|x| *x = false);
    active.force_totals = false;
}

/// The active-set engine's step (`GradientConfig::sparsity`): a
/// commodity's tag → Γ → flow chain runs only when its inputs moved, and
/// the per-commodity usage partials persist in the workspace across
/// iterations so a skipped flow pass contributes its unchanged rows to
/// the ascending-order totals reduction. Bit-identical to the dense
/// reference step — each skipped pass is one whose re-run would
/// reproduce its outputs bit-for-bit, and each sparse kernel performs
/// the dense kernel's float operations in the dense order.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's state fields
pub(crate) fn sparse_step_serial(
    ext: &ExtendedNetwork,
    cost: &mut CostModel,
    config: &GradientConfig,
    routing: &mut RoutingTable,
    state: &mut FlowState,
    marginals: &mut Marginals,
    tags: &mut BlockedTags,
    ws: &mut IterationWorkspace,
    active: &mut ActiveSet,
    anneal_to: Option<f64>,
) -> GammaStats {
    let j_count = ext.num_commodities();
    if !state.fits(ext) {
        state.reset(ext);
    }
    if marginals.d.len() != ext.member_total() {
        marginals.reset(ext);
    }
    if tags.tagged.len() != ext.member_total() {
        tags.reset(ext);
    }
    // A re-size re-zeroes the persistent usage partials: every skip
    // that relies on them must be invalidated.
    if ws.ensure(ext) {
        active.invalidate();
    }
    active.ensure(ext);
    sparse_prepare(active, ext, routing);

    // Phase A: tag → Γ → flow chains for the dirty commodities only.
    for di in 0..active.dirty_list.len() {
        let ji = active.dirty_list[di] as usize;
        let j = CommodityId::from_index(ji);
        let tag_row = &mut tags.tagged[ext.member_range(j)];
        tag_row.fill(false);
        if config.use_blocked_sets {
            tag_sweep_active(
                ext,
                cost,
                routing.row(j),
                state.t_row(ext, j),
                state.usage_view(),
                marginals.row(ext, j),
                config.eta,
                config.traffic_floor,
                j,
                tag_row,
                active.arcs.row(ji),
            );
        }
        let ctx = GammaCtx::new(
            ext,
            cost,
            routing.row_cells(j),
            state,
            marginals,
            tags,
            config.eta,
            config.traffic_floor,
            config.opening_fraction * ext.commodity(j).max_rate,
            config.shift_cap,
            j,
        );
        // Γ over the deciders; every router on the step after an
        // invalidation, which is where an outside write to a
        // pass-through row heals (see `gamma.rs`)
        let (value, support) = gamma_commodity_tracked(
            &ctx,
            active.force_totals,
            &mut ws.lane,
            &mut ws.stats[ws.chunk_base[ji]..ws.chunk_base[ji + 1]],
        );
        active.phi_changed[ji] = value;
        if support {
            active.arcs.rebuild(ext, j, routing.row(j));
        }
        if value || active.flow_dirty[ji] {
            flow_pass_active(ext, routing.row(j), j, state, ws, active.arcs.row(ji));
            active.flow_ran[ji] = true;
        }
    }

    // Totals: reduce (and bitwise-compare) only if any flow pass ran.
    let any_flows = active
        .dirty_list
        .iter()
        .any(|&ji| active.flow_ran[ji as usize]);
    let totals_changed = any_flows
        && reduce_usage_totals_tracked(
            ext,
            &mut state.f_edge,
            &mut state.f_node,
            &ws.f_edge_part,
            &ws.f_node_part,
            &mut active.prev_f_edge,
            &mut active.prev_f_union,
            active.force_totals,
        );
    let effective = totals_changed || active.force_totals;
    let annealed = anneal_to.is_some();
    if let Some(eps) = anneal_to {
        cost.epsilon = eps;
    }

    // Phase B: marginal sweeps for moved commodities — everyone when the
    // shared totals (or ε) changed.
    for ji in 0..j_count {
        if !(annealed || effective || active.phi_changed[ji]) {
            continue;
        }
        let j = CommodityId::from_index(ji);
        marginal_sweep_active(
            ext,
            cost,
            routing.row(j),
            state.usage_view(),
            j,
            &mut marginals.d[ext.member_range(j)],
            active.arcs.row(ji),
        );
    }

    sparse_carry_forward(active, effective, annealed);
    reduce_gamma_stats(ws, j_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{accumulate_usage_totals, compute_flows_into};
    use spn_graph::NodeId;
    use spn_model::random::RandomInstance;

    /// The dense reduction's `(edge totals, node totals, changed)` from
    /// the given old totals — the oracle for the tracked one.
    fn dense_oracle(
        ext: &ExtendedNetwork,
        old: (&[f64], &[f64]),
        ws: &IterationWorkspace,
    ) -> (Vec<f64>, Vec<f64>, bool) {
        let (mut fe, mut fnode) = (vec![0.0; old.0.len()], vec![0.0; old.1.len()]);
        accumulate_usage_totals(ext, &mut fe, &mut fnode, &ws.f_edge_part, &ws.f_node_part);
        let changed = bits_differ(old.0, &fe) || bits_differ(old.1, &fnode);
        (fe, fnode, changed)
    }

    /// `reduce_usage_totals_tracked` against the dense
    /// `accumulate_usage_totals` on whole arrays: equal totals, and a return
    /// value that is exactly `bits_differ(old, new)` — through moving
    /// and repeated partials, and through the forced full-width pass
    /// with a poisoned value (`7.5`, then `-0.0`) on an idle node.
    #[test]
    fn tracked_reduction_equals_the_dense_one_and_reports_bits_differ() {
        let problem = RandomInstance::builder()
            .nodes(24)
            .commodities(3)
            .seed(7)
            .build()
            .unwrap()
            .problem;
        let ext = ExtendedNetwork::build(&problem);
        let union = ext.router_union();
        let idle = ext
            .graph()
            .nodes()
            .find(|v| union.binary_search(v).is_err())
            .expect("the random family leaves idle nodes");

        // Two routing decisions → two sets of per-commodity partials.
        let rejecting = RoutingTable::initial(&ext);
        let mut admitting = rejecting.clone();
        for j in ext.commodity_ids() {
            admitting.set_row(
                &ext,
                j,
                ext.dummy_source(j),
                &[(ext.input_edge(j), 0.25), (ext.difference_edge(j), 0.75)],
            );
        }
        let partials = |routing: &RoutingTable| {
            let mut ws = IterationWorkspace::new(&ext);
            compute_flows_into(&ext, routing, &mut FlowState::zeros(&ext), &mut ws, None);
            ws
        };
        let (ws_a, ws_b) = (partials(&rejecting), partials(&admitting));

        let mut state = FlowState::zeros(&ext);
        let mut prev_fe = vec![0.0; state.f_edge.len()];
        let mut prev_fn = vec![0.0; union.len()];
        let mut check = |state: &mut FlowState,
                         ws: &IterationWorkspace,
                         poison: Option<(NodeId, f64)>,
                         full_width: bool,
                         what: &str| {
            if let Some((v, z)) = poison {
                state.f_node[v.index()] = z;
            }
            let (fe, fnode, changed) = dense_oracle(&ext, (&state.f_edge, &state.f_node), ws);
            let tracked = reduce_usage_totals_tracked(
                &ext,
                &mut state.f_edge,
                &mut state.f_node,
                &ws.f_edge_part,
                &ws.f_node_part,
                &mut prev_fe,
                &mut prev_fn,
                full_width,
            );
            assert!(!bits_differ(&fe, &state.f_edge), "edge totals: {what}");
            assert!(!bits_differ(&fnode, &state.f_node), "node totals: {what}");
            assert_eq!(tracked, changed, "changed flag: {what}");
            changed
        };

        assert!(check(&mut state, &ws_b, None, false, "first load"));
        assert!(!check(&mut state, &ws_b, None, false, "same partials"));
        assert!(check(&mut state, &ws_a, None, false, "back to rejecting"));
        assert!(!check(&mut state, &ws_a, None, true, "forced, clean"));
        assert!(check(
            &mut state,
            &ws_a,
            Some((idle, 7.5)),
            true,
            "forced, poisoned"
        ));
        assert_eq!(state.f_node[idle.index()].to_bits(), 0);
        assert!(check(
            &mut state,
            &ws_a,
            Some((idle, -0.0)),
            true,
            "forced, -0.0"
        ));
        assert!(check(
            &mut state,
            &ws_b,
            Some((idle, 1.0)),
            true,
            "forced, both moved"
        ));
    }
}
