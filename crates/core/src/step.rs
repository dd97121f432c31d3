//! The sparse step and its usage-totals reduction.
//!
//! One iteration of the protocol (tags → Γ → flows → marginals) has one
//! schedule. Per commodity `j`, the tag sweep, the Γ update and the flow
//! sweep read only `j`'s own rows (fraction, traffic, marginal, tag) plus
//! the shared usage totals `f_edge`/`f_node` — and the totals are *stale
//! by design*: the step's semantics evaluate tags, Γ and the new flows
//! against the previous iteration's usage. So the step is
//!
//! ```text
//! phase A   (every commodity, ascending)  tags(j) → Γ(j) → flows(j)   [old totals]
//! totals    per-commodity usage partials reduced into f_edge/f_node,
//!           in ascending commodity order
//! phase B   (every commodity, ascending)  marginals(j)                [new totals]
//! ```
//!
//! with the ε-annealing mutation (when scheduled) landing between the
//! totals and phase B. [`sparse_step_serial`] is that step for
//! [`GradientAlgorithm`](crate::GradientAlgorithm); `NewtonGradient`
//! runs the same shape with its own row rule and shares the helpers
//! here. Nothing is skipped but zero-fraction arcs (the sweeps walk
//! [`LiveArcSweeps`] rows) and pass-through rows (Γ walks the deciders;
//! see "Deciders and pass-throughs" in `gamma.rs`).
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
//! cross-commodity lane — the totals reduction,
//! [`reduce_usage_totals`], shared by the gradient, annealing and
//! Newton steps — touches every edge and the nodes of
//! [`ExtendedNetwork::router_union`] only:
//! `O(Σ_j members_j + |router union| + L)` per step. Only the step after
//! an outside write (restore, an installed routing, raw state access, a
//! reshape) goes full-width over the nodes, once, so externally written
//! totals heal.
//!
//! [`GAMMA_CHUNK`]: crate::workspace::GAMMA_CHUNK

use crate::active::{LiveArcSweeps, LiveRow};
use crate::blocked::{tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::{flow_sweep_active, FlowState};
use crate::gamma::{gamma_commodity, reduce_gamma_stats, GammaCtx, GammaStats};
use crate::marginals::Marginals;
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
fn accumulate_usage_totals_scoped(
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

/// Re-reduces the usage totals from the per-commodity partials: zeroes
/// every edge total and the node totals of
/// [`ExtendedNetwork::router_union`] — every node when `full_width` —
/// and accumulates with [`accumulate_usage_totals_scoped`].
///
/// Edges run `L`-wide (every extended edge belongs to some commodity on
/// every generator family, so there is no narrower set to walk).
/// Leaving the idle nodes alone is bit-identical to the dense full-width
/// reduction because they hold `+0.0` before (the invariant this
/// function maintains) and the full-width reduction gives them `+0.0`
/// again (`+0.0` plus all-`+0.0` partials — no sweep writes a partial
/// outside its commodity's routers). Anything that may have written the
/// totals from outside — restore, raw state access, a reshape — sets
/// `full_width`: idle entries are then zeroed too, which is where a
/// poisoned idle value (`7.5`, `-0.0`) heals to `+0.0`, exactly as the
/// dense reduction heals it.
pub(crate) fn reduce_usage_totals(
    ext: &ExtendedNetwork,
    state: &mut FlowState,
    ws: &IterationWorkspace,
    full_width: bool,
) {
    state.f_edge.fill(0.0);
    if full_width {
        state.f_node.fill(0.0);
    } else {
        for &v in ext.router_union() {
            state.f_node[v.index()] = 0.0;
        }
        // With the union zeroed, any set bit left is on an idle node.
        debug_assert!(
            state.f_node.iter().all(|z| z.to_bits() == 0),
            "an idle node carries usage but nothing flagged an outside write"
        );
    }
    accumulate_usage_totals_scoped(
        ext,
        &mut state.f_edge,
        &mut state.f_node,
        &ws.f_edge_part,
        &ws.f_node_part,
    );
}

/// One commodity's flow pass of the sparse steps: zeroes its
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

/// The sparse engine's step (`GradientConfig::sparsity`): every
/// commodity runs tags → Γ over its deciders → flow pass over its live
/// arcs, the usage totals are re-reduced, and every commodity's marginal
/// sweep runs. Bit-identical to the dense reference step — each sparse
/// kernel performs the dense kernel's float operations in the dense
/// order, and a skipped pass-through row is one whose Γ would store the
/// bits it holds. `outside_write` says the state was written from outside
/// the step since the last one: Γ then walks every router and the node
/// totals are zeroed full width, and the flag is cleared.
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
    sweeps: &mut LiveArcSweeps,
    outside_write: &mut bool,
    anneal_to: Option<f64>,
) -> GammaStats {
    if !state.fits(ext) {
        state.reset(ext);
    }
    if marginals.d.len() != ext.member_total() {
        marginals.reset(ext);
    }
    if tags.tagged.len() != ext.member_total() {
        tags.reset(ext);
    }
    ws.ensure(ext);
    sweeps.refresh(ext, routing);

    // Phase A: tag → Γ → flow chains.
    for j in ext.commodity_ids() {
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
                sweeps.row(j),
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
        // outside write, which is where a written pass-through row heals
        // (see `gamma.rs`)
        let ji = j.index();
        let stats = &mut ws.stats[ws.chunk_base[ji]..ws.chunk_base[ji + 1]];
        if gamma_commodity(&ctx, *outside_write, &mut ws.lane, stats) {
            sweeps.rebuild(ext, j, routing.row(j));
        }
        flow_pass_active(ext, routing.row(j), j, state, ws, sweeps.row(j));
    }

    reduce_usage_totals(ext, state, ws, *outside_write);
    *outside_write = false;
    if let Some(eps) = anneal_to {
        cost.epsilon = eps;
    }
    // Phase B: every marginal sweep, against the new totals.
    sweeps.marginals_into(ext, cost, routing, state, marginals);
    reduce_gamma_stats(ws, ext.num_commodities())
}
