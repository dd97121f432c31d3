//! The sparse step.
//!
//! One iteration of the protocol (Γ → flows → marginals) has one
//! schedule. Per commodity `j`, the Γ update reads only `j`'s own rows
//! (fraction, traffic, marginal) plus the shared usage totals
//! `f_edge`/`f_node` — and it reads the *previous* iteration's totals,
//! by the step's semantics. The flow sweep writes the new totals, each
//! commodity adding its usage straight into them.
//! So the step runs phase A in two halves, the mesh's decide / forward
//! order:
//!
//! ```text
//! decide    (every commodity, ascending)  rows(j)             [old totals]
//! forward   zero the totals; (every commodity, ascending)  flows(j) → totals
//! phase B   (every commodity, ascending)  marginals(j)        [new totals]
//! ```
//!
//! Every phase prices usage with the same cost model: ε is a constant
//! of the run, set once from
//! [`GradientConfig::epsilon`](crate::GradientConfig::epsilon).
//! [`sparse_step_serial`] is that step, the only one
//! [`GradientAlgorithm`](crate::GradientAlgorithm) runs. Its
//! [`RowRule`] says how a router's row moves: the paper's Γ, or Γ with
//! each shift divided by a curvature estimate (`crate::newton`), which
//! adds a curvature sweep ahead of the rows. Nothing is skipped but
//! zero-fraction arcs (the sweeps walk [`LiveArcSweeps`] rows) and
//! pass-through rows (the rows walk the deciders; see "Deciders and
//! pass-throughs" in `gamma.rs`).
//!
//! ## Fixed reduction orders
//!
//! The usage totals receive their addends in ascending commodity order
//! (each router's usage summed in CSR order first) and the Γ statistics
//! are folded in ascending router chunk ([`GAMMA_CHUNK`]) — the orders
//! of the dense kernels too, so a step equals one dense kernel replay of
//! its own pre-step state bit for bit (ARCHITECTURE invariants 14 and
//! 17) and two identical runs are bit-identical (invariant 9).
//!
//! ## Per-step cost
//!
//! The step has no `O(V)` lane. Per-commodity work walks the
//! commodity's own member-position rows and member edges
//! (`flow_pass_active`, the live-arc sweeps), and the one
//! cross-commodity lane — zeroing the totals, [`zero_usage_totals`] —
//! touches every edge and the nodes of
//! [`ExtendedNetwork::router_union`] only:
//! `O(Σ_j members_j + |router union| + L)` per step. Only the step after
//! an outside write (restore, an installed routing, raw state access, a
//! reshape) goes full-width over the nodes, once, so externally written
//! totals heal.
//!
//! [`GAMMA_CHUNK`]: crate::workspace::GAMMA_CHUNK

use crate::active::{LiveArcSweeps, LiveRow};
use crate::cost::CostModel;
use crate::flows::{flow_sweep_active, FlowState};
use crate::gamma::{commodity_rows, reduce_gamma_stats, GammaCtx, GammaStats};
use crate::marginals::Marginals;
use crate::newton::curvature_sweep_active;
use crate::routing::RoutingTable;
use crate::workspace::IterationWorkspace;
use crate::GradientConfig;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;

/// Zeroes the usage totals ahead of the flow passes: every edge total,
/// and the node totals of [`ExtendedNetwork::router_union`] — every
/// node when `full_width`.
///
/// Edges run `L`-wide (every extended edge belongs to some commodity on
/// every generator family, so there is no narrower set to walk). Leaving
/// the idle nodes alone is bit-identical to zeroing full width because
/// they hold `+0.0` already (the invariant this function maintains: no
/// flow pass writes a node outside its commodity's routers). Anything
/// that may have written the totals from outside — restore, raw state
/// access, a reshape — sets `full_width`: idle entries are then zeroed
/// too, which is where a poisoned idle value (`7.5`, `-0.0`) heals to
/// `+0.0`, exactly as the dense sweep's full reset heals it.
pub(crate) fn zero_usage_totals(ext: &ExtendedNetwork, state: &mut FlowState, full_width: bool) {
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
}

/// How a router's routing row moves. Set by the constructor only.
#[derive(Clone, Debug)]
pub(crate) enum RowRule {
    /// The paper's Γ (eqs. (15)–(17)).
    Gamma,
    /// Γ with each shift divided by the link's curvature, floored at
    /// `floor` (`crate::newton`). `h` holds the curvature rows by member
    /// position (`h[member_range(j)]`), swept at the head of every
    /// commodity's rows.
    Newton { floor: f64, h: Vec<f64> },
}

/// One commodity's flow pass: zeroes its traffic row and its member
/// edges' flow entries, then runs [`flow_sweep_active`] over its live
/// arcs, adding its usage into the totals (which the caller zeroed
/// before the first commodity's pass, [`zero_usage_totals`]). The edge
/// row is zeroed over the member edges only — entries on foreign edges
/// are never written by any sweep (dense or sparse): they are `+0.0`
/// from [`FlowState::reset`] and stay that way, so re-zeroing them is a
/// no-op to skip.
pub(crate) fn flow_pass_active(
    ext: &ExtendedNetwork,
    phi: &[f64],
    j: CommodityId,
    state: &mut FlowState,
    row: LiveRow<'_>,
) {
    let l_count = state.l_count;
    let t = &mut state.t[ext.member_range(j)];
    let x = &mut state.x[j.index() * l_count..(j.index() + 1) * l_count];
    t.fill(0.0);
    for &l in ext.commodity_edges(j) {
        x[l.index()] = 0.0;
    }
    flow_sweep_active(ext, phi, j, t, x, &mut state.f_edge, &mut state.f_node, row);
}

/// The step: every commodity runs its row rule over its deciders
/// (→ live-arc rebuild), the usage totals are zeroed, every commodity's
/// flow pass runs over its live arcs, and every commodity's marginal
/// sweep runs. Each kernel performs the dense kernel's float operations
/// in the dense order, and a skipped pass-through row is one whose
/// update would store the bits it holds, so the step equals one dense
/// kernel replay of its pre-step state. `outside_write` says the state
/// was written from outside the step since the last one: the rows then
/// walk every router, the node totals are zeroed full width and the
/// curvature rows are zeroed (a reshape moves member positions), and the
/// flag is cleared.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's state fields
pub(crate) fn sparse_step_serial(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    config: &GradientConfig,
    rule: &mut RowRule,
    routing: &mut RoutingTable,
    state: &mut FlowState,
    marginals: &mut Marginals,
    ws: &mut IterationWorkspace,
    sweeps: &mut LiveArcSweeps,
    outside_write: &mut bool,
) -> GammaStats {
    if !state.fits(ext) {
        state.reset(ext);
    }
    if marginals.d.len() != ext.member_total() {
        marginals.reset(ext);
    }
    if let (RowRule::Newton { h, .. }, true) = (&mut *rule, *outside_write) {
        h.clear();
        h.resize(ext.member_total(), 0.0);
    }
    ws.ensure(ext);
    sweeps.refresh(ext, routing);

    // Phase A, decide: the rows, against the previous totals.
    for j in ext.commodity_ids() {
        let ctx = GammaCtx::new(
            ext,
            cost,
            routing.row_cells(j),
            state,
            marginals,
            config.eta,
            config.traffic_floor,
            config.opening_fraction * ext.commodity(j).max_rate,
            config.shift_cap,
            j,
        );
        // the rows of the deciders; of every router on the step after an
        // outside write, which is where a written pass-through row heals
        // (see `gamma.rs`)
        let ji = j.index();
        let stats = &mut ws.stats[ws.chunk_base[ji]..ws.chunk_base[ji + 1]];
        let lane = &mut ws.lane;
        let support = match rule {
            RowRule::Gamma => commodity_rows(&ctx, *outside_write, lane, stats, None),
            RowRule::Newton { floor, h } => {
                let h = &mut h[ext.member_range(j)];
                curvature_sweep_active(&ctx, h, sweeps.row(j));
                commodity_rows(&ctx, *outside_write, lane, stats, Some((h, *floor)))
            }
        };
        if support {
            sweeps.rebuild(ext, j, routing.row(j));
        }
    }

    // Phase A, forward: every flow pass, into freshly zeroed totals.
    zero_usage_totals(ext, state, *outside_write);
    for j in ext.commodity_ids() {
        flow_pass_active(ext, routing.row(j), j, state, sweeps.row(j));
    }
    *outside_write = false;
    // Phase B: every marginal sweep, against the new totals.
    sweeps.marginals_into(ext, cost, routing, state, marginals);
    reduce_gamma_stats(ws, ext.num_commodities())
}
