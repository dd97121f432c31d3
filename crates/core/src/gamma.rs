//! The routing update Γ (§5, eqs. (15)–(17)).
//!
//! Each iteration, every node `i` and destination `j` shifts routing
//! mass away from links whose marginal cost
//! `a_ik(j) = m_ik(j) − min_m m_im(j)` exceeds the best link's, by
//!
//! ```text
//! Δ_ik(j) = min( φ_ik(j), η·a_ik(j) / t_i(j) )        (16)
//! ```
//!
//! and adds the collected mass to the best link (eq. (17)). There are
//! no blocked sets (eq. (14)): every commodity subgraph is a DAG, so
//! any out-link may receive mass (DESIGN.md §4a, item 5). The reduction
//! is inversely proportional to `t_i(j)` because the induced
//! link-traffic change is `Δ_ik(j)·t_i(j)`; when `t_i(j) = 0` the
//! fraction can move freely, so (following Gallager's convention) the
//! node routes everything to the current best link.
//!
//! All entry points share one row computation (`gamma_row_into`,
//! crate-private) so their numerics are identical: [`apply_gamma_ws`] is
//! the zero-allocation dense pass the step is checked against (one dense
//! kernel replay per step, ARCHITECTURE invariant 14);
//! [`apply_gamma_selective`] is the path the message-level simulator
//! schedules partial updates through; [`apply_gamma_deciders`] is the
//! mesh worker's Γ over the deciders of the routers its region owns.
//! A commodity only ever reads and
//! writes its own fraction row, and distinct routers touch disjoint sets
//! of that row's entries (each edge has exactly one source).
//!
//! Γ statistics are accumulated per fixed-size router chunk
//! (`GAMMA_CHUNK` routers) on every path and reduced in ascending
//! global chunk order: chunk boundaries depend only on the instance, so
//! the float order of [`GammaStats::total_shift`] is the same for the
//! dense step, the sparse step and the selective path.
//!
//! ## Deciders and pass-throughs
//!
//! Γ picks among a router's out-links, so a router with one commodity
//! out-link — a *pass-through*: every bandwidth node of the §3
//! transform, and a server with a single usable link; 78–81 % of all
//! routers on the benchmark families — has nothing to pick: its row is
//! `[(l, 1.0)]` (normalized, `1.0 / 1.0`) with zero shift. The arena lists the
//! other routers, the *deciders*, per commodity
//! ([`MemberView::deciders`], each with its index in the router list so
//! it lands in its usual chunk), and the sparse step runs Γ over that
//! list alone. On the step after an outside write — a restore, an
//! installed routing, raw state access, a reshape, and the first step
//! after construction — it walks every router instead, exactly as the
//! dense [`apply_gamma_ws`] does every step, so a pass-through row an
//! outside write left at anything but `1.0` is reset to exactly `1.0`
//! where the dense path resets it. From then on nothing writes a
//! pass-through row, so it holds `1.0` and recomputing it would store
//! the bits it has.
//!
//! The statistics do not move either. A chunk slot starts at
//! `(0.0, 0.0, routers in chunk)`, and the terms a pass-through would
//! fold in, `max(acc, +0.0)` and `acc + 0.0`, are the identity on the
//! slot's accumulators:
//!
//! * the max starts at `+0.0` and `f64::max` returns its non-NaN
//!   argument, so it is never NaN; it is never `-0.0` either, since a
//!   shift is `-0.0` only where a stored fraction is, and no row Γ
//!   writes holds one (an outside write might, but the step after it is
//!   the full walk, where both folds are the same fold) — so it is
//!   `≥ +0.0`, and `max(acc, +0.0) = acc`;
//! * the sum starts at `+0.0`, and `x + y` rounds to `-0.0` only when
//!   both operands are `-0.0`, so it never becomes `-0.0`; `x + 0.0` has
//!   the bits of `x` for every other `x`, NaN included.
//!
//! So the fold over the deciders alone carries the bits of the fold
//! over every router, in the same order. The dense [`apply_gamma_ws`]
//! keeps visiting every router, which is what makes invariants 14 and
//! 17 (the step equals its dense replay) prove the skip, and [`apply_gamma_selective`]
//! consults its predicate for every router but skips a participating
//! one only when it has one out-edge *and* its row is bitwise `1.0`.
//! [`apply_gamma_deciders`] walks the deciders of its router ranges
//! only, like the sparse step: its caller never lets a pass-through row
//! hold anything but `1.0` (ARCHITECTURE invariant 24).

#[allow(deprecated)] // the ignored `_tags` parameter of `apply_gamma_ws`
use crate::blocked::BlockedTags;
use crate::cost::CostModel;
use crate::flows::{FlowState, UsageView};
use crate::marginals::Marginals;
use crate::newton::edge_curvature;
use crate::routing::{apply_row, apply_row_support, RoutingTable};
use crate::workspace::{GammaLane, IterationWorkspace, GAMMA_CHUNK};
use spn_graph::NodeId;
use spn_model::CommodityId;
use spn_transform::{ExtendedNetwork, MemberView};
use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Range;

/// Outcome statistics of one Γ application.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GammaStats {
    /// Largest single fraction shift `Δ_ik(j)` applied.
    pub max_shift: f64,
    /// Total mass moved across all nodes and commodities.
    pub total_shift: f64,
    /// Number of (node, commodity) rows updated.
    pub rows: usize,
}

/// Everything a commodity-`j` Γ row computation reads: the commodity's
/// own rows (fraction by edge; traffic and marginal by member
/// position), its member view, the shared usage totals, and the update
/// parameters. `Copy`-cheap so callers build one per commodity.
#[derive(Clone, Copy)]
pub(crate) struct GammaCtx<'a> {
    pub(crate) ext: &'a ExtendedNetwork,
    pub(crate) cost: &'a CostModel,
    pub(crate) members: MemberView<'a>,
    /// The commodity's fraction row, read by the row computation and
    /// written by the row application through the same context.
    pub(crate) phi: &'a [Cell<f64>],
    pub(crate) t_row: &'a [f64],
    pub(crate) usage: UsageView<'a>,
    pub(crate) d_row: &'a [f64],
    pub(crate) eta: f64,
    pub(crate) traffic_floor: f64,
    pub(crate) opening_floor: f64,
    pub(crate) shift_cap: f64,
    pub(crate) j: CommodityId,
}

impl<'a> GammaCtx<'a> {
    /// The context of commodity `j` over the given state, with the
    /// commodity's fraction row as `phi`.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
    pub(crate) fn new(
        ext: &'a ExtendedNetwork,
        cost: &'a CostModel,
        phi: &'a [Cell<f64>],
        state: &'a FlowState,
        marginals: &'a Marginals,
        eta: f64,
        traffic_floor: f64,
        opening_floor: f64,
        shift_cap: f64,
        j: CommodityId,
    ) -> Self {
        GammaCtx {
            ext,
            cost,
            members: ext.members(j),
            phi,
            t_row: state.t_row(ext, j),
            usage: state.usage_view(),
            d_row: marginals.row(ext, j),
            eta,
            traffic_floor,
            opening_floor,
            shift_cap,
            j,
        }
    }
}

/// The Newton row rule's input to [`gamma_row_into`]: the commodity's
/// curvature row `H` (by member position) and the curvature floor.
pub(crate) type Curvature<'a> = Option<(&'a [f64], f64)>;

/// Computes the new routing row for the router at member position `i`
/// into `lane.row` (unapplied) and returns `(max_shift, total_shift)`.
/// Reads only `ctx`; the single numeric source of truth for every Γ
/// entry point. With a [`Curvature`], each shift is also divided by the
/// link's curvature `κ` (`crate::newton`); Γ's divisor is `t_i`, and
/// `t_i·1.0 = t_i` exactly, so the two rules are one row.
pub(crate) fn gamma_row_into(
    ctx: &GammaCtx<'_>,
    curvature: Curvature<'_>,
    i: usize,
    lane: &mut GammaLane,
) -> (f64, f64) {
    let (edges, heads) = ctx.members.out_arcs(i);
    debug_assert!(!edges.is_empty(), "gamma_row called on a non-router");
    lane.row.clear();
    if edges.len() == 1 {
        lane.row.push((edges[0], 1.0));
        return (0.0, 0.0);
    }

    lane.m.clear();
    if i == ctx.members.dummy() {
        // Dummy-source rows mix DummyInput and DummyDifference edges —
        // the latter's partial is the utility derivative, so no common
        // tail term can be hoisted.
        for (&l, &head) in edges.iter().zip(heads) {
            lane.m.push(ctx.cost.edge_marginal_view(
                ctx.ext,
                ctx.usage,
                ctx.j,
                l,
                ctx.d_row[head as usize],
            ));
        }
    } else {
        // Every out-edge of an ordinary router shares the tail node's
        // resource partial — hoist it so the per-edge body is a single
        // mul + mul-add over contiguous lanes. The expression must stay
        // exactly `partial * cost + beta * d` (no mul_add) to remain
        // bit-identical to `edge_marginal_view`.
        let tail_partial = ctx
            .cost
            .node_partial_view(ctx.ext, ctx.usage, ctx.members.node(i));
        for (&l, &head) in edges.iter().zip(heads) {
            lane.m.push(
                tail_partial * ctx.ext.cost(ctx.j, l)
                    + ctx.ext.beta(ctx.j, l) * ctx.d_row[head as usize],
            );
        }
    }

    // Best (minimum-marginal) link; k(i, j) in the paper.
    let best = (0..edges.len())
        .min_by(|&a, &b| lane.m[a].total_cmp(&lane.m[b]))
        .expect("a router has an out-edge");

    // Gallager's convention routes everything to the best link when
    // t_i(j) = 0 (the fraction is then free to move without changing
    // any link traffic). Taken literally this is violently unstable in
    // capacitated networks: an idle low-capacity path advertises a tiny
    // marginal, the instant full reroute floods it, and the barrier
    // explosion then crashes admission. We instead rate-limit the
    // opening by flooring the divisor at `opening_floor` (a small
    // fraction of λ_j, see GradientConfig::opening_fraction); with a
    // floor of zero the literal snap behaviour is restored.
    let t_raw = ctx.t_row[i];
    let t_i = t_raw.max(ctx.opening_floor);
    if t_i <= ctx.traffic_floor {
        // No traffic and no floor: route everything to the best link.
        let old_best = ctx.phi[edges[best].index()].get();
        let shift = 1.0 - old_best;
        for (idx, &l) in edges.iter().enumerate() {
            lane.row.push((l, if idx == best { 1.0 } else { 0.0 }));
        }
        return (shift, shift);
    }

    let m_min = lane.m[best];
    let mut collected = 0.0;
    let mut max_shift: f64 = 0.0;
    for (idx, &l) in edges.iter().enumerate() {
        if idx == best {
            continue;
        }
        let f = ctx.phi[l.index()].get();
        let a = (lane.m[idx] - m_min).max(0.0);
        // eq. (16), with the per-iteration movement additionally capped
        // at `shift_cap`: near a barrier the marginal excess `a` is
        // unbounded, and an uncapped Δ saturates at φ — a one-step full
        // reroute that floods the alternative path and oscillates.
        let kappa = curvature.map_or(1.0, |(h_row, floor)| {
            let (c, b) = (ctx.ext.cost(ctx.j, l), ctx.ext.beta(ctx.j, l));
            (c * c * edge_curvature(ctx.ext, ctx.cost, ctx.usage, l)
                + b * b * h_row[heads[idx] as usize])
                .max(floor)
        });
        let delta = f.min(ctx.eta * a / (t_i * kappa)).min(ctx.shift_cap);
        collected += delta;
        max_shift = max_shift.max(delta);
        lane.row.push((l, f - delta)); // eq. (17), k ≠ k(i,j)
    }
    lane.row
        .push((edges[best], ctx.phi[edges[best].index()].get() + collected));
    (max_shift, collected)
}

/// Runs Γ over one chunk of routers (member positions) — computing and
/// applying each row, and accumulating the chunk's statistics into
/// `stat` (cleared here). All rows of a chunk belong to one commodity;
/// each router's computation reads and writes only its own out-edge
/// entries of the fraction row.
pub(crate) fn gamma_chunk(
    ctx: &GammaCtx<'_>,
    routers: &[u32],
    lane: &mut GammaLane,
    stat: &mut (f64, f64, usize),
) {
    *stat = (0.0, 0.0, 0);
    for &i in routers {
        let (max_shift, total) = gamma_row_into(ctx, None, i as usize, lane);
        apply_row(ctx.phi, ctx.members.out_arcs(i as usize).0, &lane.row);
        stat.0 = stat.0.max(max_shift);
        stat.1 += total;
        stat.2 += 1;
    }
}

/// One commodity's row updates in the step: [`gamma_row_into`] (with
/// the Newton rule's `curvature`, if any) over its deciders only, or —
/// on the step after an outside write (`every_router`) — every router,
/// exactly as [`apply_gamma_ws`] does. Rows are applied through
/// [`apply_row_support`]; returns whether any fraction crossed zero.
/// `stats` is the commodity's run of chunk slots: each starts at
/// `(0.0, 0.0, routers in chunk)` and folds the shifts of the rows
/// computed in it, in router order — bit-identical to the dense fold
/// over every router (see "Deciders and pass-throughs" in the module
/// docs).
pub(crate) fn commodity_rows(
    ctx: &GammaCtx<'_>,
    every_router: bool,
    lane: &mut GammaLane,
    stats: &mut [(f64, f64, usize)],
    curvature: Curvature<'_>,
) -> bool {
    let routers = ctx.members.routers();
    for (slot, chunk) in stats.iter_mut().zip(routers.chunks(GAMMA_CHUNK)) {
        *slot = (0.0, 0.0, chunk.len());
    }
    let mut support = false;
    let mut row = |i: u32, r: usize| {
        let (max_shift, total) = gamma_row_into(ctx, curvature, i as usize, lane);
        let out = ctx.members.out_arcs(i as usize).0;
        support |= apply_row_support(ctx.phi, out, &lane.row);
        let stat = &mut stats[r / GAMMA_CHUNK];
        stat.0 = stat.0.max(max_shift);
        stat.1 += total;
    };
    if every_router {
        for (r, &i) in routers.iter().enumerate() {
            row(i, r);
        }
    } else {
        for &(i, r) in ctx.members.deciders() {
            row(i, r as usize);
        }
    }
    support
}

/// Applies Γ to every `(commodity, router)` pair through the reusable
/// workspace: allocation-free in steady state. All rows are computed
/// against the *pre-update* marginals and flows, matching the
/// synchronous protocol of §5.
///
/// `_tags` and `_pool` are inert shims, accepted and ignored: `_tags`
/// is always the empty [`BlockedTags`], `None` is `_pool`'s only value.
/// They exist so the frozen `benchmark/` surface compiles; the next
/// `[benchmark]` PR removes them.
#[allow(clippy::too_many_arguments, deprecated)] // the shims' signature
pub fn apply_gamma_ws(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &mut RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    _tags: &BlockedTags,
    eta: f64,
    traffic_floor: f64,
    opening_fraction: f64,
    shift_cap: f64,
    ws: &mut IterationWorkspace,
    _pool: Option<Infallible>,
) -> GammaStats {
    ws.ensure(ext);
    for j in ext.commodity_ids() {
        let ctx = GammaCtx::new(
            ext,
            cost,
            routing.row_cells(j),
            state,
            marginals,
            eta,
            traffic_floor,
            opening_fraction * ext.commodity(j).max_rate,
            shift_cap,
            j,
        );
        for (c, chunk) in ctx.members.routers().chunks(GAMMA_CHUNK).enumerate() {
            let slot = ws.chunk_base[j.index()] + c;
            gamma_chunk(&ctx, chunk, &mut ws.lane, &mut ws.stats[slot]);
        }
    }
    reduce_gamma_stats(ws, ext.num_commodities())
}

/// Reduces the per-chunk Γ statistics in ascending global chunk order —
/// the fixed order that makes [`GammaStats`] bit-identical across the
/// dense, sparse and selective paths.
pub(crate) fn reduce_gamma_stats(ws: &IterationWorkspace, j_count: usize) -> GammaStats {
    let total_chunks = ws.chunk_base[j_count];
    let mut stats = GammaStats::default();
    for &(max_shift, total, rows) in &ws.stats[..total_chunks] {
        stats.max_shift = stats.max_shift.max(max_shift);
        stats.total_shift += total;
        stats.rows += rows;
    }
    stats
}

/// Applies Γ to every `(commodity, router)` pair, mutating `routing` in
/// place. All rows are computed against the *pre-update* marginals and
/// flows, matching the synchronous protocol of §5.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub fn apply_gamma(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &mut RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    eta: f64,
    traffic_floor: f64,
    opening_fraction: f64,
    shift_cap: f64,
) -> GammaStats {
    apply_gamma_selective(
        ext,
        cost,
        routing,
        state,
        marginals,
        eta,
        traffic_floor,
        opening_fraction,
        shift_cap,
        |_, _| true,
    )
}

/// Like [`apply_gamma`] but only the `(commodity, router)` pairs
/// accepted by `participates` update their rows; everyone else keeps
/// their previous decision.
///
/// This models *asynchronous* operation, where an iteration's update
/// round reaches only part of the network (nodes busy, messages
/// delayed). The `spn-sim` crate builds its partial-participation
/// schedules on top of this. The predicate is consulted for every
/// router; a participating one is skipped only when it has one
/// out-edge *and* its row is bitwise `1.0` (its statistics still count
/// it). Allocates a row-staging lane per call.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub fn apply_gamma_selective<F>(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &mut RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    eta: f64,
    traffic_floor: f64,
    opening_fraction: f64,
    shift_cap: f64,
    mut participates: F,
) -> GammaStats
where
    F: FnMut(CommodityId, NodeId) -> bool,
{
    let mut stats = GammaStats::default();
    let mut lane = GammaLane::default();
    for j in ext.commodity_ids() {
        let ctx = GammaCtx::new(
            ext,
            cost,
            routing.row_cells(j),
            state,
            marginals,
            eta,
            traffic_floor,
            opening_fraction * ext.commodity(j).max_rate,
            shift_cap,
            j,
        );
        // Accumulate per GAMMA_CHUNK-sized router chunk and fold chunk
        // totals ascending — the same association as the workspace path
        // (`reduce_gamma_stats`), so full participation reproduces the
        // ws stats bit-for-bit.
        for chunk in ctx.members.routers().chunks(GAMMA_CHUNK) {
            let mut local = (0.0f64, 0.0f64, 0usize);
            for &i in chunk {
                let i = i as usize;
                if !participates(j, ctx.members.node(i)) {
                    continue;
                }
                local.2 += 1;
                let out = ctx.members.out_arcs(i).0;
                if let [l] = out {
                    if ctx.phi[l.index()].get().to_bits() == 1.0f64.to_bits() {
                        // a pass-through already at its only row: Γ would
                        // store these bits and fold identity terms
                        continue;
                    }
                }
                let (max_shift, total) = gamma_row_into(&ctx, None, i, &mut lane);
                apply_row(ctx.phi, out, &lane.row);
                local.0 = local.0.max(max_shift);
                local.1 += total;
            }
            stats.max_shift = stats.max_shift.max(local.0);
            stats.total_shift += local.1;
            stats.rows += local.2;
        }
    }
    stats
}

/// Reusable row-staging buffers for [`apply_gamma_deciders`]: after the
/// first call has sized them to the instance's maximum router
/// out-degree, subsequent calls are allocation-free. Also reports, per
/// commodity, whether the last call moved a fraction across zero
/// ([`GammaScratch::support_changed`]). Opaque otherwise — there is
/// nothing to configure; `default()` is the only constructor.
#[derive(Clone, Debug, Default)]
pub struct GammaScratch {
    lane: GammaLane,
    /// `support[j]`: the last call took a commodity-`j` fraction across
    /// zero (either way).
    support: Vec<bool>,
}

impl GammaScratch {
    /// Whether the last [`apply_gamma_deciders`] call through this
    /// scratch moved any commodity-`j` fraction across zero — the only
    /// writes after which a [`LiveArcSweeps`] row must be marked stale.
    /// `false` for a commodity the call never saw.
    ///
    /// [`LiveArcSweeps`]: crate::LiveArcSweeps
    #[must_use]
    pub fn support_changed(&self, j: CommodityId) -> bool {
        self.support.get(j.index()).copied().unwrap_or(false)
    }
}

/// Γ over the deciders inside one contiguous run of routers per
/// commodity: `owned[j]` is a range of indices into
/// [`MemberView::routers`] (equivalently
/// [`ExtendedNetwork::commodity_routers`]), and only the
/// [`MemberView::deciders`] whose router index lies in it are computed.
/// This is the mesh worker's Γ over the routers its region owns.
///
/// Pass-through rows in the range are not visited: the caller keeps
/// them at exactly `[(l, 1.0)]`, the row Γ would store. The statistics
/// are then bit-equal to [`apply_gamma_selective`] with the predicate
/// "router index in `owned[j]`": `rows` counts every router of the
/// range, and the shifts fold per router chunk in ascending chunk
/// order, without the identity terms of the pass-throughs (see
/// "Deciders and pass-throughs" in the module docs). Rows are applied
/// with change tracking, and the commodities whose support moved are
/// left in the scratch ([`GammaScratch::support_changed`]). Once the
/// scratch is warm the call performs no heap allocation, which the mesh
/// runtime's zero-alloc gate (`mesh_smoke`) pins.
///
/// # Panics
///
/// Panics if `owned` has fewer entries than there are commodities, or
/// a range reaches past its commodity's router list.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub fn apply_gamma_deciders(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &mut RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    eta: f64,
    traffic_floor: f64,
    opening_fraction: f64,
    shift_cap: f64,
    owned: &[Range<usize>],
    scratch: &mut GammaScratch,
) -> GammaStats {
    let mut stats = GammaStats::default();
    let GammaScratch { lane, support } = scratch;
    support.clear();
    support.resize(ext.num_commodities(), false);
    for j in ext.commodity_ids() {
        let range = owned[j.index()].clone();
        assert!(
            range.end <= ext.commodity_routers(j).len(),
            "owned router range past the router list"
        );
        stats.rows += range.len();
        let ctx = GammaCtx::new(
            ext,
            cost,
            routing.row_cells(j),
            state,
            marginals,
            eta,
            traffic_floor,
            opening_fraction * ext.commodity(j).max_rate,
            shift_cap,
            j,
        );
        let deciders = ctx.members.deciders();
        let lo = deciders.partition_point(|&(_, r)| (r as usize) < range.start);
        let hi = deciders.partition_point(|&(_, r)| (r as usize) < range.end);
        // one chunk's shifts at a time, folded when the walk leaves it
        let mut chunk = usize::MAX;
        let mut local = (0.0f64, 0.0f64);
        for &(i, r) in &deciders[lo..hi] {
            let c = r as usize / GAMMA_CHUNK;
            if c != chunk {
                stats.max_shift = stats.max_shift.max(local.0);
                stats.total_shift += local.1;
                (chunk, local) = (c, (0.0, 0.0));
            }
            let (max_shift, total) = gamma_row_into(&ctx, None, i as usize, lane);
            let out = ctx.members.out_arcs(i as usize).0;
            support[j.index()] |= apply_row_support(ctx.phi, out, &lane.row);
            local.0 = local.0.max(max_shift);
            local.1 += total;
        }
        stats.max_shift = stats.max_shift.max(local.0);
        stats.total_shift += local.1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::compute_flows;
    use crate::marginals::compute_marginals;
    use spn_model::builder::ProblemBuilder;
    use spn_model::{Penalty, UtilityFn};

    fn cm() -> CostModel {
        CostModel::new(Penalty::default(), 0.2)
    }

    /// Diamond where the y-path is much cheaper than the x-path.
    fn lopsided() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(3.0); // tiny capacity ⇒ expensive path
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
        ExtendedNetwork::build(&b.build().unwrap())
    }

    fn mid_admission(ext: &ExtendedNetwork) -> RoutingTable {
        let j = CommodityId::from_index(0);
        let mut rt = RoutingTable::initial(ext);
        rt.set_row(
            ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 0.3), (ext.difference_edge(j), 0.7)],
        );
        let s = ext.commodity(j).source();
        let outs: Vec<_> = ext.commodity_out_edges(j, s).collect();
        rt.set_row(ext, j, s, &[(outs[0], 0.5), (outs[1], 0.5)]);
        rt
    }

    #[test]
    fn gamma_moves_mass_toward_cheaper_link() {
        let ext = lopsided();
        let j = CommodityId::from_index(0);
        let mut rt = mid_admission(&ext);
        let s = ext.commodity(j).source();
        let outs: Vec<_> = ext.commodity_out_edges(j, s).collect();
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let before_y = rt.fraction(j, outs[1]);
        apply_gamma(&ext, &cm(), &mut rt, &fs, &m, 0.5, 1e-12, 0.0, 1.0);
        rt.validate(&ext).unwrap();
        // the y-path (outs[1], through the big server) should gain mass
        assert!(
            rt.fraction(j, outs[1]) > before_y,
            "expected mass to shift toward the cheap path"
        );
    }

    #[test]
    fn gamma_never_increases_cost_for_small_eta() {
        let ext = lopsided();
        let mut rt = mid_admission(&ext);
        let cost = cm();
        for _ in 0..20 {
            let fs = compute_flows(&ext, &rt);
            let before = cost.total_cost(&ext, &fs);
            let m = compute_marginals(&ext, &cost, &rt, &fs);
            apply_gamma(&ext, &cost, &mut rt, &fs, &m, 0.005, 1e-12, 0.0, 1.0);
            let fs2 = compute_flows(&ext, &rt);
            let after = cost.total_cost(&ext, &fs2);
            assert!(
                after <= before + 1e-9,
                "cost increased with tiny eta: {before} -> {after}"
            );
        }
    }

    #[test]
    fn zero_traffic_routes_all_to_best() {
        let ext = lopsided();
        let j = CommodityId::from_index(0);
        let mut rt = RoutingTable::initial(&ext); // zero interior traffic
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        apply_gamma(&ext, &cm(), &mut rt, &fs, &m, 0.04, 1e-12, 0.0, 1.0);
        rt.validate(&ext).unwrap();
        let s = ext.commodity(j).source();
        let fractions: Vec<f64> = ext
            .commodity_out_edges(j, s)
            .map(|l| rt.fraction(j, l))
            .collect();
        // all-or-nothing at the unloaded source
        assert!(fractions.iter().any(|&f| (f - 1.0).abs() < 1e-12));
        assert_eq!(fractions.iter().filter(|&&f| f > 0.0).count(), 1);
    }

    #[test]
    fn single_out_edge_is_identity() {
        let ext = lopsided();
        let j = CommodityId::from_index(0);
        let mut rt = mid_admission(&ext);
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let cost = cm();
        let ctx = GammaCtx::new(
            &ext,
            &cost,
            rt.row_cells(j),
            &fs,
            &m,
            0.04,
            1e-12,
            0.0,
            1.0,
            j,
        );
        // bandwidth nodes have exactly one commodity out-edge
        let bw = spn_graph::NodeId::from_index(4); // first bandwidth node
        let at = ext.member_pos(j, bw).unwrap();
        let mut lane = GammaLane::default();
        let (max_s, tot) = gamma_row_into(&ctx, None, at, &mut lane);
        assert_eq!(lane.row.len(), 1);
        assert_eq!(lane.row[0].1, 1.0);
        assert_eq!(max_s, 0.0);
        assert_eq!(tot, 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let ext = lopsided();
        let mut rt = mid_admission(&ext);
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let stats = apply_gamma(&ext, &cm(), &mut rt, &fs, &m, 0.5, 1e-12, 0.0, 1.0);
        assert!(stats.rows > 0);
        assert!(stats.total_shift > 0.0);
        assert!(stats.max_shift > 0.0);
        assert!(stats.max_shift <= stats.total_shift + 1e-15);
    }

    #[test]
    fn ws_path_matches_selective_bitwise() {
        let ext = lopsided();
        let fs_rt = mid_admission(&ext);
        let fs = compute_flows(&ext, &fs_rt);
        let m = compute_marginals(&ext, &cm(), &fs_rt, &fs);
        let mut reference = fs_rt.clone();
        let ref_stats = apply_gamma(&ext, &cm(), &mut reference, &fs, &m, 0.5, 1e-12, 0.05, 0.02);
        let mut ws = IterationWorkspace::new(&ext);
        let mut rt = fs_rt.clone();
        #[allow(deprecated)] // the ignored `_tags` shim
        let stats = apply_gamma_ws(
            &ext,
            &cm(),
            &mut rt,
            &fs,
            &m,
            &BlockedTags::none(&ext),
            0.5,
            1e-12,
            0.05,
            0.02,
            &mut ws,
            None,
        );
        assert_eq!(rt, reference, "ws path diverged");
        // Both paths fold stats per router chunk ascending, so the
        // full-participation selective stats must match bit-for-bit.
        assert_eq!(stats.max_shift.to_bits(), ref_stats.max_shift.to_bits());
        assert_eq!(stats.total_shift.to_bits(), ref_stats.total_shift.to_bits());
        assert_eq!(stats.rows, ref_stats.rows);
    }

    /// [`apply_gamma_deciders`] over one region's router ranges is
    /// bit-equal to [`apply_gamma_selective`] with that region's
    /// ownership predicate — routing, every [`GammaStats`] field and the
    /// per-commodity support flags — at every region of a 2-, 3- and
    /// 4-way contiguous node split, on every step of a 60-step
    /// trajectory (advanced by the full Γ).
    #[test]
    fn decider_ranges_match_the_selective_ownership_predicate() {
        use crate::GradientConfig;
        use spn_model::random::RandomInstance;
        let config = GradientConfig::default();
        let cost = CostModel {
            penalty: config.penalty,
            epsilon: config.epsilon,
            wall_threshold: config.wall_threshold,
            wall_strength: config.wall_strength,
        };
        for (nodes, commodities, seed) in [(30, 4, 11), (60, 6, 3)] {
            let problem = RandomInstance::builder()
                .nodes(nodes)
                .commodities(commodities)
                .seed(seed)
                .build()
                .unwrap()
                .problem;
            let ext = ExtendedNetwork::build(&problem);
            let v_count = ext.graph().node_count();
            let mut rt = RoutingTable::initial(&ext);
            let mut scratch = GammaScratch::default();
            let mut moved = 0usize;
            for step in 0..60 {
                let fs = compute_flows(&ext, &rt);
                let m = compute_marginals(&ext, &cost, &rt, &fs);
                for regions in 2..=4 {
                    for r in 0..regions {
                        let owner = |v: &NodeId| (v.index() * regions / v_count).min(regions - 1);
                        let owns = |v: NodeId| owner(&v) == r;
                        let owned: Vec<_> = ext
                            .commodity_ids()
                            .map(|j| {
                                let routers = ext.commodity_routers(j);
                                routers.partition_point(|v| owner(v) < r)
                                    ..routers.partition_point(|v| owner(v) <= r)
                            })
                            .collect();
                        let mut want = rt.clone();
                        let want_stats = apply_gamma_selective(
                            &ext,
                            &cost,
                            &mut want,
                            &fs,
                            &m,
                            config.eta,
                            config.traffic_floor,
                            config.opening_fraction,
                            config.shift_cap,
                            |_, v| owns(v),
                        );
                        let mut got = rt.clone();
                        let got_stats = apply_gamma_deciders(
                            &ext,
                            &cost,
                            &mut got,
                            &fs,
                            &m,
                            config.eta,
                            config.traffic_floor,
                            config.opening_fraction,
                            config.shift_cap,
                            &owned,
                            &mut scratch,
                        );
                        let ctx = format!(
                            "({nodes}, {commodities}, {seed}) step {step}, region {r} of {regions}"
                        );
                        assert_eq!(got_stats.rows, want_stats.rows, "{ctx}: rows");
                        assert_eq!(
                            got_stats.max_shift.to_bits(),
                            want_stats.max_shift.to_bits(),
                            "{ctx}: max shift"
                        );
                        assert_eq!(
                            got_stats.total_shift.to_bits(),
                            want_stats.total_shift.to_bits(),
                            "{ctx}: total shift"
                        );
                        for j in ext.commodity_ids() {
                            let mut crossed = false;
                            for &l in ext.commodity_edges(j) {
                                let (g, w) = (got.fraction(j, l), want.fraction(j, l));
                                assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: φ({j}, {l})");
                                crossed |= (rt.fraction(j, l) != 0.0) != (g != 0.0);
                            }
                            assert_eq!(
                                scratch.support_changed(j),
                                crossed,
                                "{ctx}: support of {j}"
                            );
                            moved += usize::from(crossed);
                        }
                    }
                }
                apply_gamma(
                    &ext,
                    &cost,
                    &mut rt,
                    &fs,
                    &m,
                    config.eta,
                    config.traffic_floor,
                    config.opening_fraction,
                    config.shift_cap,
                );
            }
            assert!(
                moved > 0,
                "no support ever moved: the flags were not exercised"
            );
        }
    }

    /// Filtered-update semantics of [`apply_gamma_selective`]: rejected
    /// `(commodity, router)` pairs keep their previous rows bit-for-bit,
    /// accepted pairs land on exactly the rows a full update would give
    /// them (rows are independent given fixed flows/marginals), and the
    /// statistics count only the accepted rows.
    #[test]
    fn selective_updates_only_participating_rows() {
        let ext = lopsided();
        let j = CommodityId::from_index(0);
        let before = mid_admission(&ext);
        let fs = compute_flows(&ext, &before);
        let m = compute_marginals(&ext, &cm(), &before, &fs);
        let mut full = before.clone();
        apply_gamma(&ext, &cm(), &mut full, &fs, &m, 0.5, 1e-12, 0.0, 1.0);

        // Accept exactly one router: the commodity's dummy source (its
        // admission row always shifts from a mid-admission start).
        let chosen = ext.dummy_source(j);
        let mut seen = 0usize;
        let mut rt = before.clone();
        let stats = apply_gamma_selective(
            &ext,
            &cm(),
            &mut rt,
            &fs,
            &m,
            0.5,
            1e-12,
            0.0,
            1.0,
            |_, i| {
                seen += 1;
                i == chosen
            },
        );
        assert_eq!(
            seen,
            ext.commodity_routers(j).len(),
            "predicate must be consulted for every router"
        );
        rt.validate(&ext).unwrap();
        for &i in ext.commodity_routers(j) {
            let want = if i == chosen { &full } else { &before };
            for &l in ext.commodity_out_slice(j, i) {
                assert_eq!(
                    rt.fraction(j, l).to_bits(),
                    want.fraction(j, l).to_bits(),
                    "row of router {i} {}",
                    if i == chosen {
                        "missed its update"
                    } else {
                        "moved without participating"
                    }
                );
            }
        }
        assert_eq!(stats.rows, 1, "stats must count only participating rows");
        assert!(stats.total_shift > 0.0);
        // The single row's shift is bounded by the full pass's totals.
        assert!(stats.max_shift <= stats.total_shift + 1e-15);

        // Empty participation: nothing moves, stats are zero.
        let mut rt = before.clone();
        let stats = apply_gamma_selective(
            &ext,
            &cm(),
            &mut rt,
            &fs,
            &m,
            0.5,
            1e-12,
            0.0,
            1.0,
            |_, _| false,
        );
        assert_eq!(rt, before, "non-participating pass mutated routing");
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.total_shift, 0.0);
        assert_eq!(stats.max_shift, 0.0);
    }
}
