//! The fused pooled iteration: one worker-pool dispatch per step.
//!
//! The serial [`GradientAlgorithm::step`](crate::GradientAlgorithm::step)
//! sequence — tags → Γ → flows → marginals — fans each pass out over
//! commodities, but dispatching the pool four times per step pays four
//! wake/sleep round-trips. This module fuses the passes into
//! per-commodity *task chains* so each worker carries a commodity
//! through every phase per wake, with barriers only where a
//! cross-commodity reduction genuinely requires one.
//!
//! ## Why the chain is sound
//!
//! Per commodity `j`, the tag sweep, Γ update, and flow sweep read only
//! `j`'s own rows (fraction, traffic, marginal, tag) plus the shared
//! usage totals `f_edge`/`f_node` — and the totals are *stale by
//! design*: the step's semantics evaluate tags, Γ, and the new flows
//! against the previous iteration's usage. The totals are only
//! rewritten at the reduction barrier, after every chain has finished
//! reading them; the marginal phase then runs against the new totals.
//! So the dependency structure per step is
//!
//! ```text
//! phase A   (per commodity)  tags(j) → Γ(j) → flows(j)   [old totals]
//! barrier   participant 0 reduces per-commodity usage partials
//!           into f_edge/f_node, in ascending commodity order
//! barrier
//! phase B   (per commodity)  marginals(j)                [new totals]
//! ```
//!
//! which is exactly two barriers per step (the serial step's data flow,
//! minus three pool dispatches). When there are fewer commodities than
//! participants, phase A instead runs tags / Γ / flows as separate
//! sub-phases so the Γ work can additionally split *within* a commodity
//! by router chunk ([`GAMMA_CHUNK`]) — distinct routers write disjoint
//! entries of the commodity's fraction row, so chunk tasks share the
//! row soundly through [`PhiTable`]'s per-element cells.
//!
//! ## Bit-identity (ARCHITECTURE invariant 9)
//!
//! Workers only ever compute rows they own; every cross-commodity
//! reduction — the usage-partial merge and the Γ-statistics fold — runs
//! in a fixed order (ascending commodity, ascending router chunk) no
//! matter which worker produced the inputs. ε-annealing iterations
//! split the step into two dispatches (the epsilon mutation must happen
//! between flows and marginals, and the cost model is shared by every
//! task), with the reduction done by the caller between them — the same
//! helper, hence the same float-addition order, as participant 0 uses
//! in the single-dispatch case.
//!
//! ## Per-step cost
//!
//! The active-set drivers have no `O(V)` lane. Per-commodity work walks
//! member lists (`zero_flow_rows_scoped`, `clear_tags_scoped`, the
//! live-arc sweeps), and the one cross-commodity lane — the totals
//! reduction with its bitwise changed-totals test,
//! [`reduce_usage_totals_tracked`], shared by the serial, pooled,
//! annealing and Newton steps — touches every edge and the nodes of
//! [`ExtendedNetwork::router_union`] only:
//! `O(Σ_j members_j + |router union| + L)` per step. Only an
//! invalidated step (restore, raw state access, reshape, capacity edit)
//! goes full-width over the nodes, once, so externally written totals
//! heal.

#![allow(unsafe_code)] // phase-protocol row ownership over the worker pool; contracts inline

use crate::active::{rebuild_active_row, ActiveSet, SCRATCH_MARG_LEN, SCRATCH_TOTALS_EFFECTIVE};
use crate::blocked::{tag_sweep, tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::{flow_sweep, flow_sweep_active, FlowState, UsageView};
use crate::gamma::{gamma_chunk, gamma_chunk_tracked, reduce_gamma_stats, GammaCtx, GammaStats};
use crate::marginals::{marginal_sweep, marginal_sweep_active, Marginals};
use crate::pool::{PhiRow, PhiTable, RowTable, SlotTable, WorkerPool};
use crate::routing::RoutingTable;
use crate::workspace::{GammaLane, IterationWorkspace, GAMMA_CHUNK};
use crate::GradientConfig;
use spn_graph::EdgeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Claims indices `0..n` from a shared counter and runs `f` on each —
/// the work-stealing loop every phase uses. Claim order is arbitrary;
/// every consumer writes only what it owns, so order never matters.
fn claim(counter: &AtomicUsize, n: usize, mut f: impl FnMut(usize)) {
    loop {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    }
}

/// Adds the per-commodity usage partials into the totals, in ascending
/// commodity order (edge partial then node partial per commodity) —
/// the one float-addition order every path shares, so totals are
/// bit-identical however the partials were produced.
pub(crate) fn reduce_usage_totals(
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
    l_count: usize,
    v_count: usize,
    j_count: usize,
) {
    fe_tot.fill(0.0);
    fn_tot.fill(0.0);
    for ji in 0..j_count {
        let fe = &fe_part[ji * l_count..(ji + 1) * l_count];
        for (acc, &p) in fe_tot.iter_mut().zip(fe) {
            *acc += p;
        }
        let fnode = &fn_part[ji * v_count..(ji + 1) * v_count];
        for (acc, &p) in fn_tot.iter_mut().zip(fnode) {
            *acc += p;
        }
    }
}

/// Adds every commodity's usage partials into the totals over its
/// member edge and router lists only, in ascending commodity order —
/// [`reduce_usage_totals`] minus its zero-fill, at `O(Σ_j members_j)`
/// instead of `O(J·(V + L))`. On zeroed accumulators it is
/// bit-identical to the dense reduction: the skipped partial entries
/// are exactly `+0.0` (zeroed at reset and never written by any sweep),
/// adding `+0.0` leaves an accumulator's bits unchanged unless it is
/// `-0.0`, and no accumulator here can be `-0.0` (every partial is a
/// product/sum of non-negative values). Within one commodity every
/// member edge and router appears exactly once and targets a distinct
/// accumulator, so only the cross-commodity order — ascending, as in
/// the dense reduction — affects the float-addition order.
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn accumulate_usage_totals_scoped(
    ext: &ExtendedNetwork,
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
    l_count: usize,
    v_count: usize,
    j_count: usize,
) {
    for ji in 0..j_count {
        let j = CommodityId::from_index(ji);
        let fe = &fe_part[ji * l_count..(ji + 1) * l_count];
        for &l in ext.commodity_edges(j) {
            fe_tot[l.index()] += fe[l.index()];
        }
        let fnode = &fn_part[ji * v_count..(ji + 1) * v_count];
        for &v in ext.commodity_routers(j) {
            fn_tot[v.index()] += fnode[v.index()];
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
    let (l_count, v_count) = (fe_tot.len(), fn_tot.len());
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
    accumulate_usage_totals_scoped(
        ext,
        fe_tot,
        fn_tot,
        fe_part,
        fn_part,
        l_count,
        v_count,
        ext.num_commodities(),
    );
    idle_moved
        || bits_differ(prev_fe, fe_tot)
        || prev_fn
            .iter()
            .zip(union)
            .any(|(prev, &v)| prev.to_bits() != fn_tot[v.index()].to_bits())
}

/// Zeroes one commodity's traffic/edge-flow rows and usage partials
/// over its member sets only — `O(members)` instead of `O(V + L)` per
/// dirty commodity. Sound because entries outside the member sets are
/// never written by any sweep (dense or sparse): they are `+0.0` from
/// [`FlowState::reset`] / the workspace fills and stay that way, so
/// re-zeroing them is a no-op the sparse paths can skip.
pub(crate) fn zero_flow_rows_scoped(
    ext: &ExtendedNetwork,
    j: CommodityId,
    t: &mut [f64],
    x: &mut [f64],
    fe: &mut [f64],
    fnode: &mut [f64],
) {
    for &v in ext.commodity_member_nodes(j) {
        t[v.index()] = 0.0;
    }
    for &l in ext.commodity_edges(j) {
        x[l.index()] = 0.0;
        fe[l.index()] = 0.0;
    }
    for &v in ext.commodity_routers(j) {
        fnode[v.index()] = 0.0;
    }
}

/// Clears one commodity's blocked-tag row over its router set only —
/// the only entries a tag sweep (dense or active) ever writes, so
/// non-router entries are invariantly `false`.
pub(crate) fn clear_tags_scoped(ext: &ExtendedNetwork, j: CommodityId, tag_row: &mut [bool]) {
    for &v in ext.commodity_routers(j) {
        tag_row[v.index()] = false;
    }
}

/// Shared-view bundle one fused dispatch operates on. All tables are
/// raw-pointer views over the algorithm's buffers; soundness rests on
/// the phase protocol documented at module level (each task touches
/// only rows/chunks it claimed, totals are written only between
/// barriers).
struct FusedViews<'a> {
    ext: &'a ExtendedNetwork,
    cost: &'a CostModel,
    phi: PhiTable<'a>,
    t: RowTable<'a, f64>,
    x: RowTable<'a, f64>,
    fe_part: RowTable<'a, f64>,
    fn_part: RowTable<'a, f64>,
    fe_tot: RowTable<'a, f64>,
    fn_tot: RowTable<'a, f64>,
    d: RowTable<'a, f64>,
    tags: RowTable<'a, bool>,
    lanes: SlotTable<'a, GammaLane>,
    stats: SlotTable<'a, (f64, f64, usize)>,
    chunk_base: &'a [usize],
    j_count: usize,
    eta: f64,
    traffic_floor: f64,
    opening_fraction: f64,
    shift_cap: f64,
    use_blocked_sets: bool,
    /// Split phase A into tag / Γ-chunk / flow sub-phases (used when
    /// commodities alone cannot occupy every participant).
    split: bool,
    c_a: AtomicUsize,
    c_gamma: AtomicUsize,
    c_flows: AtomicUsize,
    c_marg: AtomicUsize,
}

impl FusedViews<'_> {
    /// The usage totals as a view. Sound per the phase protocol: the
    /// totals are never written while any task holds this view.
    fn usage(&self) -> UsageView<'_> {
        // SAFETY: rows 0 cover the whole single-row total buffers; no
        // mutable access exists outside the reduction barrier.
        unsafe {
            UsageView {
                f_edge: self.fe_tot.row(0),
                f_node: self.fn_tot.row(0),
            }
        }
    }

    /// Phase-A tag task for commodity `ji`: clears and recomputes the
    /// tag row (a cleared row *is* the result when blocked sets are
    /// disabled).
    fn tag_task(&self, ji: usize) {
        let j = CommodityId::from_index(ji);
        // SAFETY: this task is row `ji`'s sole writer in this phase.
        let row = unsafe { self.tags.row_mut(ji) };
        row.fill(false);
        if !self.use_blocked_sets {
            return;
        }
        // SAFETY: commodity `ji`'s fraction/traffic/marginal rows are
        // not written during this phase (Γ and flows for `ji` run
        // strictly after its tag task).
        unsafe {
            tag_sweep(
                self.ext,
                self.cost,
                self.phi.row_slice(ji),
                self.t.row(ji),
                self.usage(),
                self.d.row(ji),
                self.eta,
                self.traffic_floor,
                j,
                row,
            );
        }
    }

    /// The Γ context for commodity `ji` — valid only before the
    /// commodity's flow task overwrites its traffic row.
    fn gamma_ctx(&self, ji: usize) -> GammaCtx<'_> {
        let j = CommodityId::from_index(ji);
        // SAFETY: the traffic, marginal, and tag rows of `ji` are
        // stable while Γ runs (flows for `ji` run strictly after).
        unsafe {
            GammaCtx {
                ext: self.ext,
                cost: self.cost,
                phi: self.phi.row(ji),
                t_row: self.t.row(ji),
                usage: self.usage(),
                d_row: self.d.row(ji),
                tag_row: self.tags.row(ji),
                eta: self.eta,
                traffic_floor: self.traffic_floor,
                opening_floor: self.opening_fraction * self.ext.commodity(j).max_rate,
                shift_cap: self.shift_cap,
                j,
            }
        }
    }

    /// Phase-A Γ task covering all of commodity `ji` (chain mode), with
    /// statistics still recorded per router chunk so the final fold is
    /// identical to split mode's.
    fn gamma_commodity(&self, ji: usize, worker: usize) {
        let ctx = self.gamma_ctx(ji);
        // SAFETY: lane `worker` is exclusive to this participant; the
        // stat slots of commodity `ji` are exclusive to this task.
        let lane = unsafe { self.lanes.slot_mut(worker) };
        let routers = self.ext.commodity_routers(ctx.j);
        for (c, chunk) in routers.chunks(GAMMA_CHUNK).enumerate() {
            let stat = unsafe { self.stats.slot_mut(self.chunk_base[ji] + c) };
            gamma_chunk(&ctx, chunk, lane, stat);
        }
    }

    /// Phase-A Γ task for one global router chunk (split mode). Chunk
    /// tasks of the same commodity write disjoint fraction-row entries
    /// (each router owns its out-edge set), shared via [`PhiRow`] cells.
    ///
    /// [`PhiRow`]: crate::pool::PhiRow
    fn gamma_chunk_task(&self, ci: usize, worker: usize) {
        let ji = self.chunk_base.partition_point(|&b| b <= ci) - 1;
        let local = ci - self.chunk_base[ji];
        let ctx = self.gamma_ctx(ji);
        let routers = self.ext.commodity_routers(ctx.j);
        let lo = local * GAMMA_CHUNK;
        let hi = routers.len().min(lo + GAMMA_CHUNK);
        // SAFETY: lane `worker` is exclusive to this participant; stat
        // slot `ci` is exclusive to this task.
        let lane = unsafe { self.lanes.slot_mut(worker) };
        let stat = unsafe { self.stats.slot_mut(ci) };
        gamma_chunk(&ctx, &routers[lo..hi], lane, stat);
    }

    /// Phase-A flow task for commodity `ji`: zeroes and recomputes the
    /// traffic/edge-flow rows and the commodity's usage partials.
    fn flow_task(&self, ji: usize) {
        let j = CommodityId::from_index(ji);
        // SAFETY: this task is the sole accessor of row `ji` of each
        // table in this phase; Γ for `ji` has already finished (chain
        // order or the preceding barrier), so reading the fraction row
        // while no one writes it is sound.
        unsafe {
            let t = self.t.row_mut(ji);
            let x = self.x.row_mut(ji);
            let fe = self.fe_part.row_mut(ji);
            let fnode = self.fn_part.row_mut(ji);
            t.fill(0.0);
            x.fill(0.0);
            fe.fill(0.0);
            fnode.fill(0.0);
            flow_sweep(self.ext, self.phi.row_slice(ji), j, t, x, fe, fnode);
        }
    }

    /// Everything before the reduction barrier, for participant `w`.
    fn phase_a(&self, w: usize, pool: &WorkerPool) {
        if self.split {
            claim(&self.c_a, self.j_count, |ji| self.tag_task(ji));
            pool.phase_wait();
            let total_chunks = self.chunk_base[self.j_count];
            claim(&self.c_gamma, total_chunks, |ci| {
                self.gamma_chunk_task(ci, w)
            });
            pool.phase_wait();
            claim(&self.c_flows, self.j_count, |ji| self.flow_task(ji));
        } else {
            claim(&self.c_a, self.j_count, |ji| {
                self.tag_task(ji);
                self.gamma_commodity(ji, w);
                self.flow_task(ji);
            });
        }
    }

    /// The usage reduction (participant 0 only, between barriers).
    ///
    /// # Safety
    ///
    /// Caller must guarantee no other participant accesses the totals
    /// or partials concurrently (i.e. call only between phase barriers,
    /// or after the dispatch returned).
    unsafe fn reduce_totals(&self) {
        let l_count = self.fe_tot.row_len();
        let v_count = self.fn_tot.row_len();
        // SAFETY: exclusive access per the caller contract; the partial
        // tables are contiguous row-major buffers.
        unsafe {
            reduce_usage_totals(
                self.fe_tot.row_mut(0),
                self.fn_tot.row_mut(0),
                self.fe_part.as_slice(),
                self.fn_part.as_slice(),
                l_count,
                v_count,
                self.j_count,
            );
        }
    }

    /// The marginal phase (after the reduction barrier).
    fn phase_b(&self) {
        claim(&self.c_marg, self.j_count, |ji| {
            let j = CommodityId::from_index(ji);
            // SAFETY: this task is row `ji`'s sole writer in this
            // phase; fraction rows are read-only after phase A.
            unsafe {
                let row = self.d.row_mut(ji);
                row.fill(0.0);
                marginal_sweep(
                    self.ext,
                    self.cost,
                    self.phi.row_slice(ji),
                    self.usage(),
                    j,
                    row,
                );
            }
        });
    }
}

/// One full protocol iteration over the persistent pool: tags → Γ →
/// flows → (ε-anneal) → marginals, in at most two dispatches (one when
/// `anneal_to` is `None`). Returns the Γ statistics; bit-identical to
/// the serial step for every participant count.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's state fields
pub(crate) fn fused_step(
    ext: &ExtendedNetwork,
    cost: &mut CostModel,
    config: &GradientConfig,
    pool: &WorkerPool,
    routing: &mut RoutingTable,
    state: &mut FlowState,
    marginals: &mut Marginals,
    tags: &mut BlockedTags,
    ws: &mut IterationWorkspace,
    anneal_to: Option<f64>,
) -> GammaStats {
    let v_count = ext.graph().node_count();
    let l_count = ext.graph().edge_count();
    let j_count = ext.num_commodities();
    // Cold-path shape guards: the algorithm keeps these consistent, but
    // a stale buffer after a network swap must resize, not corrupt.
    if state.t.len() != j_count * v_count || state.x.len() != j_count * l_count {
        state.reset(ext);
    }
    if marginals.d.len() != j_count * v_count {
        marginals.reset(ext);
    }
    if tags.tagged.len() != j_count * v_count {
        tags.reset(ext);
    }
    ws.ensure_workers(ext, pool.participants());
    let split = j_count < pool.participants();

    let build_and_run = |routing: &mut RoutingTable,
                         state: &mut FlowState,
                         marginals: &mut Marginals,
                         tags: &mut BlockedTags,
                         ws: &mut IterationWorkspace,
                         cost: &CostModel,
                         body: &dyn Fn(&FusedViews<'_>)| {
        let parts = ws.parts();
        let views = FusedViews {
            ext,
            cost,
            phi: PhiTable::new(routing.flat_mut(), l_count.max(1)),
            t: RowTable::new(&mut state.t, v_count.max(1)),
            x: RowTable::new(&mut state.x, l_count.max(1)),
            fe_part: RowTable::new(parts.f_edge_part, l_count.max(1)),
            fn_part: RowTable::new(parts.f_node_part, v_count.max(1)),
            fe_tot: RowTable::new(&mut state.f_edge, l_count.max(1)),
            fn_tot: RowTable::new(&mut state.f_node, v_count.max(1)),
            d: RowTable::new(&mut marginals.d, v_count.max(1)),
            tags: RowTable::new(&mut tags.tagged, v_count.max(1)),
            lanes: SlotTable::new(parts.lanes),
            stats: SlotTable::new(parts.stats),
            chunk_base: parts.chunk_base,
            j_count,
            eta: config.eta,
            traffic_floor: config.traffic_floor,
            opening_fraction: config.opening_fraction,
            shift_cap: config.shift_cap,
            use_blocked_sets: config.use_blocked_sets,
            split,
            c_a: AtomicUsize::new(0),
            c_gamma: AtomicUsize::new(0),
            c_flows: AtomicUsize::new(0),
            c_marg: AtomicUsize::new(0),
        };
        body(&views);
    };

    if anneal_to.is_none() {
        build_and_run(routing, state, marginals, tags, ws, cost, &|views| {
            pool.run_participants(&|w| {
                views.phase_a(w, pool);
                pool.phase_wait();
                if w == 0 {
                    // SAFETY: between barriers; all other participants
                    // are parked on the next phase_wait.
                    unsafe { views.reduce_totals() }
                }
                pool.phase_wait();
                views.phase_b();
            });
        });
        return reduce_gamma_stats(ws, j_count);
    }

    // ε-annealing iteration: the epsilon mutation must land between
    // flows and marginals, and every task shares the cost model — so
    // split the step into two dispatches with a caller-side reduction
    // (same helper as participant 0's, hence bit-identical totals).
    build_and_run(routing, state, marginals, tags, ws, cost, &|views| {
        pool.run_participants(&|w| views.phase_a(w, pool));
    });
    reduce_usage_totals(
        &mut state.f_edge,
        &mut state.f_node,
        &ws.f_edge_part,
        &ws.f_node_part,
        l_count,
        v_count,
        j_count,
    );
    let stats = reduce_gamma_stats(ws, j_count);
    if let Some(eps) = anneal_to {
        cost.epsilon = eps;
    }
    build_and_run(routing, state, marginals, tags, ws, cost, &|views| {
        pool.run_participants(&|_w| views.phase_b());
    });
    stats
}

/// `true` when two equal-length float slices differ in any bit.
pub(crate) fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Active-set views layered over [`FusedViews`] for a sparse dispatch.
/// The work lists are read-only (built by the caller before dispatch);
/// the flag tables and live-arc rows are written through the same
/// slot/row ownership discipline as the dense tables: each `(commodity,
/// chunk)` slot has exactly one writer per phase, and participant 0
/// alone writes `marg_list`/`scratch` between the reduction barriers.
struct SparseCtl<'a> {
    /// Commodities whose tag → Γ → flow chain runs this iteration.
    dirty_list: &'a [u32],
    /// Global Γ-chunk ids of the dirty commodities (split mode).
    chunk_list: &'a [u32],
    /// Commodities whose flow pass must run even if Γ is a no-op.
    flow_dirty: &'a [bool],
    phi_changed: SlotTable<'a, bool>,
    flow_ran: SlotTable<'a, bool>,
    chunk_flags: SlotTable<'a, (bool, bool)>,
    marg_list: SlotTable<'a, u32>,
    scratch: SlotTable<'a, u64>,
    prev_fe: RowTable<'a, f64>,
    prev_fn: RowTable<'a, f64>,
    arc_len: RowTable<'a, u32>,
    arcs: RowTable<'a, EdgeId>,
    live: SlotTable<'a, usize>,
    force_totals: bool,
}

impl FusedViews<'_> {
    /// Sparse phase-A tag task: clear the row, then recompute router
    /// entries from the live-arc sub-list.
    fn sparse_tag_task(&self, sp: &SparseCtl<'_>, ji: usize) {
        let j = CommodityId::from_index(ji);
        // SAFETY: this task is row `ji`'s sole writer in this phase.
        let row = unsafe { self.tags.row_mut(ji) };
        clear_tags_scoped(self.ext, j, row);
        if !self.use_blocked_sets {
            return;
        }
        // SAFETY: commodity `ji`'s fraction/traffic/marginal rows and
        // live-arc rows are not written during this phase (Γ, rebuild,
        // and flows for `ji` run strictly after its tag task).
        unsafe {
            tag_sweep_active(
                self.ext,
                self.cost,
                self.phi.row_slice(ji),
                self.t.row(ji),
                self.usage(),
                self.d.row(ji),
                self.eta,
                self.traffic_floor,
                j,
                row,
                sp.arc_len.row(ji),
                sp.arcs.row(ji),
                *sp.live.slot_mut(ji),
            );
        }
    }

    /// Sparse Γ over all of commodity `ji` (chain mode): tracked chunks,
    /// returning the folded `(value_changed, support_changed)`.
    fn sparse_gamma_commodity(&self, sp: &SparseCtl<'_>, ji: usize, worker: usize) -> (bool, bool) {
        let ctx = self.gamma_ctx(ji);
        // SAFETY: lane `worker` is exclusive to this participant; the
        // stat/flag slots of commodity `ji` are exclusive to this task.
        let lane = unsafe { self.lanes.slot_mut(worker) };
        let routers = self.ext.commodity_routers(ctx.j);
        let mut folded = (false, false);
        for (c, chunk) in routers.chunks(GAMMA_CHUNK).enumerate() {
            let stat = unsafe { self.stats.slot_mut(self.chunk_base[ji] + c) };
            let flag = unsafe { sp.chunk_flags.slot_mut(self.chunk_base[ji] + c) };
            gamma_chunk_tracked(&ctx, chunk, lane, stat, flag);
            folded.0 |= flag.0;
            folded.1 |= flag.1;
        }
        folded
    }

    /// Sparse Γ task for one global router chunk (split mode).
    fn sparse_gamma_chunk_task(&self, sp: &SparseCtl<'_>, ci: usize, worker: usize) {
        let ji = self.chunk_base.partition_point(|&b| b <= ci) - 1;
        let local = ci - self.chunk_base[ji];
        let ctx = self.gamma_ctx(ji);
        let routers = self.ext.commodity_routers(ctx.j);
        let lo = local * GAMMA_CHUNK;
        let hi = routers.len().min(lo + GAMMA_CHUNK);
        // SAFETY: lane `worker` is exclusive to this participant; stat
        // and flag slot `ci` are exclusive to this task.
        let lane = unsafe { self.lanes.slot_mut(worker) };
        let stat = unsafe { self.stats.slot_mut(ci) };
        let flag = unsafe { sp.chunk_flags.slot_mut(ci) };
        gamma_chunk_tracked(&ctx, &routers[lo..hi], lane, stat, flag);
    }

    /// Sparse flow pass for commodity `ji` over its live arcs.
    fn sparse_flow_task(&self, sp: &SparseCtl<'_>, ji: usize) {
        let j = CommodityId::from_index(ji);
        // SAFETY: this task is the sole accessor of row `ji` of each
        // table in this phase; Γ and the live-arc rebuild for `ji` have
        // already finished (chain order or the preceding barrier).
        unsafe {
            let t = self.t.row_mut(ji);
            let x = self.x.row_mut(ji);
            let fe = self.fe_part.row_mut(ji);
            let fnode = self.fn_part.row_mut(ji);
            zero_flow_rows_scoped(self.ext, j, t, x, fe, fnode);
            flow_sweep_active(
                self.ext,
                self.phi.row_slice(ji),
                j,
                t,
                x,
                fe,
                fnode,
                sp.arc_len.row(ji),
                sp.arcs.row(ji),
            );
        }
    }

    /// Post-Γ bookkeeping for one dirty commodity: record whether its
    /// fractions moved, rebuild its live arcs if the support changed,
    /// and run the flow pass when anything (or an invalidation) demands
    /// it. Skipping the flow pass is sound because the commodity's
    /// traffic/edge-flow rows and usage-partial rows all persist and Γ
    /// reproduced the exact fraction row that produced them.
    fn sparse_finish_commodity(&self, sp: &SparseCtl<'_>, ji: usize, value: bool, support: bool) {
        // SAFETY: per-commodity slots/rows `ji` are exclusive to this
        // task in this phase; the fraction row is read-only after Γ.
        unsafe {
            *sp.phi_changed.slot_mut(ji) = value;
            if support {
                let live = rebuild_active_row(
                    self.ext,
                    CommodityId::from_index(ji),
                    self.phi.row_slice(ji),
                    sp.arc_len.row_mut(ji),
                    sp.arcs.row_mut(ji),
                );
                *sp.live.slot_mut(ji) = live;
            }
            if value || sp.flow_dirty[ji] {
                self.sparse_flow_task(sp, ji);
                *sp.flow_ran.slot_mut(ji) = true;
            }
        }
    }

    /// Sparse phase A for participant `w`: the same structure as the
    /// dense [`FusedViews::phase_a`], but every claiming loop splits the
    /// compacted dirty work lists instead of `0..J` — quiescent
    /// commodities cost nothing.
    fn sparse_phase_a(&self, sp: &SparseCtl<'_>, w: usize, pool: &WorkerPool) {
        if self.split {
            claim(&self.c_a, sp.dirty_list.len(), |di| {
                self.sparse_tag_task(sp, sp.dirty_list[di] as usize);
            });
            pool.phase_wait();
            claim(&self.c_gamma, sp.chunk_list.len(), |ci| {
                self.sparse_gamma_chunk_task(sp, sp.chunk_list[ci] as usize, w);
            });
            pool.phase_wait();
            claim(&self.c_flows, sp.dirty_list.len(), |di| {
                let ji = sp.dirty_list[di] as usize;
                // Fold this commodity's chunk flags — read-only now,
                // every Γ chunk finished at the preceding barrier.
                let mut value = false;
                let mut support = false;
                for ci in self.chunk_base[ji]..self.chunk_base[ji + 1] {
                    // SAFETY: read-only after the Γ barrier.
                    let flag = unsafe { &*sp.chunk_flags.slot_mut(ci) };
                    value |= flag.0;
                    support |= flag.1;
                }
                self.sparse_finish_commodity(sp, ji, value, support);
            });
        } else {
            claim(&self.c_a, sp.dirty_list.len(), |di| {
                let ji = sp.dirty_list[di] as usize;
                self.sparse_tag_task(sp, ji);
                let (value, support) = self.sparse_gamma_commodity(sp, ji, w);
                self.sparse_finish_commodity(sp, ji, value, support);
            });
        }
    }

    /// Participant 0's sparse critical section (between the barriers):
    /// reduce the usage totals only if any flow pass ran, decide whether
    /// they changed (exact bitwise comparison against the previous
    /// totals), and publish the marginal work list for phase B.
    ///
    /// # Safety
    ///
    /// Caller must guarantee exclusive access to totals, partials, and
    /// the sparse control tables (between phase barriers only).
    unsafe fn sparse_reduce(&self, sp: &SparseCtl<'_>) {
        // SAFETY: exclusive access per the caller contract.
        unsafe {
            let mut any_flows = false;
            for &ji in sp.dirty_list {
                any_flows |= *sp.flow_ran.slot_mut(ji as usize);
            }
            let totals_changed = any_flows
                && reduce_usage_totals_tracked(
                    self.ext,
                    self.fe_tot.row_mut(0),
                    self.fn_tot.row_mut(0),
                    self.fe_part.as_slice(),
                    self.fn_part.as_slice(),
                    sp.prev_fe.row_mut(0),
                    sp.prev_fn.row_mut(0),
                    sp.force_totals,
                );
            let effective = totals_changed || sp.force_totals;
            let mut n = 0usize;
            for ji in 0..self.j_count {
                if effective || *sp.phi_changed.slot_mut(ji) {
                    *sp.marg_list.slot_mut(n) = ji as u32;
                    n += 1;
                }
            }
            *sp.scratch.slot_mut(SCRATCH_MARG_LEN) = n as u64;
            *sp.scratch.slot_mut(SCRATCH_TOTALS_EFFECTIVE) = u64::from(effective);
        }
    }

    /// Sparse phase B: marginal sweeps for the published work list only.
    /// No row zero-fill — non-router `d` entries are invariantly zero
    /// (see [`crate::marginals::marginal_sweep_active`]).
    fn sparse_phase_b(&self, sp: &SparseCtl<'_>) {
        // SAFETY: written by participant 0 before the last barrier.
        let n = unsafe { *sp.scratch.slot_mut(SCRATCH_MARG_LEN) } as usize;
        claim(&self.c_marg, n, |mi| {
            // SAFETY: marg_list/live/arc rows are read-only in this
            // phase; this task is `d` row `ji`'s sole writer.
            unsafe {
                let ji = *sp.marg_list.slot_mut(mi) as usize;
                let j = CommodityId::from_index(ji);
                marginal_sweep_active(
                    self.ext,
                    self.cost,
                    self.phi.row_slice(ji),
                    self.usage(),
                    j,
                    self.d.row_mut(ji),
                    sp.arc_len.row(ji),
                    sp.arcs.row(ji),
                    *sp.live.slot_mut(ji),
                );
            }
        });
    }
}

/// Builds the iteration's compacted work lists from the carried dirty
/// flags and rebuilds any live-arc row an invalidation marked stale
/// (cheap: only ever needed right after an invalidation). The dirty
/// lists are what the pool's claiming loops split — the active-set
/// weighted work splitting.
pub(crate) fn sparse_prepare(
    active: &mut ActiveSet,
    ext: &ExtendedNetwork,
    routing: &RoutingTable,
    chunk_base: &[usize],
    split: bool,
) {
    active.phi_changed.iter_mut().for_each(|x| *x = false);
    active.flow_ran.iter_mut().for_each(|x| *x = false);
    active.dirty_list.clear();
    active.chunk_list.clear();
    for ji in 0..active.chain_dirty.len() {
        if !active.chain_dirty[ji] {
            continue;
        }
        let j = CommodityId::from_index(ji);
        active.dirty_list.push(ji as u32);
        if active.arcs.stale[ji] {
            active.arcs.rebuild(ext, j, routing.row(j));
        }
        if split {
            for ci in chunk_base[ji]..chunk_base[ji + 1] {
                active.chunk_list.push(ci as u32);
            }
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

/// The active-set engine's pooled step (`GradientConfig::sparsity` with
/// a worker pool): the dense fused protocol with every phase claiming
/// over compacted dirty lists and every sweep walking live-arc
/// sub-lists. Bit-identical to [`fused_step`] — each skipped pass is
/// one whose re-run would reproduce its outputs bit-for-bit, and each
/// sparse kernel performs the dense kernel's float operations in the
/// dense order.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's state fields
pub(crate) fn fused_step_sparse(
    ext: &ExtendedNetwork,
    cost: &mut CostModel,
    config: &GradientConfig,
    pool: &WorkerPool,
    routing: &mut RoutingTable,
    state: &mut FlowState,
    marginals: &mut Marginals,
    tags: &mut BlockedTags,
    ws: &mut IterationWorkspace,
    active: &mut ActiveSet,
    anneal_to: Option<f64>,
) -> GammaStats {
    let v_count = ext.graph().node_count();
    let l_count = ext.graph().edge_count();
    let j_count = ext.num_commodities();
    if state.t.len() != j_count * v_count || state.x.len() != j_count * l_count {
        state.reset(ext);
    }
    if marginals.d.len() != j_count * v_count {
        marginals.reset(ext);
    }
    if tags.tagged.len() != j_count * v_count {
        tags.reset(ext);
    }
    // A worker-count change re-zeroes the persistent usage partials, so
    // the workspace shape key must be checked *before* trusting them.
    if !ws.sized_for_workers(ext, pool.participants()) {
        active.invalidate();
    }
    ws.ensure_workers(ext, pool.participants());
    active.ensure(ext);
    let split = j_count < pool.participants();
    sparse_prepare(active, ext, routing, &ws.chunk_base, split);

    let force_totals = active.force_totals;
    let annealed = anneal_to.is_some();

    let build_and_run = |routing: &mut RoutingTable,
                         state: &mut FlowState,
                         marginals: &mut Marginals,
                         tags: &mut BlockedTags,
                         ws: &mut IterationWorkspace,
                         active: &mut ActiveSet,
                         cost: &CostModel,
                         body: &dyn Fn(&FusedViews<'_>, &SparseCtl<'_>)| {
        let parts = ws.parts();
        let views = FusedViews {
            ext,
            cost,
            phi: PhiTable::new(routing.flat_mut(), l_count.max(1)),
            t: RowTable::new(&mut state.t, v_count.max(1)),
            x: RowTable::new(&mut state.x, l_count.max(1)),
            fe_part: RowTable::new(parts.f_edge_part, l_count.max(1)),
            fn_part: RowTable::new(parts.f_node_part, v_count.max(1)),
            fe_tot: RowTable::new(&mut state.f_edge, l_count.max(1)),
            fn_tot: RowTable::new(&mut state.f_node, v_count.max(1)),
            d: RowTable::new(&mut marginals.d, v_count.max(1)),
            tags: RowTable::new(&mut tags.tagged, v_count.max(1)),
            lanes: SlotTable::new(parts.lanes),
            stats: SlotTable::new(parts.stats),
            chunk_base: parts.chunk_base,
            j_count,
            eta: config.eta,
            traffic_floor: config.traffic_floor,
            opening_fraction: config.opening_fraction,
            shift_cap: config.shift_cap,
            use_blocked_sets: config.use_blocked_sets,
            split,
            c_a: AtomicUsize::new(0),
            c_gamma: AtomicUsize::new(0),
            c_flows: AtomicUsize::new(0),
            c_marg: AtomicUsize::new(0),
        };
        let ctl = SparseCtl {
            dirty_list: &active.dirty_list,
            chunk_list: &active.chunk_list,
            flow_dirty: &active.flow_dirty,
            phi_changed: SlotTable::new(&mut active.phi_changed),
            flow_ran: SlotTable::new(&mut active.flow_ran),
            chunk_flags: SlotTable::new(&mut active.chunk_flags),
            marg_list: SlotTable::new(&mut active.marg_list),
            scratch: SlotTable::new(&mut active.scratch),
            prev_fe: RowTable::new(&mut active.prev_f_edge, l_count.max(1)),
            prev_fn: RowTable::new(&mut active.prev_f_union, ext.router_union().len().max(1)),
            arc_len: RowTable::new(&mut active.arcs.arc_len, active.arcs.router_stride.max(1)),
            arcs: RowTable::new(&mut active.arcs.arcs, active.arcs.arc_stride.max(1)),
            live: SlotTable::new(&mut active.arcs.live),
            force_totals,
        };
        body(&views, &ctl);
    };

    if !annealed {
        build_and_run(
            routing,
            state,
            marginals,
            tags,
            ws,
            active,
            cost,
            &|views, ctl| {
                pool.run_participants(&|w| {
                    views.sparse_phase_a(ctl, w, pool);
                    pool.phase_wait();
                    if w == 0 {
                        // SAFETY: between barriers; all other
                        // participants are parked on the next
                        // phase_wait.
                        unsafe { views.sparse_reduce(ctl) }
                    }
                    pool.phase_wait();
                    views.sparse_phase_b(ctl);
                });
            },
        );
        let effective = active.scratch[SCRATCH_TOTALS_EFFECTIVE] != 0;
        sparse_carry_forward(active, effective, false);
        return reduce_gamma_stats(ws, j_count);
    }

    // ε-annealing iteration: the epsilon mutation must land between
    // flows and marginals — two dispatches, with the reduction and the
    // work-list publication done by the caller in between. Every
    // marginal sweep re-runs (the cost model changed), and every chain
    // is dirty next iteration.
    build_and_run(
        routing,
        state,
        marginals,
        tags,
        ws,
        active,
        cost,
        &|views, ctl| {
            pool.run_participants(&|w| views.sparse_phase_a(ctl, w, pool));
        },
    );
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
            force_totals,
        );
    let effective = totals_changed || force_totals;
    let stats = reduce_gamma_stats(ws, j_count);
    if let Some(eps) = anneal_to {
        cost.epsilon = eps;
    }
    for ji in 0..j_count {
        active.marg_list[ji] = ji as u32;
    }
    active.scratch[SCRATCH_MARG_LEN] = j_count as u64;
    active.scratch[SCRATCH_TOTALS_EFFECTIVE] = u64::from(effective);
    build_and_run(
        routing,
        state,
        marginals,
        tags,
        ws,
        active,
        cost,
        &|views, ctl| {
            pool.run_participants(&|_w| views.sparse_phase_b(ctl));
        },
    );
    sparse_carry_forward(active, effective, true);
    stats
}

/// The active-set engine's serial step (`GradientConfig::sparsity`
/// without a pool): the same skip algebra as [`fused_step_sparse`] run
/// single-threaded, with the per-commodity usage partials persisting in
/// the workspace across iterations so a skipped flow pass contributes
/// its unchanged rows to the ascending-order totals reduction.
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
    let v_count = ext.graph().node_count();
    let l_count = ext.graph().edge_count();
    let j_count = ext.num_commodities();
    if state.t.len() != j_count * v_count || state.x.len() != j_count * l_count {
        state.reset(ext);
    }
    if marginals.d.len() != j_count * v_count {
        marginals.reset(ext);
    }
    if tags.tagged.len() != j_count * v_count {
        tags.reset(ext);
    }
    if !ws.sized_for_workers(ext, 1) {
        active.invalidate();
    }
    ws.ensure_workers(ext, 1);
    active.ensure(ext);
    sparse_prepare(active, ext, routing, &ws.chunk_base, false);

    // Phase A: tag → Γ → flow chains for the dirty commodities only.
    for di in 0..active.dirty_list.len() {
        let ji = active.dirty_list[di] as usize;
        let j = CommodityId::from_index(ji);
        let tag_row = &mut tags.tagged[ji * v_count..(ji + 1) * v_count];
        clear_tags_scoped(ext, j, tag_row);
        if config.use_blocked_sets {
            let (lens, arcs, live) = active.arcs.row(ji);
            tag_sweep_active(
                ext,
                cost,
                routing.row(j),
                state.t_row(j),
                state.usage_view(),
                marginals.row(j),
                config.eta,
                config.traffic_floor,
                j,
                tag_row,
                lens,
                arcs,
                live,
            );
        }
        let mut value = false;
        let mut support = false;
        {
            let ctx = GammaCtx {
                ext,
                cost,
                phi: PhiRow::from_mut(routing.row_mut(j)),
                t_row: state.t_row(j),
                usage: state.usage_view(),
                d_row: marginals.row(j),
                tag_row: tags.row(j),
                eta: config.eta,
                traffic_floor: config.traffic_floor,
                opening_floor: config.opening_fraction * ext.commodity(j).max_rate,
                shift_cap: config.shift_cap,
                j,
            };
            let routers = ext.commodity_routers(j);
            for (c, chunk) in routers.chunks(GAMMA_CHUNK).enumerate() {
                let slot = ws.chunk_base[ji] + c;
                gamma_chunk_tracked(
                    &ctx,
                    chunk,
                    &mut ws.lanes[0],
                    &mut ws.stats[slot],
                    &mut active.chunk_flags[slot],
                );
                value |= active.chunk_flags[slot].0;
                support |= active.chunk_flags[slot].1;
            }
        }
        active.phi_changed[ji] = value;
        if support {
            active.arcs.rebuild(ext, j, routing.row(j));
        }
        if value || active.flow_dirty[ji] {
            let t = &mut state.t[ji * v_count..(ji + 1) * v_count];
            let x = &mut state.x[ji * l_count..(ji + 1) * l_count];
            let fe = &mut ws.f_edge_part[ji * l_count..(ji + 1) * l_count];
            let fnode = &mut ws.f_node_part[ji * v_count..(ji + 1) * v_count];
            zero_flow_rows_scoped(ext, j, t, x, fe, fnode);
            let (lens, arcs, _live) = active.arcs.row(ji);
            flow_sweep_active(ext, routing.row(j), j, t, x, fe, fnode, lens, arcs);
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
        let d = &mut marginals.d[ji * v_count..(ji + 1) * v_count];
        let (lens, arcs, live) = active.arcs.row(ji);
        marginal_sweep_active(
            ext,
            cost,
            routing.row(j),
            state.usage_view(),
            j,
            d,
            lens,
            arcs,
            live,
        );
    }

    sparse_carry_forward(active, effective, annealed);
    reduce_gamma_stats(ws, j_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::compute_flows_into;
    use spn_graph::NodeId;
    use spn_model::random::RandomInstance;

    /// The dense reduction's `(edge totals, node totals, changed)` from
    /// the given old totals — the oracle for the tracked one.
    fn dense_oracle(
        ext: &ExtendedNetwork,
        old: (&[f64], &[f64]),
        ws: &IterationWorkspace,
    ) -> (Vec<f64>, Vec<f64>, bool) {
        let (mut fe, mut fnode) = (old.0.to_vec(), old.1.to_vec());
        reduce_usage_totals(
            &mut fe,
            &mut fnode,
            &ws.f_edge_part,
            &ws.f_node_part,
            old.0.len(),
            old.1.len(),
            ext.num_commodities(),
        );
        let changed = bits_differ(old.0, &fe) || bits_differ(old.1, &fnode);
        (fe, fnode, changed)
    }

    /// `reduce_usage_totals_tracked` against the dense
    /// `reduce_usage_totals` on whole arrays: equal totals, and a return
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
