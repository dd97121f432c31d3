//! Second-derivative (Newton-scaled) step rule.
//!
//! Gallager's minimum-delay paper — which §5 generalizes — observes that
//! a well-chosen step should scale with the objective's *curvature*: a
//! fixed `η` is too timid where the cost surface is flat and too bold
//! where it is steep. The Bertsekas–Gafni–Gallager refinement divides
//! the fraction shift by an upper estimate of `∂²A/∂φ²`, which
//! propagates upstream exactly like the marginal costs:
//!
//! ```text
//! H_i(j) = Σ_k φ_ik(j) [ (c^j_ik)²·A''_ik + (β^j_ik)²·H_k(j) ]
//! Δ_ik(j) = min( φ_ik, η·a_ik(j) / (t_i(j) · max(κ_ik, floor)) )
//! κ_ik    = (c^j_ik)²·A''_ik + (β^j_ik)²·H_k(j)
//! ```
//!
//! with `A''` the per-edge cost curvature (penalty `ε·D'' + wall W''`,
//! or `−U''(λ−f)` on difference links). [`NewtonGradient`] drives the
//! same protocol as [`crate::GradientAlgorithm`] with this step rule;
//! the `newton_ablation` experiment compares the two.
//!
//! With `GradientConfig::sparsity` (the default) the driver runs on the
//! active-set engine of `crate::active`: curvatures propagate over the
//! live-arc sub-lists, the tag → Newton-row → flow chain runs only for
//! commodities whose inputs moved, and the flow/marginal state carries
//! forward bit-identically instead of being re-densified every sweep
//! (ARCHITECTURE invariant 17). `sparsity: false` selects the dense
//! reference step the equivalence tests pin the engine against.

use crate::active::{ActiveSet, LiveRow};
use crate::blocked::{compute_tags, tag_sweep_active, BlockedTags};
use crate::cost::CostModel;
use crate::flows::{compute_flows, FlowState};
use crate::marginals::{compute_marginals, marginal_sweep_active, Marginals};
use crate::routing::{apply_row, apply_row_tracked, RoutingTable};
use crate::step::{
    flow_pass_active, reduce_usage_totals_tracked, sparse_carry_forward, sparse_prepare,
};
use crate::workspace::IterationWorkspace;
use crate::{ConfigError, GradientConfig};
use spn_graph::EdgeId;
use spn_model::{CommodityId, Problem};
use spn_transform::{EdgeKind, ExtendedNetwork};

/// Per-edge cost curvature `A''_l` (second derivative of the node cost
/// in the edge's resource usage).
fn edge_curvature(ext: &ExtendedNetwork, cost: &CostModel, state: &FlowState, l: EdgeId) -> f64 {
    match ext.edge_kind(l) {
        EdgeKind::DummyDifference(j) => {
            let c = ext.commodity(j);
            let rejected = state.edge_usage(l).clamp(0.0, c.max_rate);
            -c.utility.second_derivative(c.max_rate - rejected)
        }
        _ => {
            let tail = ext.graph().source(l);
            let cap = ext.capacity(tail);
            let load = state.node_usage(tail);
            cost.epsilon * cost.penalty.second_derivative(cap, load)
                + wall_second_derivative(cost, cap, load)
        }
    }
}

fn wall_second_derivative(cost: &CostModel, c: spn_model::Capacity, z: f64) -> f64 {
    if cost.wall_strength == 0.0 || c.is_infinite() {
        return 0.0;
    }
    let cap = c.value();
    let theta = cost.wall_threshold;
    let s = (z / cap - theta) / (1.0 - theta);
    if s <= 0.0 {
        0.0
    } else {
        2.0 * cost.wall_strength * s / (cap * (1.0 - theta))
    }
}

/// Per-commodity curvature estimates `H_i(j)`, computed by the same
/// upstream sweep as the marginal costs. Ragged and keyed by member
/// position like every per-commodity node table: commodity `j`'s row is
/// `h[ext.member_range(j)]`.
#[must_use]
pub fn compute_curvatures(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
) -> Vec<f64> {
    let mut h = vec![0.0; ext.member_total()];
    for j in ext.commodity_ids() {
        let m = ext.members(j);
        let h = &mut h[ext.member_range(j)];
        let sink = ext.commodity(j).sink();
        for &p in m.topo().iter().rev() {
            let p = p as usize;
            if m.node(p) == sink {
                continue;
            }
            let mut acc = 0.0;
            let (out, heads) = m.out_arcs(p);
            for (&l, &head) in out.iter().zip(heads) {
                let phi = routing.fraction(j, l);
                if phi == 0.0 {
                    continue;
                }
                let c = ext.cost(j, l);
                let b = ext.beta(j, l);
                acc +=
                    phi * (c * c * edge_curvature(ext, cost, state, l) + b * b * h[head as usize]);
            }
            h[p] = acc;
        }
    }
    h
}

/// [`compute_curvatures`] for one commodity over its live-arc sub-list
/// (the active-set engine's curvature pass). The dense sweep skips
/// `φ = 0` arcs and only ever accumulates at routers (non-router,
/// non-sink nodes have no out-edges, so their `H` stays the zero it was
/// initialised to), so a reverse walk of the topo-ordered routers over
/// exactly the nonzero-fraction arcs performs the identical sequence of
/// float operations — bit-identical `H` rows.
fn curvature_sweep_active(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    state: &FlowState,
    phi: &[f64],
    j: CommodityId,
    h: &mut [f64],
    row: LiveRow<'_>,
) {
    let routers = ext.members(j).routers_topo();
    let mut idx = row.live;
    for (r, &p) in routers.iter().enumerate().rev() {
        let n = row.lens[r] as usize;
        idx -= n;
        let mut acc = 0.0;
        for (l, head) in row.span(idx, n) {
            debug_assert!(phi[l.index()] != 0.0, "live arc {l} with zero fraction");
            let c = ext.cost(j, l);
            let b = ext.beta(j, l);
            acc += phi[l.index()] * (c * c * edge_curvature(ext, cost, state, l) + b * b * h[head]);
        }
        h[p as usize] = acc;
    }
    debug_assert_eq!(idx, 0, "live-arc row shorter than its length prefix");
}

/// Fills `row` with the Newton-scaled fraction update of the router at
/// member position `i`. Shared verbatim by the dense and the active-set
/// step, so the two paths' float operations are the same code — the
/// equivalence tests compare their outputs bit-for-bit. `h_row` is
/// commodity `j`'s curvature row (`H_k(j)` by member position);
/// `m_buf`/`blocked_buf` are caller-owned scratch reused across routers.
#[allow(clippy::too_many_arguments)] // one router's full decision context
fn newton_row_into(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    tags: &BlockedTags,
    h_row: &[f64],
    config: &GradientConfig,
    curvature_floor: f64,
    opening_floor: f64,
    j: CommodityId,
    i: usize,
    m_buf: &mut Vec<f64>,
    blocked_buf: &mut Vec<bool>,
    row: &mut Vec<(EdgeId, f64)>,
) {
    row.clear();
    let (edges, heads) = ext.members(j).out_arcs(i);
    if edges.len() == 1 {
        row.push((edges[0], 1.0));
        return;
    }
    let (d_row, tag_row) = (marginals.row(ext, j), tags.row(ext, j));
    m_buf.clear();
    m_buf.extend(
        edges
            .iter()
            .zip(heads)
            .map(|(&l, &head)| cost.edge_marginal(ext, state, j, l, d_row[head as usize])),
    );
    blocked_buf.clear();
    blocked_buf.extend(
        edges
            .iter()
            .zip(heads)
            .map(|(&l, &head)| routing.fraction(j, l) == 0.0 && tag_row[head as usize]),
    );
    let best = edges
        .iter()
        .enumerate()
        .filter(|&(idx, _)| !blocked_buf[idx])
        .min_by(|a, b| m_buf[a.0].total_cmp(&m_buf[b.0]))
        .map(|(idx, _)| idx)
        .expect("at least one unblocked out-edge");
    let t_i = state.t_row(ext, j)[i].max(opening_floor);
    if t_i <= config.traffic_floor {
        row.extend(
            edges
                .iter()
                .enumerate()
                .map(|(idx, &l)| (l, if idx == best { 1.0 } else { 0.0 })),
        );
        return;
    }
    let m_min = m_buf[best];
    let mut collected = 0.0;
    for (idx, &l) in edges.iter().enumerate() {
        if idx == best {
            continue;
        }
        if blocked_buf[idx] {
            row.push((l, 0.0));
            continue;
        }
        let phi = routing.fraction(j, l);
        let a = (m_buf[idx] - m_min).max(0.0);
        // curvature along this link (edge + downstream estimate)
        let c = ext.cost(j, l);
        let b = ext.beta(j, l);
        let kappa = (c * c * edge_curvature(ext, cost, state, l)
            + b * b * h_row[heads[idx] as usize])
            .max(curvature_floor);
        let delta = phi
            .min(config.eta * a / (t_i * kappa))
            .min(config.shift_cap);
        collected += delta;
        row.push((l, phi - delta));
    }
    row.push((edges[best], routing.fraction(j, edges[best]) + collected));
}

/// The gradient algorithm with the Newton-scaled step rule.
#[derive(Clone, Debug)]
pub struct NewtonGradient {
    ext: ExtendedNetwork,
    cost: CostModel,
    config: GradientConfig,
    /// Curvature floor: steps are never scaled by less than this (flat
    /// regions would otherwise produce unbounded moves).
    curvature_floor: f64,
    routing: RoutingTable,
    state: FlowState,
    iterations: usize,
    /// Marginal costs carried across iterations (active-set path): row
    /// `j` always holds what a fresh reverse sweep of the current state
    /// would produce, refreshed in phase B only when its inputs moved.
    marginals: Marginals,
    /// Blocked tags carried across iterations (recomputed per dirty
    /// commodity at the head of its chain).
    tags: BlockedTags,
    /// Persistent per-commodity usage partials + chunk geometry.
    ws: IterationWorkspace,
    /// The dirty-set tracker and live-arc sub-lists.
    active: ActiveSet,
    /// Curvature estimates `H_v(j)` by member position
    /// (`h[member_range(j)]`), maintained with the same skip algebra as
    /// the marginals.
    h: Vec<f64>,
    /// Reusable Newton-row scratch (sized once to the max out-degree).
    row_buf: Vec<(EdgeId, f64)>,
    m_buf: Vec<f64>,
    blocked_buf: Vec<bool>,
}

impl NewtonGradient {
    /// Builds the Newton-scaled driver. `config.eta` plays the role of a
    /// (dimensionless) damping factor; `1.0` is the pure Newton step.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`crate::GradientAlgorithm`].
    pub fn new(
        problem: &Problem,
        config: GradientConfig,
        curvature_floor: f64,
    ) -> Result<Self, ConfigError> {
        let ext = ExtendedNetwork::build(problem);
        crate::GradientAlgorithm::from_extended(ext.clone(), config)?;
        let cost = CostModel {
            penalty: config.penalty,
            epsilon: config.epsilon,
            wall_threshold: config.wall_threshold,
            wall_strength: config.wall_strength,
        };
        let routing = RoutingTable::initial(&ext);
        let state = compute_flows(&ext, &routing);
        // m_0 up front: the sparse step's tag pass reads the carried
        // marginals, which must equal what the dense step computes at
        // the head of its first iteration.
        let marginals = compute_marginals(&ext, &cost, &routing, &state);
        let tags = BlockedTags::none(&ext);
        let h = vec![0.0; ext.member_total()];
        let max_deg = ext
            .commodity_ids()
            .map(|j| ext.max_out_degree(j))
            .max()
            .unwrap_or(0);
        Ok(NewtonGradient {
            cost,
            config,
            curvature_floor: curvature_floor.max(1e-12),
            routing,
            state,
            iterations: 0,
            marginals,
            tags,
            ws: IterationWorkspace::default(),
            active: ActiveSet::default(),
            h,
            row_buf: Vec::with_capacity(max_deg),
            m_buf: Vec::with_capacity(max_deg),
            blocked_buf: Vec::with_capacity(max_deg),
            ext,
        })
    }

    /// One Newton-scaled iteration: the active-set step when
    /// `config.sparsity` (the default), the dense reference step
    /// otherwise. Bit-identical either way (ARCHITECTURE invariant 17).
    pub fn step(&mut self) {
        if self.config.sparsity {
            self.sparse_step();
        } else {
            self.dense_step();
        }
        self.iterations += 1;
    }

    /// The dense reference step: recompute marginals, curvatures, and
    /// tags from scratch, update every router, re-derive all flows.
    fn dense_step(&mut self) {
        let marginals = compute_marginals(&self.ext, &self.cost, &self.routing, &self.state);
        let curvatures = compute_curvatures(&self.ext, &self.cost, &self.routing, &self.state);
        let tags = if self.config.use_blocked_sets {
            compute_tags(
                &self.ext,
                &self.cost,
                &self.routing,
                &self.state,
                &marginals,
                self.config.eta,
                self.config.traffic_floor,
            )
        } else {
            BlockedTags::none(&self.ext)
        };
        for j in self.ext.commodity_ids() {
            let opening_floor = self.config.opening_fraction * self.ext.commodity(j).max_rate;
            let m = self.ext.members(j);
            for &i in m.routers() {
                let i = i as usize;
                newton_row_into(
                    &self.ext,
                    &self.cost,
                    &self.routing,
                    &self.state,
                    &marginals,
                    &tags,
                    &curvatures[self.ext.member_range(j)],
                    &self.config,
                    self.curvature_floor,
                    opening_floor,
                    j,
                    i,
                    &mut self.m_buf,
                    &mut self.blocked_buf,
                    &mut self.row_buf,
                );
                apply_row(self.routing.row_cells(j), m.out_arcs(i).0, &self.row_buf);
            }
        }
        self.state = compute_flows(&self.ext, &self.routing);
    }

    /// The active-set step: the same skip algebra as
    /// [`crate::step`]'s sparse gradient step with Γ replaced by the
    /// Newton rule plus a live-arc curvature pass. A commodity's
    /// tag → curvature → Newton-row → flow chain runs only while its
    /// fractions or the shared totals are moving; everything it skips
    /// is bitwise what a re-run would reproduce, so the trajectory is
    /// bit-identical to [`Self::dense_step`]'s.
    fn sparse_step(&mut self) {
        let NewtonGradient {
            ext,
            cost,
            config,
            curvature_floor,
            routing,
            state,
            marginals,
            tags,
            ws,
            active,
            h,
            row_buf,
            m_buf,
            blocked_buf,
            ..
        } = self;
        let ext: &ExtendedNetwork = ext;
        let j_count = ext.num_commodities();
        if ws.ensure(ext) {
            active.invalidate();
        }
        active.ensure(ext);
        sparse_prepare(active, ext, routing);

        // Phase A: tag → curvature → Newton rows → flow for the dirty
        // commodities only.
        for di in 0..active.dirty_list.len() {
            let ji = active.dirty_list[di] as usize;
            let j = CommodityId::from_index(ji);
            let members = ext.member_range(j);
            let tag_row = &mut tags.tagged[members.clone()];
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
            // H over the pre-update fractions and current totals —
            // exactly the dense step's curvature inputs.
            curvature_sweep_active(
                ext,
                cost,
                state,
                routing.row(j),
                j,
                &mut h[members.clone()],
                active.arcs.row(ji),
            );
            let opening_floor = config.opening_fraction * ext.commodity(j).max_rate;
            let mut value = false;
            let mut support = false;
            let m = ext.members(j);
            let mut row = |i: u32| {
                let i = i as usize;
                newton_row_into(
                    ext,
                    cost,
                    routing,
                    state,
                    marginals,
                    tags,
                    &h[members.clone()],
                    config,
                    *curvature_floor,
                    opening_floor,
                    j,
                    i,
                    m_buf,
                    blocked_buf,
                    row_buf,
                );
                let (vc, sc) = apply_row_tracked(routing.row_cells(j), m.out_arcs(i).0, row_buf);
                value |= vc;
                support |= sc;
            };
            // the Newton rows of the deciders; of every router on the
            // step after an invalidation (a pass-through's row is
            // `[(l, 1.0)]` either way — see "Deciders and pass-throughs"
            // in `gamma.rs`)
            if active.force_totals {
                m.routers().iter().for_each(|&i| row(i));
            } else {
                m.deciders().iter().for_each(|&(i, _)| row(i));
            }
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

        // Phase B: refresh marginal rows for the next iteration — the
        // values the dense step would compute at its next head.
        for ji in 0..j_count {
            if !(effective || active.phi_changed[ji]) {
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

        sparse_carry_forward(active, effective, false);
    }

    /// Current overall utility.
    #[must_use]
    pub fn utility(&self) -> f64 {
        self.ext
            .commodity_ids()
            .map(|j| {
                self.ext
                    .commodity(j)
                    .utility
                    .value(self.state.admitted(&self.ext, j))
            })
            .sum()
    }

    /// Iterations elapsed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The routing decision.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The extended network.
    #[must_use]
    pub fn extended(&self) -> &ExtendedNetwork {
        &self.ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::bits_differ;
    use spn_model::random::RandomInstance;

    fn instance() -> Problem {
        RandomInstance::builder()
            .nodes(16)
            .commodities(2)
            .seed(4)
            .build()
            .unwrap()
            .problem
    }

    #[test]
    fn curvatures_are_nonnegative_and_zero_at_sink() {
        let p = instance();
        let mut alg = crate::GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(100);
        let h = compute_curvatures(alg.extended(), alg.cost_model(), alg.routing(), alg.flows());
        let ext = alg.extended();
        assert_eq!(h.len(), ext.member_total());
        assert!(h.iter().all(|&x| x >= 0.0));
        for j in ext.commodity_ids() {
            let sink = ext.member_pos(j, ext.commodity(j).sink()).unwrap();
            assert_eq!(h[ext.member_range(j)][sink], 0.0);
        }
    }

    #[test]
    fn newton_converges_and_stays_valid() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.5,
            ..GradientConfig::default()
        };
        let mut alg = NewtonGradient::new(&p, cfg, 1e-6).unwrap();
        for _ in 0..2000 {
            alg.step();
        }
        alg.routing().validate(alg.extended()).unwrap();
        assert!(alg.utility() > 0.0);
    }

    #[test]
    fn newton_tracks_fixed_eta_quality() {
        let p = instance();
        let mut fixed = crate::GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let newton_cfg = GradientConfig {
            eta: 0.5,
            ..GradientConfig::default()
        };
        let mut newton = NewtonGradient::new(&p, newton_cfg, 1e-6).unwrap();
        let fixed_final = fixed.run(6000).utility;
        for _ in 0..6000 {
            newton.step();
        }
        assert!(
            newton.utility() > 0.85 * fixed_final,
            "newton {} vs fixed {fixed_final}",
            newton.utility()
        );
    }

    #[test]
    fn curvature_floor_guards_flat_regions() {
        let p = instance();
        let cfg = GradientConfig::default();
        // tiny floor with flat (linear-utility, idle) regions must not
        // produce NaNs or invalid rows
        let mut alg = NewtonGradient::new(&p, cfg, 1e-12).unwrap();
        for _ in 0..50 {
            alg.step();
        }
        alg.routing().validate(alg.extended()).unwrap();
        assert!(alg.utility().is_finite());
    }

    /// Invariant 17: the active-set Newton step reproduces the dense
    /// reference trajectory bit-for-bit — fractions, flows, totals, and
    /// utility — across overload, midrange, and near-converged regimes.
    #[test]
    fn sparse_newton_is_bitwise_identical_to_dense() {
        for (nodes, commodities, seed, scale) in [
            (16usize, 2usize, 4u64, 1.0),
            (24, 3, 9, 3.0),
            (20, 4, 11, 0.2),
        ] {
            let p = RandomInstance::builder()
                .nodes(nodes)
                .commodities(commodities)
                .seed(seed)
                .build()
                .unwrap()
                .problem
                .scale_demand(scale);
            let cfg = GradientConfig {
                eta: 0.5,
                ..GradientConfig::default()
            };
            let dense_cfg = GradientConfig {
                sparsity: false,
                ..cfg
            };
            let sparse_cfg = GradientConfig {
                sparsity: true,
                ..cfg
            };
            let mut dense = NewtonGradient::new(&p, dense_cfg, 1e-6).unwrap();
            let mut sparse = NewtonGradient::new(&p, sparse_cfg, 1e-6).unwrap();
            for it in 0..300 {
                dense.step();
                sparse.step();
                let df = dense.routing.flat();
                let sf = sparse.routing.flat();
                for (idx, (a, b)) in df.iter().zip(sf).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fraction {idx} diverged at iteration {it} \
                         (seed {seed}, scale {scale}): dense {a} sparse {b}"
                    );
                }
                assert!(
                    !bits_differ(&dense.state.f_edge, &sparse.state.f_edge)
                        && !bits_differ(&dense.state.f_node, &sparse.state.f_node),
                    "usage totals diverged at iteration {it} (seed {seed}, scale {scale})"
                );
                assert_eq!(
                    dense.utility().to_bits(),
                    sparse.utility().to_bits(),
                    "utility diverged at iteration {it} (seed {seed}, scale {scale})"
                );
            }
        }
    }

    /// Invariant 24 (a), Newton side: the sparse Newton step computes
    /// rows for the deciders only, and on the step after an invalidation
    /// for every router — so a pass-through row written from outside
    /// (`1 − 5e-8`, `0.5`, `0.0`; installed the way
    /// `GradientAlgorithm::install_routing` does it: flows and marginals
    /// re-derived, tracker invalidated) is back at exactly `1.0` after
    /// one step, and dense ≡ sparse holds for 120 steps — fractions,
    /// flows, totals, utility. Fails on a version without the
    /// post-invalidation full walk.
    #[test]
    fn perturbed_pass_through_rows_heal_on_the_invalidated_step() {
        let p = RandomInstance::builder()
            .nodes(24)
            .commodities(3)
            .seed(9)
            .build()
            .unwrap()
            .problem;
        let cfg = |sparsity| GradientConfig {
            eta: 0.5,
            sparsity,
            ..GradientConfig::default()
        };
        let mut warm_dense = NewtonGradient::new(&p, cfg(false), 1e-6).unwrap();
        let mut warm_sparse = NewtonGradient::new(&p, cfg(true), 1e-6).unwrap();
        for _ in 0..60 {
            warm_dense.step();
            warm_sparse.step();
        }
        let ext = warm_dense.ext.clone();
        // per commodity, the pass-through carrying the most traffic
        let rows: Vec<(CommodityId, EdgeId)> = ext
            .commodity_ids()
            .map(|j| {
                let m = ext.members(j);
                let t = warm_dense.state.t_row(&ext, j);
                let p = m
                    .routers()
                    .iter()
                    .map(|&p| p as usize)
                    .filter(|&p| m.out_arcs(p).0.len() == 1)
                    .max_by(|&a, &b| t[a].total_cmp(&t[b]))
                    .expect("every commodity has bandwidth nodes");
                assert!(t[p] > 0.0, "{j}: no carrying pass-through");
                (j, m.out_arcs(p).0[0])
            })
            .collect();
        let install = |alg: &mut NewtonGradient, value: f64| {
            for &(j, l) in &rows {
                alg.routing.set_fraction(j, l, value);
            }
            alg.state = compute_flows(&alg.ext, &alg.routing);
            alg.marginals = compute_marginals(&alg.ext, &alg.cost, &alg.routing, &alg.state);
            alg.active.invalidate();
        };
        for value in [1.0 - 5e-8, 0.5, 0.0] {
            let (mut dense, mut sparse) = (warm_dense.clone(), warm_sparse.clone());
            install(&mut dense, value);
            install(&mut sparse, value);
            for it in 0..120 {
                dense.step();
                sparse.step();
                let ctx = format!("perturbed to {value}, iteration {it}");
                assert_eq!(dense.routing, sparse.routing, "fractions: {ctx}");
                assert_eq!(dense.state, sparse.state, "flows: {ctx}");
                assert_eq!(
                    dense.utility().to_bits(),
                    sparse.utility().to_bits(),
                    "{ctx}"
                );
                for &(j, l) in &rows {
                    assert_eq!(
                        sparse.routing.fraction(j, l).to_bits(),
                        1.0f64.to_bits(),
                        "{ctx}"
                    );
                }
            }
        }
    }

    /// The point of routing Newton through the active-set engine: once
    /// the trajectory reaches a fixpoint the dirty set drains to empty
    /// (no re-densification), and steps keep reproducing the same
    /// fractions.
    #[test]
    fn sparse_newton_drains_dirty_set_at_fixpoint() {
        use spn_model::builder::ProblemBuilder;
        use spn_model::UtilityFn;
        // A single-path chain: every router has one out-edge, so the
        // Newton rule reproduces φ bit-for-bit from the first step and
        // the chain must go clean immediately after.
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let x = b.server(10.0);
        let t = b.server(10.0);
        let e1 = b.link(s, x, 5.0);
        let e2 = b.link(x, t, 5.0);
        let j = b.commodity(s, t, 2.0, UtilityFn::throughput());
        b.uses(j, e1, 1.0, 1.0).uses(j, e2, 1.0, 1.0);
        let p = b.build().unwrap();
        let mut alg = NewtonGradient::new(&p, GradientConfig::default(), 1e-6).unwrap();
        // The interior routers are single-path, but the dummy source
        // keeps shifting admission mass until it reaches its corner —
        // step until one iteration reproduces every fraction bit-for-bit.
        let mut reached = false;
        for _ in 0..2000 {
            let before: Vec<u64> = alg.routing.flat().iter().map(|f| f.to_bits()).collect();
            alg.step();
            let after: Vec<u64> = alg.routing.flat().iter().map(|f| f.to_bits()).collect();
            if before == after {
                reached = true;
                break;
            }
        }
        assert!(reached, "chain instance never reached a Newton fixpoint");
        // A bit-reproducing step with unchanged totals must drain the
        // dirty set: the very next iteration runs no chains at all.
        assert!(
            alg.active.chain_dirty.iter().all(|&d| !d),
            "dirty set not drained after a bit-identical step"
        );
        let before: Vec<u64> = alg.routing.flat().iter().map(|f| f.to_bits()).collect();
        alg.step();
        assert!(alg.active.dirty_list.is_empty());
        let after: Vec<u64> = alg.routing.flat().iter().map(|f| f.to_bits()).collect();
        assert_eq!(before, after);
        assert!(alg.utility() > 0.0);
    }
}
