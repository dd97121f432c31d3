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
//! or `−U''(λ−f)` on difference links). This is a *row rule* of the one
//! driver, [`GradientAlgorithm`]: its step (`crate::step`) runs the
//! curvature sweep over a commodity's live arcs ([`LiveArcSweeps`]) and
//! then Γ's rows with each shift divided by `κ` (the curvature argument
//! of the one row function), over the deciders only; flows, totals and
//! marginals are the same code for both rules.
//! [`NewtonGradient`] is that driver built with this rule; the
//! `newton_ablation` experiment compares the two rules. The step equals
//! one dense kernel replay of its pre-step state, checked every step by
//! the tests here (ARCHITECTURE invariant 17).
//!
//! [`LiveArcSweeps`]: crate::LiveArcSweeps

use crate::active::LiveRow;
use crate::cost::CostModel;
use crate::flows::UsageView;
use crate::gamma::GammaCtx;
use crate::step::RowRule;
use crate::{ConfigError, GradientAlgorithm, GradientConfig};
use spn_graph::EdgeId;
use spn_model::Problem;
use spn_transform::{EdgeKind, ExtendedNetwork};
use std::ops::{Deref, DerefMut};

/// Per-edge cost curvature `A''_l` (second derivative of the node cost
/// in the edge's resource usage).
pub(crate) fn edge_curvature(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    usage: UsageView<'_>,
    l: EdgeId,
) -> f64 {
    match ext.edge_kind(l) {
        EdgeKind::DummyDifference(j) => {
            let c = ext.commodity(j);
            let rejected = usage.f_edge[l.index()].clamp(0.0, c.max_rate);
            -c.utility.second_derivative(c.max_rate - rejected)
        }
        _ => {
            let tail = ext.graph().source(l);
            let cap = ext.capacity(tail);
            let load = usage.f_node[tail.index()];
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

/// Commodity `ctx.j`'s curvature row `H` (by member position) over its
/// live-arc row, against the pre-update fractions and totals. The dense
/// sweep (`compute_curvatures`, in the tests) skips `φ = 0` arcs and only
/// ever accumulates at routers (a non-router member is the sink or has
/// no out-arcs, so its `H` stays the zero it was initialised to), so a
/// reverse walk of the topo-ordered routers over exactly the
/// nonzero-fraction arcs performs the identical sequence of float
/// operations — bit-identical `H` rows.
pub(crate) fn curvature_sweep_active(ctx: &GammaCtx<'_>, h: &mut [f64], row: LiveRow<'_>) {
    let (ext, j) = (ctx.ext, ctx.j);
    let mut idx = row.live;
    for (r, &p) in ctx.members.routers_topo().iter().enumerate().rev() {
        let n = row.lens[r] as usize;
        idx -= n;
        let mut acc = 0.0;
        for (l, head) in row.span(idx, n) {
            let phi = ctx.phi[l.index()].get();
            debug_assert!(phi != 0.0, "live arc {l} with zero fraction");
            let c = ext.cost(j, l);
            let b = ext.beta(j, l);
            acc += phi * (c * c * edge_curvature(ext, ctx.cost, ctx.usage, l) + b * b * h[head]);
        }
        h[p as usize] = acc;
    }
    debug_assert_eq!(idx, 0, "live-arc row shorter than its length prefix");
}

/// Floors below this act as it: the division must stay far from a
/// denormal curvature.
const MIN_CURVATURE_FLOOR: f64 = 1e-12;

/// [`GradientAlgorithm`] with the Newton-scaled row rule. Derefs to the
/// driver, so every driver call — step, checkpoint and restore, admit
/// and evict, reports — works on it unchanged.
#[derive(Clone, Debug)]
pub struct NewtonGradient(GradientAlgorithm);

impl NewtonGradient {
    /// Builds the driver with the Newton row rule. `config.eta` plays
    /// the role of a (dimensionless) damping factor; `1.0` is the pure
    /// Newton step. Shifts are never scaled by a curvature below
    /// `curvature_floor` (flat regions would otherwise produce unbounded
    /// moves); floors below `1e-12` act as `1e-12`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadCurvatureFloor`] unless `curvature_floor` is
    /// finite and positive; otherwise the configuration errors of
    /// [`GradientAlgorithm::new`].
    pub fn new(
        problem: &Problem,
        config: GradientConfig,
        curvature_floor: f64,
    ) -> Result<Self, ConfigError> {
        if !(curvature_floor.is_finite() && curvature_floor > 0.0) {
            return Err(ConfigError::BadCurvatureFloor(curvature_floor));
        }
        let rule = RowRule::Newton {
            floor: curvature_floor.max(MIN_CURVATURE_FLOOR),
            h: Vec::new(),
        };
        GradientAlgorithm::with_rule(ExtendedNetwork::build(problem), config, rule)
            .map(NewtonGradient)
    }
}

impl Deref for NewtonGradient {
    type Target = GradientAlgorithm;

    fn deref(&self) -> &GradientAlgorithm {
        &self.0
    }
}

impl DerefMut for NewtonGradient {
    fn deref_mut(&mut self) -> &mut GradientAlgorithm {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{compute_flows, FlowState};
    use crate::gamma::gamma_row_into;
    use crate::marginals::{compute_marginals, Marginals};
    use crate::routing::{apply_row, RoutingTable};
    use crate::workspace::GammaLane;
    use spn_model::random::RandomInstance;
    use spn_model::CommodityId;

    /// The dense curvature sweep: every commodity's `H` row over every
    /// member arc with a nonzero fraction, by member position.
    pub(super) fn compute_curvatures(
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
                    let (c, b) = (ext.cost(j, l), ext.beta(j, l));
                    let a2 = edge_curvature(ext, cost, state.usage_view(), l);
                    acc += phi * (c * c * a2 + b * b * h[head as usize]);
                }
                h[p] = acc;
            }
        }
        h
    }

    /// One dense Newton step replayed on copies of `alg`'s pre-step
    /// state: curvatures, the row of every router, flows from
    /// scratch, then marginals from scratch.
    fn dense_replay(alg: &GradientAlgorithm, floor: f64) -> (RoutingTable, FlowState, Marginals) {
        let (ext, cfg) = (alg.extended(), alg.config());
        let cost = *alg.cost_model();
        let (mut routing, state) = (alg.routing().clone(), alg.flows());
        let h = compute_curvatures(ext, &cost, &routing, state);
        let mut lane = GammaLane::default();
        for j in ext.commodity_ids() {
            let ctx = GammaCtx::new(
                ext,
                &cost,
                routing.row_cells(j),
                state,
                alg.marginals(),
                cfg.eta,
                cfg.traffic_floor,
                cfg.opening_fraction * ext.commodity(j).max_rate,
                cfg.shift_cap,
                j,
            );
            let curvature = Some((&h[ext.member_range(j)], floor));
            for &i in ctx.members.routers() {
                gamma_row_into(&ctx, curvature, i as usize, &mut lane);
                apply_row(ctx.phi, ctx.members.out_arcs(i as usize).0, &lane.row);
            }
        }
        let flows = compute_flows(ext, &routing);
        let marginals = compute_marginals(ext, &cost, &routing, &flows);
        (routing, flows, marginals)
    }

    /// Every float of a routing, flows and marginals triple as bits, so
    /// `-0.0` and `+0.0` differ (a derived `==` calls them equal).
    fn state_bits(
        ext: &ExtendedNetwork,
        (routing, flows, marginals): (&RoutingTable, &FlowState, &Marginals),
    ) -> [Vec<u64>; 3] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let phi = ext
            .commodity_ids()
            .flat_map(|j| bits(routing.row(j)))
            .collect();
        let f = [&flows.t, &flows.x, &flows.f_edge, &flows.f_node];
        let f = f.into_iter().flat_map(|v| bits(v)).collect();
        [phi, f, bits(&marginals.d)]
    }

    /// Steps `alg` once and asserts the step equals its dense replay,
    /// bit for bit.
    fn checked_step(alg: &mut NewtonGradient, floor: f64, what: &str) {
        let (routing, flows, marginals) = dense_replay(alg, floor);
        let expect = state_bits(alg.extended(), (&routing, &flows, &marginals));
        alg.step();
        let got = state_bits(
            alg.extended(),
            (alg.routing(), alg.flows(), alg.marginals()),
        );
        for (k, name) in ["fractions", "flows", "marginals"].into_iter().enumerate() {
            assert!(got[k] == expect[k], "{name}: {what}");
        }
    }

    fn instance() -> Problem {
        RandomInstance::builder()
            .nodes(16)
            .commodities(2)
            .seed(4)
            .build()
            .unwrap()
            .problem
    }

    fn damped(eta: f64) -> GradientConfig {
        GradientConfig {
            eta,
            ..GradientConfig::default()
        }
    }

    #[test]
    fn curvatures_are_nonnegative_and_zero_at_sink() {
        let p = instance();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
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
        let mut alg = NewtonGradient::new(&instance(), damped(0.5), 1e-6).unwrap();
        alg.run(2000);
        alg.routing().validate(alg.extended()).unwrap();
        assert!(alg.utility() > 0.0);
    }

    #[test]
    fn newton_tracks_fixed_eta_quality() {
        let p = instance();
        let mut fixed = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let mut newton = NewtonGradient::new(&p, damped(0.5), 1e-6).unwrap();
        let fixed_final = fixed.run(6000).utility;
        let newton_final = newton.run(6000).utility;
        assert!(
            newton_final > 0.85 * fixed_final,
            "newton {newton_final} vs fixed {fixed_final}"
        );
    }

    #[test]
    fn curvature_floor_guards_flat_regions() {
        // tiny floor with flat (linear-utility, idle) regions must not
        // produce NaNs or invalid rows
        let mut alg = NewtonGradient::new(&instance(), GradientConfig::default(), 1e-12).unwrap();
        alg.run(50);
        alg.routing().validate(alg.extended()).unwrap();
        assert!(alg.utility().is_finite());
    }

    /// Invariant 17: every Newton step equals one dense replay of its
    /// own pre-step state — fractions, flows with their totals, and
    /// marginals, bit for bit — across overload, midrange and
    /// near-converged regimes, through an evict + re-admit (which moves
    /// every member position, so curvature rows left from before it
    /// would be read at the wrong nodes).
    #[test]
    fn newton_step_equals_its_dense_replay() {
        for (nodes, commodities, seed, scale) in [
            (16usize, 2usize, 4u64, 1.0),
            (24, 3, 9, 3.0),
            (20, 4, 11, 0.2),
            (20, 3, 21, 1.0),
        ] {
            let p = RandomInstance::builder()
                .nodes(nodes)
                .commodities(commodities)
                .seed(seed)
                .build()
                .unwrap()
                .problem
                .scale_demand(scale);
            let mut alg = NewtonGradient::new(&p, damped(0.5), 1e-6).unwrap();
            for it in 0..300 {
                if it == 200 {
                    let first = CommodityId::from_index(0);
                    let parked = alg.extended().commodity_def(first);
                    alg.evict_commodity(first);
                    alg.admit_commodity(parked);
                }
                checked_step(&mut alg, 1e-6, &format!("iteration {it}, seed {seed}"));
            }
        }
    }

    /// Invariant 24 (a), Newton side: the step computes rows for the
    /// deciders only, and on the step after an outside write for every
    /// router — so a carrying pass-through row restored at `1 − 5e-8`,
    /// `0.5` or `0.0` is back at exactly `1.0` after one step, and every
    /// step of the 120 after it equals its dense replay. Fails on a
    /// version without the post-write full walk.
    #[test]
    fn perturbed_pass_through_rows_heal_on_the_invalidated_step() {
        let p = RandomInstance::builder()
            .nodes(24)
            .commodities(3)
            .seed(9)
            .build()
            .unwrap()
            .problem;
        let mut warm = NewtonGradient::new(&p, damped(0.5), 1e-6).unwrap();
        warm.run(60);
        let ext = warm.extended();
        // per commodity, the pass-through carrying the most traffic
        let rows: Vec<(CommodityId, EdgeId)> = ext
            .commodity_ids()
            .map(|j| {
                let m = ext.members(j);
                let t = warm.flows().t_row(ext, j);
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
        let l_count = ext.graph().edge_count();
        for value in [1.0 - 5e-8, 0.5, 0.0] {
            let mut alg = warm.clone();
            let mut ck = alg.checkpoint();
            for &(j, l) in &rows {
                ck.phi[j.index() * l_count + l.index()] = value;
            }
            alg.restore(&ck).unwrap();
            for it in 0..120 {
                let ctx = format!("perturbed to {value}, iteration {it}");
                checked_step(&mut alg, 1e-6, &ctx);
                for &(j, l) in &rows {
                    let phi = alg.routing().fraction(j, l);
                    assert_eq!(phi.to_bits(), 1.0f64.to_bits(), "{ctx}");
                }
            }
        }
    }
}
