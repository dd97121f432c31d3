//! ARCHITECTURE invariant 14: every step of the sparse engine equals
//! one dense kernel replay of its own pre-step state — same routing
//! table, same flow state, same marginals, same Γ statistics, down to
//! the last ulp — through every mid-run mutation (checkpoints restored,
//! η overrides, capacity/demand edits). The replay is the oracle in
//! `support/dense.rs`.
//!
//! The engine earns its speed by live-arc compaction: every commodity
//! runs every phase on every step, but the sweeps walk only the arcs
//! with a nonzero fraction and Γ only the routers with a choice. Each
//! sparse kernel performs the dense kernel's float operations in the
//! dense order — so any divergence at all, in any lane, is a soundness
//! bug rather than a tolerance question. That is why these tests
//! compare with `assert_eq!` on full state rather than norms.

#[path = "support/dense.rs"]
mod dense;

use dense::{assert_identical, checked_step, checked_steps};
use spn::core::{Checkpoint, GradientAlgorithm, GradientConfig};
use spn::model::random::RandomInstance;
use spn::model::CommodityId;
use spn::transform::ExtendedNetwork;

/// The core property over a grid of 20 random instances, each checked
/// against its dense replay at every one of 120 steps.
#[test]
fn sparse_is_bit_identical_to_dense_across_instances() {
    let grid = [
        // (nodes, commodities, seed, demand scale)
        (20usize, 2usize, 1u64, 1.0f64),
        (20, 2, 2, 3.0),
        (20, 3, 3, 0.2),
        (30, 3, 4, 1.0),
        (30, 4, 5, 0.5),
        (30, 5, 6, 2.0),
        (40, 4, 7, 0.2),
        (40, 5, 8, 1.0),
        (40, 6, 9, 3.0),
        (50, 5, 10, 1.0),
        (50, 6, 11, 0.5),
        (50, 8, 12, 1.0),
        (60, 6, 13, 0.2),
        (60, 8, 14, 1.0),
        (80, 8, 15, 1.0),
        (80, 8, 16, 2.0),
        (30, 5, 17, 1.0),
        (40, 6, 18, 0.2),
        (20, 2, 19, 1.0),
        (50, 8, 20, 3.0),
    ];
    for &(nodes, commodities, seed, scale) in &grid {
        let problem = RandomInstance::builder()
            .nodes(nodes)
            .commodities(commodities)
            .seed(seed)
            .build()
            .unwrap()
            .problem
            .scale_demand(scale);
        let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        let ctx = format!("nodes={nodes} commodities={commodities} seed={seed} scale={scale}");
        checked_steps(&mut alg, 120, &ctx);
    }
}

/// Mid-run mutations: checkpoint/restore, η overrides, and
/// capacity/demand jitter through `extended_mut`. A restore flags an
/// outside write (one Γ over every router, one full-width totals
/// reduction); the others change only the next step's inputs. Every
/// step through all of them must equal its dense replay.
#[test]
fn sparse_survives_midrun_mutations() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(22)
        .build()
        .unwrap()
        .problem;
    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();

    // Settle, then capture a checkpoint.
    checked_steps(&mut alg, 60, "before mutations");
    let ck = alg.checkpoint();

    // An η override and its reversal through `set_eta`.
    alg.set_eta(0.01);
    checked_steps(&mut alg, 25, "eta override");
    alg.set_eta(0.04);
    checked_steps(&mut alg, 25, "eta restored");

    // Demand jitter mid-run (dynamic-demand experiments).
    let j0 = CommodityId::from_index(0);
    let rate = alg.extended().commodity(j0).max_rate;
    alg.extended_mut().set_max_rate(j0, rate * 1.5);
    checked_steps(&mut alg, 40, "after demand jitter");

    // Roll back to the checkpoint: the live-arc rows describe the
    // pre-restore routing until the next step rebuilds them.
    alg.restore(&ck).unwrap();
    checked_steps(&mut alg, 50, "after checkpoint restore");
}

/// The converged regime is where the live-arc rows are shortest and Γ
/// moves least (most rows reproduce their bits) — a long run at low
/// demand must equal its dense replay there too.
#[test]
fn sparse_matches_dense_in_converged_regime() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(6)
        .seed(23)
        .build()
        .unwrap()
        .problem
        .scale_demand(0.2);
    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    checked_steps(&mut alg, 2000, "converging");
}

/// ARCHITECTURE invariant 24 (a) — Γ decides only where there is a
/// choice. The sparse step runs Γ over each commodity's deciders and
/// leaves its pass-throughs (one out-edge) alone, which is exact only
/// because a pass-through's row is `[(l, 1.0)]` and the step after any
/// outside write walks every router. So perturb one carrying
/// pass-through row per commodity from outside — through
/// `install_routing` (`1 − 5e-8`, which passes `validate`) and through
/// `Checkpoint::from_raw` + `restore` (`0.5`, `0.0`) — and hold every
/// step of the next 120 to its dense replay, with every perturbed row
/// back at exactly `1.0` after the first. On a version without the
/// post-write full-Γ step the sparse engine keeps the perturbed row and
/// this fails at the first step.
///
/// The same step zeroes the node totals full width (invariant 22: the
/// step otherwise zeroes the router union only, then the flow passes
/// add into it). So also restore a checkpoint whose usage on a node
/// outside every commodity's routers is poisoned (`7.5`, then `-0.0`):
/// that entry must read `+0.0` after the first step and after every
/// later one, as the replay's full reset leaves it. The later steps are
/// the ones a double-buffered totals pair gets wrong: swapped out after
/// the first step, the poisoned array comes back on the second unless
/// it is zeroed full width too.
#[test]
fn perturbed_pass_through_rows_heal_on_the_invalidated_step() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(22)
        .build()
        .unwrap()
        .problem;
    let mut warm = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    warm.run(60);
    let ext = warm.extended();
    let union = ext.router_union();
    let idle = ext
        .graph()
        .nodes()
        .find(|v| union.binary_search(v).is_err())
        .expect("the random family leaves idle nodes");
    // per commodity, the pass-through carrying the most traffic, and its
    // only out-edge
    let rows: Vec<_> = ext
        .commodity_ids()
        .map(|j| {
            let m = ext.members(j);
            let v = m
                .routers()
                .iter()
                .map(|&p| m.node(p as usize))
                .filter(|&v| ext.commodity_out_slice(j, v).len() == 1)
                .max_by(|&a, &b| {
                    let t = |v| warm.flows().traffic(ext, j, v);
                    t(a).total_cmp(&t(b))
                })
                .expect("every commodity has bandwidth nodes");
            assert!(
                warm.flows().traffic(ext, j, v) > 0.0,
                "{j}: no carrying pass-through"
            );
            (j, ext.commodity_out_slice(j, v)[0])
        })
        .collect();
    let perturbed = |value: f64| {
        let mut routing = warm.routing().clone();
        for &(j, l) in &rows {
            routing.set_fraction(j, l, value);
        }
        routing
    };
    let ck = warm.checkpoint();
    // `warm`'s state with the pass-through rows at `row` or the idle
    // node's usage at `idle_usage`
    let from_raw = |row: Option<f64>, idle_usage: Option<f64>| {
        // φ is flat row-major, `[j·L + l]`
        let mut phi = ck.phi().to_vec();
        if let Some(value) = row {
            for &(j, l) in &rows {
                phi[j.index() * ext.graph().edge_count() + l.index()] = value;
            }
        }
        let mut f_node = ck.f_node().to_vec();
        if let Some(z) = idle_usage {
            f_node[idle.index()] = z;
        }
        Checkpoint::from_raw(
            phi,
            ck.t().to_vec(),
            ck.x().to_vec(),
            ck.f_edge().to_vec(),
            f_node,
            ck.d().to_vec(),
            ck.iterations(),
            ck.epsilon(),
            ck.eta(),
            ck.epoch(),
        )
    };
    for (how, value) in [
        ("install", 1.0 - 5e-8),
        ("restore", 0.5),
        ("restore", 0.0),
        ("idle usage", 7.5),
        ("idle usage", -0.0),
    ] {
        let mut alg = warm.clone();
        match how {
            "install" => {
                perturbed(value)
                    .validate(ext)
                    .expect("within the tolerance");
                alg.install_routing(perturbed(value));
            }
            "restore" => alg.restore(&from_raw(Some(value), None)).unwrap(),
            _ => {
                alg.restore(&from_raw(None, Some(value))).unwrap();
                assert_eq!(
                    alg.flows().node_usage(idle).to_bits(),
                    value.to_bits(),
                    "the restore did not plant the poison"
                );
            }
        }
        for it in 0..120 {
            let ctx = format!("{how} {value} at iteration {it}");
            checked_step(&mut alg, &ctx);
            for &(j, l) in &rows {
                assert_eq!(
                    alg.routing().fraction(j, l).to_bits(),
                    1.0f64.to_bits(),
                    "pass-through row of {j} not reset: {ctx}"
                );
            }
            assert_eq!(
                alg.flows().node_usage(idle).to_bits(),
                0.0f64.to_bits(),
                "usage of idle node {idle} not reset: {ctx}"
            );
        }
    }
}

/// The thread knobs are inert shims (kept for the frozen `benchmark/`
/// surface): whatever `GradientConfig::threads` says, and whatever
/// `set_threads` is told mid-run, there is one schedule — three fresh
/// builds step bit-identically, full state, every step.
#[test]
#[allow(deprecated)] // the shims under test
fn thread_knobs_are_inert() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(22)
        .build()
        .unwrap()
        .problem;
    let build = |threads| {
        let cfg = GradientConfig {
            threads,
            ..GradientConfig::default()
        };
        GradientAlgorithm::new(&problem, cfg).unwrap()
    };
    let (mut one, mut seven, mut auto) = (build(1), build(7), build(0));
    let bits = |alg: &mut GradientAlgorithm| {
        let cost_before = alg.cost_model().total_cost(alg.extended(), alg.flows());
        let g = alg.step().gamma;
        (
            cost_before.to_bits(),
            g.total_shift.to_bits(),
            g.max_shift.to_bits(),
            g.rows,
        )
    };
    for it in 0..120 {
        if it == 60 {
            seven.set_threads(4);
        }
        assert_eq!(
            (seven.resolved_threads(), auto.resolved_threads()),
            (1, 1),
            "at iteration {it}"
        );
        let stats = bits(&mut one);
        assert_eq!(stats, bits(&mut seven), "step stats at iteration {it}");
        assert_eq!(stats, bits(&mut auto), "step stats at iteration {it}");
        assert_identical(&one, &seven, &format!("threads: 7 at iteration {it}"));
        assert_identical(&one, &auto, &format!("threads: 0 at iteration {it}"));
    }
}

/// Clones must carry the live-arc table: a clone of a warm sparse
/// algorithm continues the trajectory bit-for-bit.
#[test]
fn cloned_sparse_algorithm_continues_identically() {
    let problem = RandomInstance::builder()
        .nodes(30)
        .commodities(4)
        .seed(24)
        .build()
        .unwrap()
        .problem;
    let mut a = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    a.run(200);
    let mut b = a.clone();
    for it in 0..100 {
        a.step();
        b.step();
        assert_identical(&a, &b, &format!("clone, iteration {it}"));
    }
}

/// An algorithm built through `ExtendedNetwork::build` +
/// `from_extended` (the simulator's construction path) agrees with one
/// built from the problem, bit for bit.
#[test]
fn from_extended_construction_matches() {
    let problem = RandomInstance::builder()
        .nodes(30)
        .commodities(4)
        .seed(25)
        .build()
        .unwrap()
        .problem;
    let cfg = GradientConfig::default();
    let mut via_new = GradientAlgorithm::new(&problem, cfg).unwrap();
    let mut via_ext =
        GradientAlgorithm::from_extended(ExtendedNetwork::build(&problem), cfg).unwrap();
    for _ in 0..150 {
        via_new.step();
        via_ext.step();
    }
    assert_identical(&via_new, &via_ext, "from_extended");
}
