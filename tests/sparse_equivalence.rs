//! ARCHITECTURE invariant 14: the sparsity-aware active-set engine
//! (`GradientConfig::sparsity`) must produce **bit-identical** results
//! to the dense reference engine — same routing tables, same flow
//! state, same marginals, down to the last ulp, through every mid-run
//! mutation (checkpoints restored, η backoff, capacity/demand edits).
//!
//! The engine earns its speedup by *skipping* work (quiescent
//! commodity chains, zero-fraction arcs, unchanged marginal sweeps),
//! and every skip is justified by an exact bitwise-unchanged-inputs
//! argument — so any divergence at all, in any lane, is a soundness bug
//! rather than a tolerance question. That is why these tests compare
//! with `assert_eq!` on full state rather than norms.

use spn::core::{Checkpoint, GradientAlgorithm, GradientConfig, StepStats};
use spn::model::random::RandomInstance;
use spn::model::CommodityId;
use spn::transform::ExtendedNetwork;

/// Asserts complete bitwise state agreement between two algorithms.
fn assert_identical(dense: &GradientAlgorithm, sparse: &GradientAlgorithm, what: &str) {
    assert_eq!(
        dense.routing(),
        sparse.routing(),
        "routing diverged: {what}"
    );
    assert_eq!(dense.flows(), sparse.flows(), "flow state diverged: {what}");
    assert_eq!(
        dense.marginals(),
        sparse.marginals(),
        "marginals diverged: {what}"
    );
    let (rd, rs) = (dense.report(), sparse.report());
    assert_eq!(
        rd.utility.to_bits(),
        rs.utility.to_bits(),
        "utility not bit-identical: {what}"
    );
    for (j, (x, y)) in rd.admitted.iter().zip(&rs.admitted).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "admitted rate of commodity {j} differs: {what}"
        );
    }
}

/// The core property over a grid of 20 random instances, each stepped
/// in lock step with full-state comparison at every iteration.
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
        let dense_cfg = GradientConfig {
            sparsity: false,
            ..GradientConfig::default()
        };
        let sparse_cfg = GradientConfig {
            sparsity: true,
            ..GradientConfig::default()
        };
        let mut dense = GradientAlgorithm::new(&problem, dense_cfg).unwrap();
        let mut sparse = GradientAlgorithm::new(&problem, sparse_cfg).unwrap();
        for it in 0..120 {
            let sd = dense.step();
            let ss = sparse.step();
            let ctx = format!(
                "at iteration {it} (nodes={nodes} commodities={commodities} \
                 seed={seed} scale={scale})"
            );
            assert_eq!(dense.routing(), sparse.routing(), "routing diverged {ctx}");
            // Step statistics feed `run_until_stable`; cached chunk
            // stats of skipped commodities must reproduce the dense
            // accumulation bit-for-bit too.
            assert_eq!(
                sd.gamma.max_shift.to_bits(),
                ss.gamma.max_shift.to_bits(),
                "gamma max_shift diverged {ctx}"
            );
            assert_eq!(
                sd.gamma.total_shift.to_bits(),
                ss.gamma.total_shift.to_bits(),
                "gamma total_shift diverged {ctx}"
            );
            assert_eq!(sd.gamma.rows, ss.gamma.rows, "gamma rows diverged {ctx}");
        }
        assert_identical(
            &dense,
            &sparse,
            &format!("nodes={nodes} commodities={commodities} seed={seed}"),
        );
    }
}

/// ε-annealing mutates the cost model *inside* a step (marginals are
/// swept at the new ε while flows were forecast before it); the sparse
/// engine must land the mutation between the same two phases.
#[test]
fn sparse_matches_dense_through_annealing() {
    let problem = RandomInstance::builder()
        .nodes(30)
        .commodities(4)
        .seed(21)
        .build()
        .unwrap()
        .problem;
    let anneal = |sparsity| GradientConfig {
        sparsity,
        epsilon_factor: 0.5,
        epsilon_interval: 25,
        ..GradientConfig::default()
    };
    let mut dense = GradientAlgorithm::new(&problem, anneal(false)).unwrap();
    let mut sparse = GradientAlgorithm::new(&problem, anneal(true)).unwrap();
    for it in 0..150 {
        dense.step();
        sparse.step();
        assert_eq!(
            dense.routing(),
            sparse.routing(),
            "routing diverged at iteration {it} across an anneal boundary"
        );
    }
    assert_identical(&dense, &sparse, "annealed run");
}

/// Mid-run mutations: checkpoint/restore, η backoff, and
/// capacity/demand jitter through `extended_mut`. Each one invalidates
/// the active set; the sparse trajectory must stay glued to the dense
/// one through all of them.
#[test]
fn sparse_survives_midrun_mutations() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(22)
        .build()
        .unwrap()
        .problem;
    let cfg = |sparsity| GradientConfig {
        sparsity,
        ..GradientConfig::default()
    };
    let mut dense = GradientAlgorithm::new(&problem, cfg(false)).unwrap();
    let mut sparse = GradientAlgorithm::new(&problem, cfg(true)).unwrap();

    let run = |d: &mut GradientAlgorithm, s: &mut GradientAlgorithm, n: usize| {
        for _ in 0..n {
            d.step();
            s.step();
        }
    };

    // Settle, then capture a checkpoint of each trajectory.
    run(&mut dense, &mut sparse, 60);
    let (ck_d, ck_s) = (dense.checkpoint(), sparse.checkpoint());
    assert_identical(&dense, &sparse, "before mutations");

    // η backoff and recovery, as the watchdog would apply it.
    dense.set_eta(0.01);
    sparse.set_eta(0.01);
    run(&mut dense, &mut sparse, 25);
    dense.set_eta(0.04);
    sparse.set_eta(0.04);
    run(&mut dense, &mut sparse, 25);
    assert_identical(&dense, &sparse, "after eta backoff/recovery");

    // Demand jitter mid-run (dynamic-demand experiments).
    let j0 = CommodityId::from_index(0);
    let rate = dense.extended().commodity(j0).max_rate;
    dense.extended_mut().set_max_rate(j0, rate * 1.5);
    sparse.extended_mut().set_max_rate(j0, rate * 1.5);
    run(&mut dense, &mut sparse, 40);
    assert_identical(&dense, &sparse, "after demand jitter");

    // Roll both back to their checkpoints: trajectories replay in lock
    // step even though the sparse tracker's history is now meaningless.
    dense.restore(&ck_d).unwrap();
    sparse.restore(&ck_s).unwrap();
    run(&mut dense, &mut sparse, 50);
    assert_identical(&dense, &sparse, "after checkpoint restore");
}

/// The converged regime is where the active-set engine actually skips
/// work (quiescent chains, unchanged totals) — a long run at low demand
/// must stay bit-identical precisely where the skip logic is hottest.
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
    let dense_cfg = GradientConfig {
        sparsity: false,
        ..GradientConfig::default()
    };
    let mut dense = GradientAlgorithm::new(&problem, dense_cfg).unwrap();
    let mut sparse = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    // Settle deep into convergence, comparing periodically, then check
    // every lane at the end.
    for block in 0..40 {
        for _ in 0..50 {
            dense.step();
            sparse.step();
        }
        assert_eq!(
            dense.routing(),
            sparse.routing(),
            "routing diverged by iteration {}",
            (block + 1) * 50
        );
    }
    assert_identical(&dense, &sparse, "converged");
}

/// ARCHITECTURE invariant 24 (a) — Γ decides only where there is a
/// choice. The sparse step runs Γ over each commodity's deciders and
/// leaves its pass-throughs (one out-edge) alone, which is exact only
/// because a pass-through's row is `[(l, 1.0)]` and the step after any
/// invalidation walks every router. So perturb one carrying
/// pass-through row per commodity from outside — through
/// `install_routing` (`1 − 5e-8`, which passes `validate`) and through
/// `Checkpoint::from_raw` + `restore` (`0.5`, `0.0`) — and hold dense ≡
/// sparse, full state and `StepStats` bits, for 120 steps, with every
/// perturbed row back at exactly `1.0` after the first. On a version
/// without the post-invalidation full-Γ step the sparse engine keeps the
/// perturbed row and this fails at the first step.
#[test]
fn perturbed_pass_through_rows_heal_on_the_invalidated_step() {
    let problem = RandomInstance::builder()
        .nodes(40)
        .commodities(5)
        .seed(22)
        .build()
        .unwrap()
        .problem;
    let build = |sparsity| {
        let cfg = GradientConfig {
            sparsity,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&problem, cfg).unwrap();
        alg.run(60);
        alg
    };
    let warm = build(false);
    let ext = warm.extended();
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
    let stats_bits = |s: StepStats| {
        let g = s.gamma;
        (
            s.cost_before.to_bits(),
            g.total_shift.to_bits(),
            g.max_shift.to_bits(),
            g.rows,
        )
    };
    let ck = warm.checkpoint();
    let from_raw = |value: f64| {
        // φ is flat row-major, `[j·L + l]`
        let mut phi = ck.phi().to_vec();
        for &(j, l) in &rows {
            phi[j.index() * ext.graph().edge_count() + l.index()] = value;
        }
        Checkpoint::from_raw(
            phi,
            ck.t().to_vec(),
            ck.x().to_vec(),
            ck.f_edge().to_vec(),
            ck.f_node().to_vec(),
            ck.d().to_vec(),
            ck.iterations(),
            ck.epsilon(),
            ck.eta(),
            ck.epoch(),
        )
    };
    for (how, value) in [("install", 1.0 - 5e-8), ("restore", 0.5), ("restore", 0.0)] {
        let (mut dense, mut sparse) = (build(false), build(true));
        if how == "install" {
            perturbed(value)
                .validate(ext)
                .expect("within the tolerance");
            dense.install_routing(perturbed(value));
            sparse.install_routing(perturbed(value));
        } else {
            dense.restore(&from_raw(value)).unwrap();
            sparse.restore(&from_raw(value)).unwrap();
        }
        for it in 0..120 {
            let ctx = format!("{how} {value} at iteration {it}");
            assert_eq!(
                stats_bits(dense.step()),
                stats_bits(sparse.step()),
                "step stats: {ctx}"
            );
            assert_identical(&dense, &sparse, &ctx);
            for &(j, l) in &rows {
                assert_eq!(
                    sparse.routing().fraction(j, l).to_bits(),
                    1.0f64.to_bits(),
                    "pass-through row of {j} not reset: {ctx}"
                );
            }
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
    let bits = |s: StepStats| {
        let g = s.gamma;
        (
            s.cost_before.to_bits(),
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
        let stats = bits(one.step());
        assert_eq!(stats, bits(seven.step()), "step stats at iteration {it}");
        assert_eq!(stats, bits(auto.step()), "step stats at iteration {it}");
        assert_identical(&one, &seven, &format!("threads: 7 at iteration {it}"));
        assert_identical(&one, &auto, &format!("threads: 0 at iteration {it}"));
    }
}

/// Clones must carry the activity tracker: a clone of a warm sparse
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
        assert_eq!(a.routing(), b.routing(), "clone diverged at iteration {it}");
    }
    assert_eq!(a.flows(), b.flows());
    assert_eq!(a.marginals(), b.marginals());
}

/// A sparse algorithm whose extended network is rebuilt from the same
/// problem as a dense one must agree even when the sparse side is
/// driven through `ExtendedNetwork::build` + `from_extended` (the
/// simulator's construction path).
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
    assert_eq!(via_new.routing(), via_ext.routing());
    assert_eq!(via_new.flows(), via_ext.flows());
}
