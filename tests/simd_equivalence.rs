//! Tier-2 equivalence for the SIMD lanes (ARCHITECTURE invariant 18).
//!
//! The `simd` feature splits the kernels into two tiers:
//!
//! * **Bit-exact tier** — tag sweeps, flow sweeps, and the scoped
//!   usage-total reductions are vectorized with exactly the scalar
//!   IEEE expression per lane (no FMA, scalar in-order stores), so
//!   `SimdPolicy::Auto` must not move a single bit through them.
//!   That property is pinned by `kernel_bench` (asserted below) and by
//!   the forced-scalar test, which shows the whole feature build still
//!   reproduces the dense reference bitwise when the policy opts out.
//! * **Tolerance tier** — marginal accumulation and the Γ m-fill use
//!   FMA and reassociated 4-lane horizontal sums. Per-sweep deviation
//!   is a few ulps, but Γ picks best links by `total_cmp` over those
//!   m values, so a near-tie can flip a discrete choice and the two
//!   trajectories then differ by an η-sized routing step. The contract
//!   is therefore *trajectory-level*: per-iteration utility, flows,
//!   and Γ statistics agree within the configurable tolerances below,
//!   and convergence verdicts are identical.
//!
//! The grid mirrors `sparse_equivalence.rs`: dense/sparse topologies,
//! several thread counts, checkpoint/restore, admission churn, and
//! ε-annealing.

#![cfg(feature = "simd")]

use spn::core::simd::kernel_bench;
use spn::core::{CommodityDef, GradientAlgorithm, GradientConfig, SimdPolicy};
use spn::graph::EdgeId;
use spn::model::builder::ProblemBuilder;
use spn::model::random::RandomInstance;
use spn::model::{CommodityId, UtilityFn};

/// Per-iteration relative tolerance on the scalar utility Σ_j U_j(a_j).
const UTIL_RTOL: f64 = 1e-6;
/// Relative tolerance on Γ sweep statistics (max/total routing shift).
const STAT_RTOL: f64 = 1e-4;
/// Relative tolerance on terminal flow lanes (usages, admitted rates).
const FLOW_RTOL: f64 = 1e-5;
/// Single-sweep deviation bound for the tolerance-tier kernels in the
/// micro-benchmark self-check (a handful of ulps, not trajectory drift).
const KERNEL_RTOL: f64 = 1e-10;

/// Relative deviation with an absolute floor: tiny quantities compare
/// absolutely (so a 1e-15 wobble on a ~1e-12 shift statistic does not
/// register as a 10% "relative" error), large ones relatively.
fn rel_dev(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    if d == 0.0 {
        0.0
    } else {
        d / a.abs().max(b.abs()).max(1.0)
    }
}

fn problem_for(nodes: usize, commodities: usize, seed: u64, scale: f64) -> spn::model::Problem {
    RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()
        .unwrap()
        .problem
        .scale_demand(scale)
}

fn sparse_cfg(policy: SimdPolicy, threads: usize) -> GradientConfig {
    GradientConfig {
        threads,
        sparsity: true,
        simd: policy,
        ..GradientConfig::default()
    }
}

/// Asserts tolerance-tier agreement on everything user-visible: the
/// utility, per-commodity admitted/delivered rates, and both shared
/// usage vectors.
fn assert_close(scalar: &GradientAlgorithm, simd: &GradientAlgorithm, what: &str) {
    let (rs, rv) = (scalar.report(), simd.report());
    let du = rel_dev(rs.utility, rv.utility);
    assert!(
        du <= UTIL_RTOL,
        "utility deviates by {du:.3e} (> {UTIL_RTOL:.0e}): {what}"
    );
    for (j, (a, b)) in rs.admitted.iter().zip(&rv.admitted).enumerate() {
        let d = rel_dev(*a, *b);
        assert!(
            d <= FLOW_RTOL,
            "admitted rate of commodity {j} deviates by {d:.3e}: {what}"
        );
    }
    for (j, (a, b)) in rs.delivered.iter().zip(&rv.delivered).enumerate() {
        let d = rel_dev(*a, *b);
        assert!(
            d <= FLOW_RTOL,
            "delivered rate of commodity {j} deviates by {d:.3e}: {what}"
        );
    }
    let (fs, fv) = (scalar.flows(), simd.flows());
    for (v, (a, b)) in fs.node_usages().iter().zip(fv.node_usages()).enumerate() {
        let d = rel_dev(*a, *b);
        assert!(
            d <= FLOW_RTOL,
            "node usage of node {v} deviates by {d:.3e}: {what}"
        );
    }
    let l_count = scalar.extended().graph().edge_count();
    for li in 0..l_count {
        let l = EdgeId::from_index(li);
        let d = rel_dev(fs.edge_usage(l), fv.edge_usage(l));
        assert!(
            d <= FLOW_RTOL,
            "edge usage of edge {li} deviates by {d:.3e}: {what}"
        );
    }
}

/// Steps both trajectories in lock step, checking the per-iteration
/// contract: utility within `UTIL_RTOL`, Γ statistics within
/// `STAT_RTOL`, identical swept-row counts.
fn run_lockstep(scalar: &mut GradientAlgorithm, simd: &mut GradientAlgorithm, n: usize, ctx: &str) {
    for it in 0..n {
        let ss = scalar.step();
        let sv = simd.step();
        let du = rel_dev(scalar.report().utility, simd.report().utility);
        assert!(
            du <= UTIL_RTOL,
            "utility deviates by {du:.3e} at iteration {it}: {ctx}"
        );
        let dm = rel_dev(ss.gamma.max_shift, sv.gamma.max_shift);
        assert!(
            dm <= STAT_RTOL,
            "gamma max_shift deviates by {dm:.3e} at iteration {it}: {ctx}"
        );
        let dt = rel_dev(ss.gamma.total_shift, sv.gamma.total_shift);
        assert!(
            dt <= STAT_RTOL,
            "gamma total_shift deviates by {dt:.3e} at iteration {it}: {ctx}"
        );
    }
}

/// The core tolerance property over the same instance grid as the
/// bitwise sparse/dense suite: `SimdPolicy::Auto` stays glued to
/// `SimdPolicy::Scalar` on every (problem, seed, threads, scale)
/// combination, per iteration and in the final state.
#[test]
fn auto_tracks_scalar_across_instances() {
    let grid = [
        // (nodes, commodities, seed, threads, demand scale)
        (20usize, 2usize, 1u64, 1usize, 1.0f64),
        (20, 2, 2, 2, 3.0),
        (20, 3, 3, 3, 0.2),
        (30, 3, 4, 1, 1.0),
        (30, 4, 5, 4, 0.5),
        (30, 5, 6, 2, 2.0),
        (40, 4, 7, 1, 0.2),
        (40, 5, 8, 3, 1.0),
        (40, 6, 9, 4, 3.0),
        (50, 5, 10, 2, 1.0),
        (50, 6, 11, 1, 0.5),
        (50, 8, 12, 4, 1.0),
        (60, 6, 13, 3, 0.2),
        (60, 8, 14, 2, 1.0),
        (80, 8, 15, 4, 1.0),
        (80, 8, 16, 1, 2.0),
        (30, 5, 17, 5, 1.0),
        (40, 6, 18, 7, 0.2),
        (20, 2, 19, 2, 1.0),
        (50, 8, 20, 3, 3.0),
    ];
    for &(nodes, commodities, seed, threads, scale) in &grid {
        let problem = problem_for(nodes, commodities, seed, scale);
        let mut scalar =
            GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Scalar, threads)).unwrap();
        let mut simd =
            GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, threads)).unwrap();
        let ctx = format!(
            "nodes={nodes} commodities={commodities} seed={seed} threads={threads} scale={scale}"
        );
        run_lockstep(&mut scalar, &mut simd, 120, &ctx);
        assert_close(&scalar, &simd, &ctx);
    }
}

/// Satellite pin: a `--features simd` build with the policy forced to
/// `Scalar` must be **bit-identical** to the untouched dense reference
/// — compiling the feature in changes nothing until a run opts in.
/// (The default build's own bitwise grid is `sparse_equivalence.rs`;
/// this test proves the feature gate does not perturb those lanes.)
#[test]
fn forced_scalar_policy_is_bit_identical_to_dense_reference() {
    let grid = [
        // (nodes, commodities, seed, threads, demand scale)
        (20usize, 3usize, 3u64, 3usize, 0.2f64),
        (30, 4, 5, 4, 0.5),
        (40, 5, 8, 3, 1.0),
        (50, 8, 12, 4, 1.0),
        (60, 8, 14, 2, 1.0),
        (80, 8, 16, 1, 2.0),
    ];
    for &(nodes, commodities, seed, threads, scale) in &grid {
        let problem = problem_for(nodes, commodities, seed, scale);
        let dense_cfg = GradientConfig {
            threads,
            sparsity: false,
            ..GradientConfig::default()
        };
        let mut dense = GradientAlgorithm::new(&problem, dense_cfg).unwrap();
        let mut forced =
            GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Scalar, threads)).unwrap();
        for it in 0..120 {
            dense.step();
            forced.step();
            assert_eq!(
                dense.routing(),
                forced.routing(),
                "forced-scalar routing diverged at iteration {it} \
                 (nodes={nodes} seed={seed} threads={threads})"
            );
        }
        assert_eq!(dense.flows(), forced.flows(), "flow state diverged");
        assert_eq!(dense.marginals(), forced.marginals(), "marginals diverged");
        let (rd, rf) = (dense.report(), forced.report());
        assert_eq!(
            rd.utility.to_bits(),
            rf.utility.to_bits(),
            "utility not bit-identical under forced scalar"
        );
    }
}

/// ε-annealing rescales the cost model mid-step; the tolerance contract
/// must hold across every anneal boundary.
#[test]
fn auto_matches_scalar_through_annealing() {
    let problem = problem_for(30, 4, 21, 1.0);
    let anneal = |policy| GradientConfig {
        threads: 3,
        sparsity: true,
        simd: policy,
        epsilon_factor: 0.5,
        epsilon_interval: 25,
        ..GradientConfig::default()
    };
    let mut scalar = GradientAlgorithm::new(&problem, anneal(SimdPolicy::Scalar)).unwrap();
    let mut simd = GradientAlgorithm::new(&problem, anneal(SimdPolicy::Auto)).unwrap();
    run_lockstep(&mut scalar, &mut simd, 150, "annealed run");
    assert_close(&scalar, &simd, "annealed run");
}

/// Mid-run mutations: thread reconfiguration, η backoff, demand jitter,
/// and checkpoint/restore. Each invalidates the active set (and its
/// `heads` gather index); the SIMD trajectory must stay within
/// tolerance through all of them.
#[test]
fn auto_survives_midrun_mutations() {
    let problem = problem_for(40, 5, 22, 1.0);
    let mut scalar = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Scalar, 2)).unwrap();
    let mut simd = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, 2)).unwrap();

    run_lockstep(&mut scalar, &mut simd, 60, "before mutations");
    let (ck_s, ck_v) = (scalar.checkpoint(), simd.checkpoint());
    assert_close(&scalar, &simd, "before mutations");

    simd.set_threads(4);
    run_lockstep(&mut scalar, &mut simd, 30, "after set_threads(4)");
    simd.set_threads(2);

    scalar.set_eta(0.01);
    simd.set_eta(0.01);
    run_lockstep(&mut scalar, &mut simd, 25, "eta backoff");
    scalar.set_eta(0.04);
    simd.set_eta(0.04);
    run_lockstep(&mut scalar, &mut simd, 25, "eta recovery");
    assert_close(&scalar, &simd, "after eta backoff/recovery");

    let j0 = CommodityId::from_index(0);
    let rate = scalar.extended().commodity(j0).max_rate;
    scalar.extended_mut().set_max_rate(j0, rate * 1.5);
    simd.extended_mut().set_max_rate(j0, rate * 1.5);
    run_lockstep(&mut scalar, &mut simd, 40, "after demand jitter");
    assert_close(&scalar, &simd, "after demand jitter");

    scalar.restore(&ck_s).unwrap();
    simd.restore(&ck_v).unwrap();
    run_lockstep(&mut scalar, &mut simd, 50, "after checkpoint restore");
    assert_close(&scalar, &simd, "after checkpoint restore");
}

/// Admission churn restrides every state buffer and rebuilds the
/// active-set `heads` index; both trajectories apply the same add and
/// evict and must stay within tolerance.
#[test]
fn auto_matches_scalar_through_admission_churn() {
    let problem = problem_for(40, 6, 26, 1.0);
    let mut scalar = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Scalar, 3)).unwrap();
    let mut simd = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, 3)).unwrap();

    run_lockstep(&mut scalar, &mut simd, 60, "before churn");

    let parked = CommodityDef::from_problem(&problem, CommodityId::from_index(5));
    scalar.evict_commodity(CommodityId::from_index(5));
    simd.evict_commodity(CommodityId::from_index(5));
    run_lockstep(&mut scalar, &mut simd, 40, "after evict");
    assert_close(&scalar, &simd, "after evict");

    let (ja, jb) = (
        scalar.admit_commodity(parked.clone()),
        simd.admit_commodity(parked),
    );
    assert_eq!(ja, jb, "re-admission assigned different ids");
    run_lockstep(&mut scalar, &mut simd, 40, "after re-admit");
    assert_close(&scalar, &simd, "after re-admit");
}

/// Convergence verdicts are part of the contract: both policies must
/// agree on whether a run converged. Two regimes are pinned — a small
/// bottleneck instance that genuinely meets the shift tolerance, and
/// random instances that orbit a limit cycle at fixed η, where the
/// windowed detector must stop both trajectories with the same
/// `converged: false` verdict.
#[test]
fn convergence_verdicts_agree() {
    // Genuinely converging regime (mirrors the core unit tests).
    let mut b = ProblemBuilder::new();
    let s = b.server(100.0);
    let x = b.server(10.0);
    let t = b.server(100.0);
    let e1 = b.link(s, x, 100.0);
    let e2 = b.link(x, t, 100.0);
    let j = b.commodity(s, t, 20.0, UtilityFn::throughput());
    b.uses(j, e1, 1.0, 1.0).uses(j, e2, 2.0, 1.0);
    let bottleneck = b.build().unwrap();
    let converging = |policy| GradientConfig {
        eta: 0.3,
        epsilon: 0.002,
        sparsity: true,
        simd: policy,
        ..GradientConfig::default()
    };
    let mut scalar = GradientAlgorithm::new(&bottleneck, converging(SimdPolicy::Scalar)).unwrap();
    let mut simd = GradientAlgorithm::new(&bottleneck, converging(SimdPolicy::Auto)).unwrap();
    let os = scalar.run_until_stable(1e-10, 20_000);
    let ov = simd.run_until_stable(1e-10, 20_000);
    assert!(os.converged, "reference bottleneck run failed to converge");
    assert_eq!(
        os.converged, ov.converged,
        "convergence verdicts differ on the bottleneck: scalar={os:?} simd={ov:?}"
    );
    assert_close(&scalar, &simd, "converged bottleneck state");

    // Limit-cycle regime: the windowed detector must return the same
    // (negative) verdict for both policies.
    let cases = [
        // (nodes, commodities, seed, scale, threads)
        (40usize, 6usize, 23u64, 0.2f64, 1usize),
        (40, 6, 23, 0.2, 4),
        (30, 4, 27, 1.0, 2),
    ];
    for &(nodes, commodities, seed, scale, threads) in &cases {
        let problem = problem_for(nodes, commodities, seed, scale);
        let mut scalar =
            GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Scalar, threads)).unwrap();
        let mut simd =
            GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, threads)).unwrap();
        let os = scalar.run_until_stable_windowed(1e-8, 200, 20_000);
        let ov = simd.run_until_stable_windowed(1e-8, 200, 20_000);
        assert_eq!(
            os.converged, ov.converged,
            "convergence verdicts differ (nodes={nodes} seed={seed} threads={threads}): \
             scalar={os:?} simd={ov:?}"
        );
    }
}

/// The cost probe left the tolerance tier: `cost_before` folds the
/// router union in order under every policy, so under `Auto` it is the
/// naive `total_cost` of the pre-step state bit for bit (the state
/// itself still drifts from the scalar run within tolerance).
#[test]
fn cost_before_is_bit_exact_under_auto() {
    let problem = problem_for(40, 6, 9, 1.0);
    let mut alg = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, 1)).unwrap();
    for it in 0..150 {
        let naive = alg.cost_model().total_cost(alg.extended(), alg.flows());
        let stats = alg.step();
        assert_eq!(
            stats.cost_before.to_bits(),
            naive.to_bits(),
            "cost_before left the naive total at iteration {it}"
        );
    }
}

/// The kernel micro-benchmark doubles as a self-check of the two-tier
/// contract on this host's detected backend: tag, flow, and reduce
/// kernels must be bit-identical to their scalar references; marginal
/// and Γ-fill deviations must be a few ulps per sweep, never more.
#[test]
fn kernel_bench_respects_the_two_tier_contract() {
    let problem = problem_for(50, 8, 42, 1.0);
    let mut alg = GradientAlgorithm::new(&problem, sparse_cfg(SimdPolicy::Auto, 1)).unwrap();
    alg.run(300);
    let reports = kernel_bench::run(&alg, 2, 2);
    assert_eq!(reports.len(), 5, "expected five kernel reports");
    for r in &reports {
        match r.kernel {
            "tag" | "flow" | "reduce" => assert!(
                r.bit_identical,
                "bit-exact tier kernel '{}' diverged (max_rel_dev={:.3e}, backend={})",
                r.kernel,
                r.max_rel_dev,
                kernel_bench::backend_name()
            ),
            "marginal" | "gamma_fill" => assert!(
                r.max_rel_dev <= KERNEL_RTOL,
                "tolerance tier kernel '{}' deviates by {:.3e} (> {KERNEL_RTOL:.0e})",
                r.kernel,
                r.max_rel_dev
            ),
            other => panic!("unexpected kernel report '{other}'"),
        }
    }
}
