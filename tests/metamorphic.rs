//! Metamorphic relations: properties of the *problem* that hold whatever
//! the implementation does, checked by running the algorithm (and the
//! LP) on two presentations of the same instance. Unlike the
//! bit-identity oracles, which compare two runs of the same code, these
//! catch a bug that every twin shares.

use spn::core::{GradientAlgorithm, GradientConfig, Report};
use spn::model::random::RandomInstance;
use spn::model::spec::ProblemSpec;
use spn::model::Problem;
use spn::solver::arcflow::solve_linear_utility;

/// Steps each run takes before the reports are compared. The step
/// amplifies a last-bit difference: on these instances the worst
/// relative gap is ≈ 1e-15 at 20 steps, ≈ 1e-13 at 30 and ≈ 1e-9 at 40
/// (seed 14), and reaches 1e-2 within a few hundred steps. Twenty steps
/// keep the relation exact up to rounding and still run every phase of
/// the step many times over.
const STEPS: usize = 20;

/// Relative tolerance on every compared quantity. Relabelling changes
/// nothing but the order in which node totals (and the utility sum)
/// accumulate over commodities, so the two runs differ only in the last
/// bits of each sum, carried forward through the steps.
const REL_TOL: f64 = 1e-12;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// `problem` with its commodity list reversed: commodity `j` becomes
/// commodity `J − 1 − j`.
fn reversed(problem: &Problem) -> Problem {
    let mut spec = ProblemSpec::from(problem);
    spec.commodities.reverse();
    spec.into_problem().expect("a permuted instance is valid")
}

fn run(problem: &Problem) -> Report {
    let mut alg = GradientAlgorithm::new(problem, GradientConfig::default()).expect("valid config");
    alg.run(STEPS)
}

/// Commodity relabelling (ROADMAP item 18): reversing the commodity list
/// reverses every per-commodity output and leaves the utility and the
/// LP optimum unchanged, up to summation order.
#[test]
fn reversing_the_commodities_permutes_every_output() {
    for seed in 1..=32u64 {
        let problem = RandomInstance::builder()
            .nodes(10 + (seed as usize % 4) * 2)
            .commodities(3 + seed as usize % 3)
            .seed(seed)
            .build()
            .expect("valid instance")
            .problem
            .scale_demand(3.0);
        let mirror = reversed(&problem);
        let (a, b) = (run(&problem), run(&mirror));
        let j_count = a.admitted.len();
        for j in 0..j_count {
            let k = j_count - 1 - j;
            assert!(
                close(a.admitted[j], b.admitted[k]) && close(a.delivered[j], b.delivered[k]),
                "seed {seed}: commodity {j} admitted / delivered {} / {} vs {} / {} relabelled",
                a.admitted[j],
                a.delivered[j],
                b.admitted[k],
                b.delivered[k]
            );
        }
        assert!(
            close(a.utility, b.utility),
            "seed {seed}: utility {} vs {} relabelled",
            a.utility,
            b.utility
        );
        let (lp_a, lp_b) = (
            solve_linear_utility(&problem).expect("LP solves").objective,
            solve_linear_utility(&mirror).expect("LP solves").objective,
        );
        assert!(
            close(lp_a, lp_b),
            "seed {seed}: LP optimum {lp_a} vs {lp_b} relabelled"
        );
    }
}
