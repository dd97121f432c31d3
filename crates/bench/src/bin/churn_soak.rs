//! Admission-churn soak: seeded commodity arrivals and departures over
//! a live gradient run, dense and sparse engines in lockstep.
//!
//! Two [`spn_sim::ChurnProcess`]es share a seed — one runs the dense
//! engine, the other the sparsity-aware active-set engine — so both
//! replay the same arrival/departure sequence while the commodity set
//! keeps reshaping online (no extended-network rebuilds). The soak
//! fails if
//!
//! * total utility ever goes non-finite (a reshape leaked a NaN or an
//!   unseeded buffer into iteration state),
//! * the engines' event logs diverge (a reshape perturbed the
//!   trajectory the decisions are drawn against), or
//! * the final routing tables or utilities differ in a single bit —
//!   the dense/sparse equivalence invariant must survive arbitrary
//!   interleavings of admits and evicts.
//!
//! `--smoke` runs the CI-sized soak (500 iterations); the default run
//! is longer. Checks happen every churn period, not just at the end.

use spn_bench::small_instance;
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_sim::{ChurnConfig, ChurnProcess};

/// Churn plan shared by both engines.
const CHURN: ChurnConfig = ChurnConfig {
    seed: 0xD1CE,
    arrival_probability: 0.3,
    departure_probability: 0.3,
    period: 10,
};

/// Iterations between cross-engine checks (a multiple of the churn
/// period, so both processes sit at the same decision index when
/// compared).
const CHECK_EVERY: usize = 100;

fn process(sparsity: bool) -> ChurnProcess {
    let problem = small_instance(1, 40, 6);
    let cfg = GradientConfig {
        sparsity,
        ..GradientConfig::default()
    };
    let alg = GradientAlgorithm::new(&problem, cfg).expect("valid config");
    ChurnProcess::new(alg, CHURN)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iterations = if smoke { 500 } else { 2000 };
    let mut dense = process(false);
    let mut sparse = process(true);
    let mut failed = false;
    let (mut arrivals, mut departures) = (0, 0);
    println!("# churn_soak\titerations\tlive\tparked\tutility_dense\tutility_sparse");
    let mut done = 0;
    while done < iterations {
        let chunk = CHECK_EVERY.min(iterations - done);
        let rd = dense.run(chunk);
        let rs = sparse.run(chunk);
        done += chunk;
        arrivals += rd.arrivals;
        departures += rd.departures;
        println!(
            "churn_soak\t{done}\t{}\t{}\t{:.6}\t{:.6}",
            rd.live, rd.parked, rd.utility, rs.utility
        );
        if !rd.utility.is_finite() || !rs.utility.is_finite() {
            eprintln!(
                "FAIL: non-finite utility at iteration {done}: dense {} sparse {}",
                rd.utility, rs.utility
            );
            failed = true;
            break;
        }
        if dense.events() != sparse.events() {
            eprintln!("FAIL: engines drew different churn events by iteration {done}");
            failed = true;
            break;
        }
        if rd.utility.to_bits() != rs.utility.to_bits() {
            eprintln!(
                "FAIL: dense/sparse utilities diverged at iteration {done}: \
                 {} vs {}",
                rd.utility, rs.utility
            );
            failed = true;
            break;
        }
    }
    if dense.algorithm().routing() != sparse.algorithm().routing() {
        eprintln!("FAIL: dense/sparse routing tables differ after the soak");
        failed = true;
    }
    if arrivals == 0 || departures == 0 {
        eprintln!(
            "FAIL: soak exercised no churn (arrivals {arrivals}, departures {departures}) \
             — the seed or probabilities are broken"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    // With churn stopped, the run should settle like any static
    // instance — reported (not gated) so a drifting post-churn
    // equilibrium is visible in CI logs. On a single-core smoke host
    // the leg is skipped outright: it gates nothing, and burning its
    // full iteration cap there pushes the combined soak legs past the
    // CI smoke budget.
    let degraded = std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1;
    if smoke && degraded {
        eprintln!(
            "churn_soak --smoke: SKIP post-churn settle leg — single-core host \
             (degraded); the leg is reported, not gated, and its iteration cap \
             dominates the smoke budget"
        );
    } else {
        let outcome = dense
            .into_algorithm()
            .run_until_stable(1e-9, if smoke { 2_000 } else { 10_000 });
        println!(
            "post_churn_settle\tconverged {}\titerations {}",
            outcome.converged, outcome.iterations
        );
    }
    eprintln!(
        "churn_soak: ok ({iterations} iterations, {arrivals} arrivals, \
         {departures} departures, epoch {})",
        sparse.algorithm().epoch()
    );
}
