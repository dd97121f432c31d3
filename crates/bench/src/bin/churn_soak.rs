//! Admission-churn soak: seeded commodity arrivals and departures over
//! a live gradient run.
//!
//! A [`spn_sim::ChurnProcess`] keeps reshaping the commodity set online
//! (no extended-network rebuilds) while the run steps. Every check
//! period the soak fails if
//!
//! * total utility goes non-finite (a reshape leaked a NaN or an
//!   unseeded buffer into iteration state), or
//! * the state breaks one of ARCHITECTURE invariants 1–3: a routing row
//!   off the simplex ([`RoutingTable::validate`]), a routing loop
//!   ([`RoutingTable::is_loop_free`]), or flows out of balance with the
//!   routing by more than `1e-9` ([`balance_residual`]).
//!
//! That every step equals its dense kernel replay under churn is pinned
//! by `tests/admission_churn.rs`. `--smoke` runs the CI-sized soak (500
//! iterations); the default run is longer.
//!
//! [`RoutingTable::validate`]: spn_core::RoutingTable::validate
//! [`RoutingTable::is_loop_free`]: spn_core::RoutingTable::is_loop_free

use spn_bench::small_instance;
use spn_core::flows::balance_residual;
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_sim::{ChurnConfig, ChurnProcess};

/// Churn plan.
const CHURN: ChurnConfig = ChurnConfig {
    seed: 0xD1CE,
    arrival_probability: 0.3,
    departure_probability: 0.3,
    period: 10,
};

/// Iterations between invariant checks.
const CHECK_EVERY: usize = 100;

/// Largest flow-balance residual (eq. (3)) the soak accepts.
const BALANCE_TOLERANCE: f64 = 1e-9;

/// The first of invariants 1–3 that `alg` breaks, if any.
fn broken_invariant(alg: &GradientAlgorithm) -> Option<String> {
    let (ext, routing) = (alg.extended(), alg.routing());
    if let Err(e) = routing.validate(ext) {
        return Some(format!("invariant 1 (φ-simplex): {e}"));
    }
    if !routing.is_loop_free(ext) {
        return Some("invariant 2 (loop freedom): a routing loop".into());
    }
    let residual = balance_residual(ext, routing, alg.flows());
    (residual > BALANCE_TOLERANCE)
        .then(|| format!("invariant 3 (flow balance): residual {residual:e}"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iterations = if smoke { 500 } else { 2000 };
    let alg = GradientAlgorithm::new(&small_instance(1, 40, 6), GradientConfig::default())
        .expect("valid config");
    let mut process = ChurnProcess::new(alg, CHURN);
    let mut failed = false;
    let (mut arrivals, mut departures) = (0, 0);
    println!("# churn_soak\titerations\tlive\tparked\tutility");
    let mut done = 0;
    while done < iterations {
        let chunk = CHECK_EVERY.min(iterations - done);
        let r = process.run(chunk);
        done += chunk;
        arrivals += r.arrivals;
        departures += r.departures;
        println!(
            "churn_soak\t{done}\t{}\t{}\t{:.6}",
            r.live, r.parked, r.utility
        );
        if !r.utility.is_finite() {
            eprintln!("FAIL: non-finite utility {} at iteration {done}", r.utility);
            failed = true;
            break;
        }
        if let Some(broken) = broken_invariant(process.algorithm()) {
            eprintln!("FAIL: {broken} at iteration {done}");
            failed = true;
            break;
        }
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
    let epoch = process.algorithm().epoch();
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
        let outcome = process
            .into_algorithm()
            .run_until_stable(1e-9, if smoke { 2_000 } else { 10_000 });
        println!(
            "post_churn_settle\tconverged {}\titerations {}",
            outcome.converged, outcome.iterations
        );
    }
    eprintln!(
        "churn_soak: ok ({iterations} iterations, {arrivals} arrivals, \
         {departures} departures, epoch {epoch}, invariants 1-3 held at every check)"
    );
}
