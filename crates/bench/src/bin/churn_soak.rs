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
//! Both runs end with the admission gate: on the 400-node /
//! 32-commodity instance with the last commodity held back, admitting it
//! online into a settled run ([`GradientAlgorithm::admit_commodity`])
//! must reach 99% of the settled full-set utility at least 1.2x faster
//! than rebuilding the extended network and converging from scratch —
//! the guard against the incremental reshape degrading into a hidden
//! rebuild. It prints one `smoke-admission` TSV line, with the
//! admission phase's newcomer-only iterations
//! ([`GradientAlgorithm::settle_newcomer`]) and their cost in full
//! steps (each costs `members_j / Σ_j members_j` of one).
//!
//! [`RoutingTable::validate`]: spn_core::RoutingTable::validate
//! [`RoutingTable::is_loop_free`]: spn_core::RoutingTable::is_loop_free

use spn_bench::small_instance;
use spn_core::flows::balance_residual;
use spn_core::{CommodityDef, GradientAlgorithm, GradientConfig};
use spn_model::spec::ProblemSpec;
use spn_model::CommodityId;
use spn_sim::{ChurnConfig, ChurnProcess};
use std::time::Instant;

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

/// Admission-gate instance `(nodes, commodities)`; the last commodity
/// is the one held back and admitted online.
const ADMISSION_CASE: (usize, usize) = (400, 32);

/// Iterations the full-set reference and the held-back run settle for
/// before the gate times anything.
const ADMISSION_PREP: usize = 2_500;

/// Step cap for either admission path to reach the target.
const ADMISSION_CAP: usize = 6_000;

/// Fraction of the settled full-set utility both admission paths must
/// reach. A shift tolerance is the wrong stop here — at this size the
/// default step rate limit-cycles, so the total shift plateaus above any
/// useful tolerance; utility recovery is what an operator waits for.
const ADMISSION_TARGET: f64 = 0.99;

/// Least rebuild ÷ incremental time ratio the gate accepts.
const ADMISSION_FLOOR: f64 = 1.2;

/// Steps `alg` until total utility reaches `target`; `false` if it
/// does not within `cap` steps.
fn reaches_target(alg: &mut GradientAlgorithm, target: f64, cap: usize) -> bool {
    (0..cap).any(|_| {
        alg.step();
        alg.utility() >= target
    })
}

/// Times the two ways of reaching the settled full-set utility when the
/// held-back run is already live: admit the newcomer online, or rebuild
/// from scratch (the rebuild time includes `GradientAlgorithm::new` —
/// the extended-network build is exactly what admission avoids). Prints
/// the `smoke-admission` line; returns why the gate failed, if it did.
fn admission_gate() -> Option<String> {
    let (nodes, commodities) = ADMISSION_CASE;
    let full = small_instance(1, nodes, commodities);
    let mut spec = ProblemSpec::from(&full);
    spec.commodities.pop();
    let minus = spec.into_problem().expect("subset instance is valid");
    let cfg = GradientConfig::default();
    let mut reference = GradientAlgorithm::new(&full, cfg).expect("valid config");
    reference.run(ADMISSION_PREP);
    let target = ADMISSION_TARGET * reference.utility();
    let mut alg = GradientAlgorithm::new(&minus, cfg).expect("valid config");
    alg.run(ADMISSION_PREP);
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(commodities - 1));

    let start = Instant::now();
    let j = alg.admit_commodity(def);
    let incremental_reached = reaches_target(&mut alg, target, ADMISSION_CAP);
    let incremental_s = start.elapsed().as_secs_f64();
    let phase = alg.newcomer_iterations();
    let ext = alg.extended();
    let phase_steps = phase as f64 * ext.member_range(j).len() as f64 / ext.member_total() as f64;

    let start = Instant::now();
    let mut alg = GradientAlgorithm::new(&full, cfg).expect("valid config");
    let rebuild_reached = reaches_target(&mut alg, target, ADMISSION_CAP);
    let rebuild_s = start.elapsed().as_secs_f64();

    let ratio = rebuild_s / incremental_s;
    println!(
        "# smoke-admission\tnodes\tcommodities\tphase_iterations\tphase_full_steps\t\
         incremental_s\trebuild_s\trebuild/incremental"
    );
    println!(
        "smoke-admission\t{nodes}\t{commodities}\t{phase}\t{phase_steps:.1}\t\
         {incremental_s:.3}\t{rebuild_s:.3}\t{ratio:.2}"
    );
    if !incremental_reached || !rebuild_reached {
        Some(format!(
            "a path missed the 99% utility target (incremental {incremental_reached}, \
             rebuild {rebuild_reached})"
        ))
    } else if ratio < ADMISSION_FLOOR {
        Some(format!(
            "incremental admission is only {ratio:.2}x faster than a full rebuild \
             at {nodes} nodes (floor is {ADMISSION_FLOOR}x)"
        ))
    } else {
        None
    }
}

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
    if let Some(why) = admission_gate() {
        eprintln!("FAIL: {why}");
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
