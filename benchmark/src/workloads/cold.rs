//! `fig4_cold` — the paper's §6 evaluation family from cold.
//!
//! Instances of the 40-node / 3-commodity random family (demand ×3, so
//! admission control binds, linear utility) are drawn from the seed
//! stream. Each episode is a cold start — fully rejecting routing —
//! stepped until total utility reaches 90 % of the instance's LP
//! optimum. These networks are tiny and everything is dirty from the
//! first step, so the time goes to per-step fixed overhead and the full
//! sweeps; the active set, the O(V) lanes and the mesh have nothing to
//! do here.
//!
//! 256 instances per run, not the paper's 16: the iterations a cold
//! start needs vary by a factor of ten across the family (coefficient
//! of variation ≈ 0.5 after screening), and the sum over the set must
//! be steady from seed to seed.

use super::{
    build_core, cold_phase, publish_inputs, require_candidates, screen, setup_phase, utility_ratio,
    CoreTrace, Plan,
};
use crate::report::Outcome;
use crate::stats::SeedStream;
use crate::surface::{self, Core, Spec};
use crate::trace::Tracer;

/// Instances per run.
const INSTANCES: usize = 256;

/// A cold start that needs more reference iterations than this (about
/// three times the family's median) is screened out.
const ITERATION_CAP: usize = 3000;

/// Individually timed steps after each cold start (a quarter of the
/// median episode).
const TAIL: usize = 256;

/// Iteration cap of the back-pressure probe (the paper reports ~10⁵).
const BACK_PRESSURE_CAP: usize = 300_000;

/// The paper's evaluation instance: 40 nodes, 3 commodities, demand ×3.
fn paper_instance(seed: u64) -> Spec {
    Spec::random(seed, 40, 3, 3.0)
}

/// Runs the workload.
pub fn run(plan: &Plan, tracer: &mut Tracer, outcome: &mut Outcome) {
    let want = if plan.smoke { 2 } else { INSTANCES };
    let mut stream = SeedStream::new(plan.seed, "fig4_cold");
    let screened = screen(&mut stream, paper_instance, want, ITERATION_CAP, tracer);
    publish_inputs(&screened, outcome);
    if !require_candidates(&screened, want, outcome) {
        return;
    }
    let candidates = &screened.accepted;
    setup_phase(candidates, |c| build_core(c, tracer), outcome);

    let mut trace = CoreTrace::default();
    let cold = cold_phase(
        candidates,
        |c| Core::new(c.network.clone()),
        plan.budget(),
        TAIL,
        plan.lanes(),
        |core, lane, n| trace.step_in_lane(lane, core, n, tracer),
        outcome,
    );
    cold.settle.publish(outcome);
    cold.tails[0].publish(outcome);
    // every stepper sits exactly TAIL iterations past its target
    outcome.set_exact("utility_ratio", utility_ratio(&cold.steppers, candidates));
    for (i, core) in cold.steppers.iter().enumerate() {
        outcome.attempt(
            || format!("output check, instance {i}"),
            core.check_outputs(),
        );
    }

    if plan.traced {
        trace.publish(&cold.tails[1], &cold.tails[0], &cold.steppers, outcome);
        figure4_probes(&candidates[0], outcome);
    }
}

/// The paper's Figure 4 comparison on the run's first instance: Newton
/// scaling and the back-pressure baseline against the gradient's own
/// iteration count. Informational; moves no end-to-end metric.
fn figure4_probes(candidate: &super::Candidate, outcome: &mut Outcome) {
    let target = candidate.target();
    let (newton_iters, secs) = surface::newton_run(&candidate.spec, target, 20_000);
    let newton_steps = newton_iters.unwrap_or(20_000);
    outcome.set_exact("core.newton.step_us", secs * 1e6 / newton_steps as f64);
    outcome.set_exact("core.newton.iters_to_90", newton_iters.unwrap_or(0) as f64);
    let (bp_iters, secs) = surface::back_pressure_run(&candidate.spec, target, BACK_PRESSURE_CAP);
    let bp_steps = bp_iters.unwrap_or(BACK_PRESSURE_CAP);
    outcome.set_exact("baseline.step_us", secs * 1e6 / bp_steps as f64);
    outcome.set_exact("baseline.iters_to_90", bp_iters.unwrap_or(0) as f64);
    outcome.set_exact(
        "baseline.iters_over_gradient",
        bp_steps as f64 / candidate.iters.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_and_reference_counts_are_a_function_of_the_seed() {
        let draw = |seed: u64| {
            let mut tracer = Tracer::new(false);
            let mut stream = SeedStream::new(seed, "fig4_cold");
            let s = screen(&mut stream, paper_instance, 3, ITERATION_CAP, &mut tracer);
            let print: Vec<(usize, u64, u64)> = s
                .accepted
                .iter()
                .map(|c| {
                    (
                        c.iters,
                        c.optimum.to_bits(),
                        c.spec.total_demand().to_bits(),
                    )
                })
                .collect();
            (s.drawn, print)
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a.1, draw(12).1);
        assert_eq!(a.1.len(), 3);
        assert!(a
            .1
            .iter()
            .all(|&(iters, ..)| iters > 0 && iters <= ITERATION_CAP));
        assert_eq!(paper_instance(5).nodes(), 40);
    }
}
