//! `scale_steady` — one large hierarchy in the converged regime.
//!
//! A 20 regions × 50 racks × 50 servers hierarchy (50 000 nodes) shared
//! by 64 tenants at 0.2× demand. One copy is warmed to 6 000 iterations,
//! where the active set skips most per-commodity chains and what is
//! left is the O(V) work every step pays regardless: the cost-cache
//! scan and the usage-totals reduction. The run then alternates a
//! cold-start episode on a fresh copy (the settle metrics) with a few
//! windows of steps on the warm one. It is also the only workload whose
//! set-up is large enough to notice.

use super::{
    build_core, pick_stratified, publish_inputs, require_candidates, run_to_target, screen,
    setup_phase, utility_ratio, CoreTrace, Plan, Settle, Steady,
};
use crate::report::Outcome;
use crate::stats::SeedStream;
use crate::surface::{Core, Spec, Stepper};
use crate::trace::Tracer;

/// Regions × racks × servers, tenants, warm-up iterations.
struct Size {
    shape: (usize, usize, usize),
    tenants: usize,
    warmup: usize,
}

const FULL: Size = Size {
    shape: (20, 50, 50),
    tenants: 64,
    warmup: 6000,
};

const SMOKE: Size = Size {
    shape: (4, 10, 25),
    tenants: 8,
    warmup: 500,
};

/// Offered load relative to the generator's: low, so routing settles.
const DEMAND_SCALE: f64 = 0.2;

/// Hierarchies drawn per run; the one whose cold start is of median
/// length is measured (the iterations to 90 % vary by ±10 % between
/// hierarchies, and there is room for only one 50k-node state).
const POOL: usize = 3;

/// Cold-start episodes a run makes at least.
const MIN_EPISODES: usize = 3;

/// Windows on the warm state between two episodes.
const WINDOWS_PER_EPISODE: usize = 20;

/// A hierarchy that cannot reach the target in this many iterations is
/// redrawn (none has been seen; the ramp takes ~240).
const ITERATION_CAP: usize = 3000;

/// Steady steps per timed window: short (~20 ms), so that many windows
/// fit between two disturbances of the host.
const WINDOW: usize = 50;

/// Runs the workload.
pub fn run(plan: &Plan, tracer: &mut Tracer, outcome: &mut Outcome) {
    let size = if plan.smoke { &SMOKE } else { &FULL };
    let mut stream = SeedStream::new(plan.seed, "scale_steady");
    let make = |seed| Spec::hierarchical(seed, size.shape, size.tenants, DEMAND_SCALE);
    let screened = screen(&mut stream, make, POOL, ITERATION_CAP, tracer);
    publish_inputs(&screened, outcome);
    if !require_candidates(&screened, POOL, outcome) {
        return;
    }
    let candidates = &pick_stratified(screened, 1);
    setup_phase(candidates, |c| build_core(c, tracer), outcome);

    let candidate = &candidates[0];
    let mut warm = [Core::new(candidate.network.clone())];
    while warm[0].iterations() < size.warmup {
        warm[0].step();
    }
    outcome.set_exact("utility_ratio", utility_ratio(&warm, candidates));

    let mut settle = Settle::expecting([candidate.iters].into_iter());
    let mut windows: Vec<Steady> = (0..plan.lanes())
        .map(|_| Steady::moving_state(1, WINDOW))
        .collect();
    let mut trace = CoreTrace::default();
    let phase = std::time::Instant::now();
    let mut step_number = 0;
    for round in 0.. {
        if round >= MIN_EPISODES && phase.elapsed().as_secs_f64() >= plan.budget() {
            break;
        }
        let mut cold = Core::new(candidate.network.clone());
        let episode = run_to_target(&mut cold, candidate.target(), 2 * candidate.iters + 64);
        settle.record(0, episode, outcome);
        drop(cold);
        let lane = round % plan.lanes();
        for _ in 0..WINDOWS_PER_EPISODE {
            windows[lane].window(0, &mut warm[0], &mut step_number, |core, n| {
                trace.step_in_lane(lane, core, n, tracer)
            });
        }
    }
    settle.publish(outcome);
    windows[0].publish(outcome);
    outcome.attempt(|| "output check".into(), warm[0].check_outputs());
    if plan.traced {
        trace.publish(&windows[1], &windows[0], &warm, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hierarchy_is_a_function_of_the_seed() {
        let make = |seed| Spec::hierarchical(seed, SMOKE.shape, SMOKE.tenants, DEMAND_SCALE);
        let (a, b, c) = (make(3), make(3), make(4));
        assert_eq!(a.nodes(), 4 * 10 * 25);
        assert_eq!(a.total_demand().to_bits(), b.total_demand().to_bits());
        assert_ne!(a.total_demand().to_bits(), c.total_demand().to_bits());
    }
}
