//! `churn_400` — the write path: queries come, go and change.
//!
//! A 400-node / 32-commodity network is settled for 6 000 iterations,
//! then driven through a seeded script: every commodity in a seeded
//! order is evicted and re-admitted cold
//! (`commodity_def` → `evict_commodity` → `admit_commodity`), and after
//! each re-admission comes either a demand step (`set_max_rate` ×1.5 on
//! a seeded commodity) or a capacity cut (`set_capacity` ×0.7 on the
//! busiest finite node). Same core layers as the other two core
//! workloads, but entered through reshape, cache and active-set
//! invalidation and the dense rebuild — so a steady-state gain that
//! taxes mutation shows here.
//!
//! **Settle rule.** After an event the state is stepped for a fixed
//! horizon; the *settled level* is the mean utility over the horizon's
//! last 32 iterations, and the event is settled at the first iteration
//! `k` from which total utility stays within ±1 % of that level for 32
//! consecutive iterations. The episode's time is the wall time from the
//! event to the end of that confirmation window. (±0.5 % of the single
//! last value, the first rule tried, never settles on about one event
//! in a thousand: at 400 nodes the default step size limit-cycles with
//! an amplitude just above it.) Every
//! step is stamped, so one pass both finds `k` and times it; the rest
//! of the horizon is the quiesce period before the next event. Runs
//! are deterministic, so `k` must repeat on every pass.
//!
//! **Why the network is fixed and only the script is seeded.** With the
//! instance drawn from `--seed`, Σk over the script varied by 20–50 %
//! (interquartile, ten seeds): a handful of slow re-admissions decide
//! the sum, and which commodities are slow is a property of the
//! instance. With the instance fixed (the 400/32 case of
//! `BENCH_core.json`'s admission suite) and all 32 commodities
//! re-admitted in a seeded order between seeded minor events, the same
//! sum varies by ~3 %.

use super::{
    build_core, setup_phase, utility_ratio, Candidate, CoreTrace, Episode, Plan, Settle, Steady,
    CHUNK,
};
use crate::report::{Outcome, Value};
use crate::stats::{settled_at, SeedStream};
use crate::surface::{Core, Network, Spec, Stepper};
use crate::trace::{Tracer, ROOT};
use std::time::Instant;

const NODES: usize = 400;
const COMMODITIES: usize = 32;
/// The admission-suite instance of `BENCH_core.json`.
const INSTANCE_SEED: u64 = 1;
/// Iterations before the script starts.
const BASE_SETTLE: usize = 6000;
/// Iterations stepped after a re-admission / after a minor event.
const READMIT_HORIZON: usize = 1000;
const MINOR_HORIZON: usize = 250;
/// The settle band and its confirmation window.
const BAND: f64 = 0.01;
const CONFIRM: usize = 32;
/// Steady steps per timed window (short, ~4 ms, so that many windows
/// fit between two disturbances of the host), and windows after each
/// script pass.
const WINDOW: usize = 100;
const WINDOWS_PER_PASS: usize = 100;

/// One scripted mutation. Commodities are named by their index in the
/// settled base network; the pass tracks where each one currently sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Evict and re-admit cold.
    Readmit(usize),
    /// Offered load ×1.5.
    DemandUp(usize),
    /// Capacity ×0.7 on the busiest finite node.
    CapacityCut,
}

impl Event {
    fn horizon(self) -> usize {
        match self {
            Event::Readmit(_) => READMIT_HORIZON,
            Event::DemandUp(_) | Event::CapacityCut => MINOR_HORIZON,
        }
    }
}

/// The event script of one run: `readmits` commodities in seeded order,
/// each followed by a minor event.
pub fn script(seed: u64, readmits: usize) -> Vec<Event> {
    let mut stream = SeedStream::new(seed, "churn_400");
    let order = stream.permutation(COMMODITIES);
    let mut events = Vec::with_capacity(2 * readmits);
    for (i, &commodity) in order.iter().take(readmits).enumerate() {
        events.push(Event::Readmit(commodity));
        events.push(if i % 2 == 0 {
            Event::DemandUp(stream.below(COMMODITIES))
        } else {
            Event::CapacityCut
        });
    }
    events
}

/// Write-path timings collected while the script runs (seconds).
#[derive(Default)]
struct WriteProbes {
    evict: Vec<f64>,
    admit: Vec<f64>,
    remove: Vec<f64>,
    add: Vec<f64>,
}

/// Runs the script once from a copy of `base`; returns the final state.
fn pass(
    base: &Core,
    events: &[Event],
    settle: &mut Settle,
    probes: &mut WriteProbes,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Core {
    let mut core = base.clone();
    // position[i] = base index of the commodity now at index i
    let mut position: Vec<usize> = (0..core.commodities()).collect();
    let index_of = |position: &[usize], commodity: usize| {
        position
            .iter()
            .position(|&c| c == commodity)
            .expect("every base commodity stays live")
    };
    let first_pass = settle.passes(0) == 0;
    let mut utility = vec![0.0; READMIT_HORIZON];
    let mut stamp = vec![0.0; READMIT_HORIZON];
    for (slot, &event) in events.iter().enumerate() {
        if let (Event::Readmit(commodity), true, true) = (event, first_pass, tracer.enabled()) {
            let (remove, add) = core.replay_reshape(index_of(&position, commodity));
            probes.remove.push(remove);
            probes.add.push(add);
        }
        let span = tracer.open("churn.event", ROOT, slot as u64);
        let start = Instant::now();
        let mut chunks = Vec::with_capacity(2 + READMIT_HORIZON / CHUNK);
        match event {
            Event::Readmit(commodity) => {
                let at = index_of(&position, commodity);
                let times = core.readmit(at);
                position.remove(at);
                position.push(commodity);
                probes.evict.push(times.evict);
                probes.admit.push(times.admit);
            }
            Event::DemandUp(commodity) => core.scale_demand(index_of(&position, commodity), 1.5),
            Event::CapacityCut => core.scale_busiest_capacity(0.7),
        }
        // chunk 0 is the mutation itself; the rest are CHUNK steps each
        let applied = start.elapsed().as_secs_f64();
        chunks.push(applied);
        let horizon = event.horizon();
        for s in 0..horizon {
            core.step();
            utility[s] = core.utility();
            stamp[s] = start.elapsed().as_secs_f64();
        }
        tracer.close(span);
        let level = utility[horizon - CONFIRM..horizon].iter().sum::<f64>() / CONFIRM as f64;
        let settled = settled_at(&utility[..horizon], level, BAND, CONFIRM);
        // timed up to the end of the confirmation window
        let steps = settled.map_or(horizon, |k| k + CONFIRM);
        let mut mark = applied;
        for end in (CHUNK..steps).step_by(CHUNK).chain([steps]) {
            chunks.push(stamp[end - 1] - mark);
            mark = stamp[end - 1];
        }
        settle.record(
            slot,
            Episode {
                iters: settled.unwrap_or(horizon),
                reached: settled.is_some(),
                chunks,
            },
            outcome,
        );
    }
    core
}

/// Runs the workload.
pub fn run(plan: &Plan, tracer: &mut Tracer, outcome: &mut Outcome) {
    let (spec, generate) = tracer.time("model.generate", ROOT, 0, || {
        Spec::random(INSTANCE_SEED, NODES, COMMODITIES, 1.0)
    });
    let (optimum, lp) = tracer.time("solver.lp", ROOT, 0, || spec.lp_optimum());
    outcome.set_exact("workload.candidates", 1.0);
    outcome.set_exact("model.generate_s", generate);
    outcome.set_exact("solver.lp_s", lp);
    let network = Network::build(&spec);
    let candidates = [Candidate {
        spec,
        network,
        optimum,
        iters: 0,
    }];
    setup_phase(&candidates, |c| build_core(c, tracer), outcome);

    let mut base = Core::new(candidates[0].network.clone());
    let base_settle = if plan.smoke { 1500 } else { BASE_SETTLE };
    for _ in 0..base_settle {
        base.step();
    }

    // passes start from `base`, untouched; windows advance a copy
    let mut cores = [base.clone()];
    outcome.set_exact("utility_ratio", utility_ratio(&cores, &candidates));

    let events = script(plan.seed, if plan.smoke { 3 } else { COMMODITIES });
    let mut settle = Settle::new(events.len());
    let mut probes = WriteProbes::default();
    let mut windows: Vec<Steady> = (0..plan.lanes())
        .map(|_| Steady::moving_state(1, WINDOW))
        .collect();
    let mut trace = CoreTrace::default();
    let phase = Instant::now();
    let mut step_number = 0;
    for round in 0.. {
        if round >= plan.lanes() && phase.elapsed().as_secs_f64() >= plan.budget() {
            break;
        }
        let end = pass(&base, &events, &mut settle, &mut probes, tracer, outcome);
        if round == 0 {
            outcome.attempt(|| "output check, end of script".into(), end.check_outputs());
        }
        drop(end);
        let lane = round % plan.lanes();
        for _ in 0..WINDOWS_PER_PASS {
            windows[lane].window(0, &mut cores[0], &mut step_number, |core, n| {
                trace.step_in_lane(lane, core, n, tracer)
            });
        }
    }
    settle.publish(outcome);
    windows[0].publish(outcome);
    let us = |secs: &[f64]| {
        let mut us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
        Value::floor_of(&mut us)
    };
    outcome.set("core.algorithm.evict_us", us(&probes.evict));
    outcome.set("core.algorithm.admit_us", us(&probes.admit));
    if !probes.remove.is_empty() {
        outcome.set("transform.remove_commodity_us", us(&probes.remove));
        outcome.set("transform.add_commodity_us", us(&probes.add));
    }
    outcome.attempt(
        || "output check, settled base".into(),
        cores[0].check_outputs(),
    );
    if plan.traced {
        trace.publish(&windows[1], &windows[0], &cores, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_a_function_of_the_seed_and_covers_every_commodity() {
        let a = script(9, COMMODITIES);
        assert_eq!(a, script(9, COMMODITIES));
        assert_ne!(a, script(10, COMMODITIES));
        assert_eq!(a.len(), 2 * COMMODITIES);
        let mut readmitted: Vec<usize> = a
            .iter()
            .filter_map(|e| match e {
                Event::Readmit(c) => Some(*c),
                _ => None,
            })
            .collect();
        readmitted.sort_unstable();
        assert_eq!(readmitted, (0..COMMODITIES).collect::<Vec<_>>());
        // re-admissions alternate with minor events, cuts on every other one
        assert!(matches!(a[0], Event::Readmit(_)));
        assert!(matches!(a[1], Event::DemandUp(_)));
        assert_eq!(a[3], Event::CapacityCut);
        // a shorter script is a prefix-compatible sample of the same order
        assert_eq!(script(9, 3).len(), 6);
    }
}
