//! The five workloads and the machinery they share.
//!
//! Every workload has the same skeleton, so every end-to-end metric
//! means the same thing on each of them:
//!
//! 1. **inputs** from `--seed` (untimed), with the LP optimum of each
//!    instance as the reference;
//! 2. **set-up**, repeated [`SETUP_REPS`] times: `ExtendedNetwork::build`
//!    plus the constructor, for the whole instance set → `setup_s`;
//! 3. **settle episodes**: a disturbance (a cold start, or a churn
//!    event) timed until the target is reached → `settle_s`,
//!    `settle_iters`;
//! 4. **steady windows**: individually timed iterations on the settled
//!    state → `steps_per_s`, `step_p50_us`, `step_p95_us`;
//! 5. **output checks** on the final state, and `utility_ratio` against
//!    the LP optimum.
//!
//! 3 and 4 alternate for `--seconds`, so that every metric samples the
//! whole run (this class of host drifts over seconds); a traced run
//! spends part of the time on the per-layer probes instead.

pub mod churn;
pub mod cold;
pub mod mesh;
pub mod scale;

use crate::report::{Outcome, Value};
use crate::stats::{self, SeedStream};
use crate::surface::{Core, Network, Spec, Stepper, Sweeps};
use crate::trace::{Tracer, ROOT};
use std::time::Instant;

/// Share of the LP optimum a cold start must reach. 90 %, not 95/99 %:
/// under the default tunables the gradient plateaus at ~94–95 % of the
/// optimum, so the higher targets are unreachable on most seeds.
pub const TARGET_SHARE: f64 = 0.90;

/// Times the whole set-up is repeated at least; `setup_s` is the
/// median. A cheap set-up repeats up to [`SETUP_REPS_CHEAP`] times
/// within [`SETUP_CHEAP_SECS`].
const SETUP_REPS: usize = 5;
const SETUP_REPS_CHEAP: usize = 41;
const SETUP_CHEAP_SECS: f64 = 0.4;

/// Every this-many-th steady step of a traced core run is replayed
/// sweep by sweep.
pub const REPLAY_EVERY: u64 = 64;

/// Iterations per separately clocked chunk of a settle episode.
pub const CHUNK: usize = 32;

/// The percentile over repetitions of identical work that a timing
/// reports. This class of host drifts by ±20 % over seconds (a fixed
/// loop shows it; see README.md, "Noise floor"), interference only
/// ever adds time, and the work is deterministic — so the low end of
/// the repetitions is the reproducible quantity, and the median is not.
pub const FLOOR_PERCENTILE: f64 = 2.0;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the measured part of the run.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// `--smoke`: tiny sizes, every code path.
    pub smoke: bool,
}

impl Plan {
    /// Seconds for the measurement loop. A traced run keeps part of
    /// `--seconds` for its per-layer probes.
    pub fn budget(&self) -> f64 {
        self.seconds * if self.traced { 0.7 } else { 1.0 }
    }

    /// Window lanes: a traced run alternates plain and traced lanes.
    pub fn lanes(&self) -> usize {
        1 + usize::from(self.traced)
    }
}

/// Runs workload `name`; `None` if there is no such workload.
pub fn run(name: &str, plan: &Plan, tracer: &mut Tracer) -> Option<Outcome> {
    let mut outcome = Outcome::default();
    match name {
        "fig4_cold" => cold::run(plan, tracer, &mut outcome),
        "scale_steady" => scale::run(plan, tracer, &mut outcome),
        "churn_400" => churn::run(plan, tracer, &mut outcome),
        "mesh_uds_small" => mesh::run(&mesh::SMALL, plan, tracer, &mut outcome),
        "mesh_uds_wide" => mesh::run(&mesh::WIDE, plan, tracer, &mut outcome),
        _ => return None,
    }
    outcome.set_exact("peak_rss_mb", crate::report::peak_rss_mb());
    Some(outcome)
}

// --- inputs -------------------------------------------------------------

/// An instance the workload will run: its spec, its built network, the
/// LP optimum, and how many iterations a cold single-process start
/// needs to reach [`TARGET_SHARE`] of it.
pub struct Candidate {
    /// The generated instance.
    pub spec: Spec,
    /// Its extended network (cloned into every episode).
    pub network: Network,
    /// LP optimum.
    pub optimum: f64,
    /// Reference iterations to target (deterministic).
    pub iters: usize,
}

impl Candidate {
    /// The utility a cold start must reach.
    pub fn target(&self) -> f64 {
        TARGET_SHARE * self.optimum
    }
}

/// The outcome of screening the seed stream.
pub struct Screened {
    /// Accepted instances, in stream order.
    pub accepted: Vec<Candidate>,
    /// Instances drawn.
    pub drawn: usize,
    /// Wall seconds spent generating instances.
    pub generate_s: f64,
    /// Wall seconds spent in LP solves.
    pub lp_s: f64,
}

/// Draws instances from `stream` until `want` of them reach the target
/// within `cap` iterations of a cold single-process reference run.
///
/// About one in eight instances of the paper's family stalls below 90 %
/// of its LP optimum under the default tunables (a product property,
/// reported as `workload.rejected`), and a few more need ten times the
/// median. The contract asks for workloads on which no operation fails,
/// and a sum over episodes is only steady between seeds if no single
/// straggler dominates it, so both kinds are screened out here, by a
/// run that is deterministic and therefore identical on every
/// invocation with the same seed.
pub fn screen(
    stream: &mut SeedStream,
    make: impl Fn(u64) -> Spec,
    want: usize,
    cap: usize,
    tracer: &mut Tracer,
) -> Screened {
    let mut out = Screened {
        accepted: Vec::with_capacity(want),
        drawn: 0,
        generate_s: 0.0,
        lp_s: 0.0,
    };
    let max_draws = 4 * want + 16;
    while out.accepted.len() < want && out.drawn < max_draws {
        let instance_seed = stream.next_u64();
        out.drawn += 1;
        let draw = out.drawn as u64;
        let (spec, secs) = tracer.time("model.generate", ROOT, draw, || make(instance_seed));
        out.generate_s += secs;
        let (optimum, secs) = tracer.time("solver.lp", ROOT, draw, || spec.lp_optimum());
        out.lp_s += secs;
        let network = Network::build(&spec);
        let mut reference = Core::new(network.clone());
        let reference = run_to_target(&mut reference, TARGET_SHARE * optimum, cap);
        if reference.reached {
            out.accepted.push(Candidate {
                spec,
                network,
                optimum,
                iters: reference.iters,
            });
        }
    }
    out
}

// --- settle episodes ----------------------------------------------------

/// One disturbance-to-target run, clocked in chunks of [`CHUNK`]
/// iterations.
#[derive(Debug)]
pub struct Episode {
    /// Iterations taken.
    pub iters: usize,
    /// Whether the target was reached within the cap.
    pub reached: bool,
    /// Wall seconds of each chunk, in order (the last may be partial).
    pub chunks: Vec<f64>,
}

/// Steps until `utility() ≥ target` or `cap` iterations. The utility
/// probe after every step is part of the episode: it is how an operator
/// would notice the target.
pub fn run_to_target<S: Stepper>(stepper: &mut S, target: f64, cap: usize) -> Episode {
    let mut chunks = Vec::with_capacity(cap / CHUNK + 1);
    let mut mark = Instant::now();
    let mut iters = 0;
    let reached = loop {
        if stepper.utility() >= target {
            break true;
        }
        if iters == cap {
            break false;
        }
        stepper.step();
        iters += 1;
        if iters % CHUNK == 0 {
            let now = Instant::now();
            chunks.push((now - mark).as_secs_f64());
            mark = now;
        }
    };
    chunks.push(mark.elapsed().as_secs_f64());
    Episode {
        iters,
        reached,
        chunks,
    }
}

/// Settle episodes per slot (an instance, or a churn event), one entry
/// per pass.
#[derive(Debug, Default)]
pub struct Settle {
    /// `chunks[slot][pass][chunk]`, seconds.
    chunks: Vec<Vec<Vec<f64>>>,
    /// Iterations to target per slot: the reference count where one is
    /// known up front, otherwise the first pass's count.
    iters: Vec<Option<usize>>,
}

impl Settle {
    /// Empty tables for `slots` episodes per pass.
    pub fn new(slots: usize) -> Self {
        Settle {
            chunks: vec![Vec::new(); slots],
            iters: vec![None; slots],
        }
    }

    /// Tables whose iteration counts are known from reference runs.
    pub fn expecting(iters: impl Iterator<Item = usize>) -> Self {
        let iters: Vec<Option<usize>> = iters.map(Some).collect();
        Settle {
            chunks: vec![Vec::new(); iters.len()],
            iters,
        }
    }

    /// Passes recorded for `slot` so far.
    pub fn passes(&self, slot: usize) -> usize {
        self.chunks[slot].len()
    }

    /// Records episode `slot` of some pass. The product is
    /// deterministic, so the iteration count must equal the expected
    /// one (the reference run's, or the first pass's); a miss or a
    /// different count is a failed operation.
    pub fn record(&mut self, slot: usize, episode: Episode, outcome: &mut Outcome) {
        let iters = episode.iters;
        let expected = *self.iters[slot].get_or_insert(iters);
        let verdict = if !episode.reached {
            Err(format!("target not reached in {iters} iterations"))
        } else if expected != iters {
            Err(format!("took {iters} iterations, expected {expected}"))
        } else {
            Ok(())
        };
        outcome.attempt(|| format!("settle episode {slot}"), verdict);
        self.chunks[slot].push(episode.chunks);
    }

    /// The slot's time with the host's interference taken out: every
    /// pass does identical work chunk by chunk, so each chunk costs its
    /// fastest pass (see README.md, "Noise floor").
    fn floor(&self, slot: usize) -> f64 {
        let passes = &self.chunks[slot];
        let chunks = passes.iter().map(Vec::len).min().unwrap_or(0);
        (0..chunks)
            .map(|c| passes.iter().map(|p| p[c]).fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// Publishes `settle_s` (Σ over slots of the per-slot floor, with
    /// the quartiles of whole-episode times for context),
    /// `settle_iters` (Σ iterations) and the per-episode distribution.
    pub fn publish(&self, outcome: &mut Outcome) {
        let floors: Vec<f64> = (0..self.chunks.len()).map(|s| self.floor(s)).collect();
        let whole: Vec<[f64; 3]> = self
            .chunks
            .iter()
            .map(|passes| {
                let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
                stats::quartiles(&totals)
            })
            .collect();
        let episodes: usize = self.chunks.iter().map(Vec::len).sum();
        outcome.set(
            "settle_s",
            Value {
                value: floors.iter().sum(),
                q1: whole.iter().map(|q| q[0]).sum(),
                q3: whole.iter().map(|q| q[2]).sum(),
                n: episodes,
            },
        );
        let iters: usize = self.iters.iter().map(|k| k.unwrap_or(0)).sum();
        outcome.set_exact("settle_iters", iters as f64);
        outcome.set_exact("settle.episodes", episodes as f64);
        let mut floors_ms: Vec<f64> = floors.iter().map(|s| s * 1e3).collect();
        outcome.set("settle.p50_ms", Value::percentile_of(&mut floors_ms, 50.0));
        outcome.set("settle.p90_ms", Value::percentile_of(&mut floors_ms, 90.0));
    }
}

// --- steady windows -----------------------------------------------------

/// One window of individually timed steps on one stepper.
#[derive(Clone, Copy, Debug)]
struct Window {
    secs: f64,
    p50_us: f64,
    p95_us: f64,
}

/// Windows of individually timed steps, per slot (one stepper's
/// windows, all covering comparable work).
#[derive(Debug)]
pub struct Steady {
    /// `windows[slot][repetition]`.
    windows: Vec<Vec<Window>>,
    /// Steps per window.
    steps: usize,
    /// How a slot's repetitions are reduced to its noise floor.
    floor: Floor,
    scratch: Vec<f64>,
}

/// The noise floor of a slot's repeated windows.
#[derive(Debug)]
enum Floor {
    /// Every repetition is the very same work, step for step (a window
    /// that follows a deterministic cold start): each step costs its
    /// fastest repetition. `profile[slot][step]`, microseconds.
    SameWork(Vec<Vec<f64>>),
    /// The state moves on between windows of a converged run: the
    /// [`FLOOR_PERCENTILE`] over the windows' own summaries.
    MovingState,
}

impl Steady {
    /// Tables for `slots` steppers whose windows of `steps` steps repeat
    /// the same work every time.
    pub fn same_work(slots: usize, steps: usize) -> Self {
        let profile = vec![vec![f64::INFINITY; steps]; slots];
        Steady::new(slots, steps, Floor::SameWork(profile))
    }

    /// Tables for `slots` steppers whose state moves on between windows.
    pub fn moving_state(slots: usize, steps: usize) -> Self {
        Steady::new(slots, steps, Floor::MovingState)
    }

    fn new(slots: usize, steps: usize, floor: Floor) -> Self {
        Steady {
            windows: vec![Vec::new(); slots],
            steps,
            floor,
            scratch: vec![0.0; steps],
        }
    }

    /// Runs one window on `stepper` for `slot`. `timed_step` performs
    /// one step and returns its microseconds (a traced run wraps the
    /// step in spans); `step_number` counts steps across windows.
    pub fn window<S>(
        &mut self,
        slot: usize,
        stepper: &mut S,
        step_number: &mut u64,
        mut timed_step: impl FnMut(&mut S, u64) -> f64,
    ) {
        for us in &mut self.scratch {
            *us = timed_step(stepper, *step_number);
            *step_number += 1;
        }
        if let Floor::SameWork(profile) = &mut self.floor {
            for (floor, &us) in profile[slot].iter_mut().zip(&self.scratch) {
                *floor = floor.min(us);
            }
        }
        self.windows[slot].push(summarize(&mut self.scratch));
    }

    /// Each slot's windows summarized at percentile `p` over its
    /// repetitions, then combined over slots: `(steps per second, step
    /// p50 µs, step p95 µs)`. The rate is one window per slot over the
    /// summed window times; the step times are means over slots.
    fn at(&self, p: f64) -> (f64, f64, f64) {
        let per_slot: Vec<Window> = self
            .windows
            .iter()
            .map(|repetitions| {
                let pick = |f: fn(&Window) -> f64| {
                    let mut v: Vec<f64> = repetitions.iter().map(f).collect();
                    stats::sort(&mut v);
                    stats::percentile(&v, p)
                };
                Window {
                    secs: pick(|w| w.secs),
                    p50_us: pick(|w| w.p50_us),
                    p95_us: pick(|w| w.p95_us),
                }
            })
            .collect();
        self.combine(&per_slot)
    }

    /// The same three numbers at the noise floor.
    fn at_floor(&self) -> (f64, f64, f64) {
        match &self.floor {
            Floor::MovingState => self.at(FLOOR_PERCENTILE),
            Floor::SameWork(profile) => {
                let per_slot: Vec<Window> = profile
                    .iter()
                    .map(|steps| summarize(&mut steps.clone()))
                    .collect();
                self.combine(&per_slot)
            }
        }
    }

    fn combine(&self, per_slot: &[Window]) -> (f64, f64, f64) {
        let n = per_slot.len() as f64;
        let sum = |f: fn(&Window) -> f64| per_slot.iter().map(f).sum::<f64>();
        (
            n * self.steps as f64 / sum(|w| w.secs),
            sum(|w| w.p50_us) / n,
            sum(|w| w.p95_us) / n,
        )
    }

    /// Publishes `steps_per_s`, `step_p50_us`, `step_p95_us` at the
    /// noise floor, with the quartiles over repetitions for context.
    pub fn publish(&self, outcome: &mut Outcome) {
        let n = self.windows.iter().map(Vec::len).sum();
        let (value, q1, q3) = (self.at_floor(), self.at(25.0), self.at(75.0));
        let metric = |value, q1, q3| Value { value, q1, q3, n };
        outcome.set("steps_per_s", metric(value.0, q1.0, q3.0));
        outcome.set("step_p50_us", metric(value.1, q1.1, q3.1));
        outcome.set("step_p95_us", metric(value.2, q1.2, q3.2));
    }

    /// Floor of the median step time, µs.
    pub fn p50_us(&self) -> f64 {
        self.at_floor().1
    }

    /// Steps timed in total.
    pub fn total_steps(&self) -> usize {
        self.windows.iter().map(Vec::len).sum::<usize>() * self.steps
    }

    /// Wall seconds inside timed steps in total.
    pub fn total_secs(&self) -> f64 {
        self.windows.iter().flatten().map(|w| w.secs).sum()
    }
}

/// Total, median and 95th percentile of one window's step times (µs;
/// sorts them).
fn summarize(step_us: &mut [f64]) -> Window {
    let secs = step_us.iter().sum::<f64>() / 1e6;
    stats::sort(step_us);
    Window {
        secs,
        p50_us: stats::percentile(step_us, 50.0),
        p95_us: stats::percentile(step_us, 95.0),
    }
}

/// One plainly timed step, in microseconds.
pub fn plain_step<S: Stepper>(stepper: &mut S) -> f64 {
    let start = Instant::now();
    stepper.step();
    start.elapsed().as_secs_f64() * 1e6
}

// --- cold-start sets ----------------------------------------------------

/// What [`cold_phase`] measured.
pub struct ColdRun<S> {
    /// The cold-start episodes.
    pub settle: Settle,
    /// The windows that follow each episode, one table per lane.
    pub tails: Vec<Steady>,
    /// The last stepper built for each candidate, past its tail.
    pub steppers: Vec<S>,
}

/// Runs passes over `candidates` until `budget` seconds have passed
/// (always one full pass). For each candidate a pass builds a stepper
/// (`make`, outside the clocks), runs the cold-start episode to the
/// target in clocked chunks, and then one window of `tail` individually
/// timed steps. Every pass repeats the very same work, so every chunk
/// and every window can be taken from its fastest pass. Pass `p`
/// records its windows in lane `p % lanes` and tells `timed_step` the
/// lane, so a traced run can alternate plain and traced passes.
pub fn cold_phase<S: Stepper>(
    candidates: &[Candidate],
    mut make: impl FnMut(&Candidate) -> S,
    budget: f64,
    tail: usize,
    lanes: usize,
    mut timed_step: impl FnMut(&mut S, usize, u64) -> f64,
    outcome: &mut Outcome,
) -> ColdRun<S> {
    let mut settle = Settle::expecting(candidates.iter().map(|c| c.iters));
    let mut tails: Vec<Steady> = (0..lanes)
        .map(|_| Steady::same_work(candidates.len(), tail))
        .collect();
    let mut last: Vec<Option<S>> = candidates.iter().map(|_| None).collect();
    let phase = Instant::now();
    let mut step_number = 0;
    'passes: for pass in 0.. {
        let lane = pass % lanes;
        for (slot, candidate) in candidates.iter().enumerate() {
            // every lane gets one full pass, whatever the budget
            if pass >= lanes && phase.elapsed().as_secs_f64() >= budget {
                break 'passes;
            }
            last[slot] = None; // free the previous pass's state first
            let mut stepper = make(candidate);
            // the reference's own count plus slack: a regression that
            // needs more iterations fails loudly instead of hanging
            let episode = run_to_target(&mut stepper, candidate.target(), 2 * candidate.iters + 64);
            settle.record(slot, episode, outcome);
            tails[lane].window(slot, &mut stepper, &mut step_number, |s, n| {
                timed_step(s, lane, n)
            });
            last[slot] = Some(stepper);
        }
    }
    let steppers = last
        .into_iter()
        .map(|s| s.expect("the first pass visits every candidate"))
        .collect();
    ColdRun {
        settle,
        tails,
        steppers,
    }
}

// --- tracing a core step ------------------------------------------------

/// The traced lane of a core workload: every step is timed inside a
/// span, and every [`REPLAY_EVERY`]-th is replayed sweep by sweep.
#[derive(Default)]
pub struct CoreTrace {
    sweeps: Vec<Sweeps>,
    rows: usize,
}

impl CoreTrace {
    /// One step of window lane `lane`: lane 0 is plain, lane 1 traced.
    pub fn step_in_lane(
        &mut self,
        lane: usize,
        core: &mut Core,
        n: u64,
        tracer: &mut Tracer,
    ) -> f64 {
        match lane {
            0 => plain_step(core),
            _ => self.step(core, n, tracer),
        }
    }

    /// One traced step; returns its microseconds (the replay is outside
    /// the clock).
    fn step(&mut self, core: &mut Core, n: u64, tracer: &mut Tracer) -> f64 {
        let sampled = n.is_multiple_of(REPLAY_EVERY);
        let span = if sampled {
            tracer.open("core.step", ROOT, n)
        } else {
            ROOT
        };
        let start = Instant::now();
        self.rows += core.step_rows();
        let us = start.elapsed().as_secs_f64() * 1e6;
        tracer.close(span);
        if sampled {
            self.sweeps.push(core.replay_sweeps(tracer, span, n));
        }
        us
    }

    /// Publishes the core per-layer metrics from the traced lane, and
    /// `trace.overhead` against the plain lane.
    pub fn publish(&self, traced: &Steady, plain: &Steady, cores: &[Core], outcome: &mut Outcome) {
        let step_us = traced.p50_us();
        let sweep_us = |f: fn(&Sweeps) -> f64| {
            let mut samples: Vec<f64> = self.sweeps.iter().map(|s| f(s) * 1e6).collect();
            Value::floor_of(&mut samples)
        };
        outcome.set_exact("core.step.us", step_us);
        outcome.set("core.cost.full_us", sweep_us(|s| s.cost));
        outcome.set("core.blocked.sweep_us", sweep_us(|s| s.tags));
        outcome.set("core.gamma.apply_us", sweep_us(|s| s.gamma));
        outcome.set("core.flows.sweep_us", sweep_us(|s| s.flows));
        outcome.set("core.marginals.sweep_us", sweep_us(|s| s.marginals));
        outcome.set_exact(
            "core.step.sweeps_over_step",
            sweep_us(Sweeps::total).value / step_us,
        );
        outcome.set_exact(
            "core.gamma.rows",
            self.rows as f64 / traced.total_steps() as f64,
        );
        let (live, routers) = cores
            .iter()
            .map(Core::shape)
            .fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
        outcome.set_exact("core.live_arcs", live as f64);
        outcome.set_exact("core.routers", routers as f64);
        outcome.set_exact("trace.overhead", step_us / plain.p50_us());
        pool_probe(&cores[0], outcome);
    }
}

/// The worker-pool probe: the same state stepped on one and on two
/// workers. On a shared two-core host this mostly measures the
/// scheduler, which is why the pool appears nowhere else.
fn pool_probe(core: &Core, outcome: &mut Outcome) {
    const STEPS: usize = 300;
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let time = |threads: usize| {
        let (mut fork, resolved) = core.fork_with_threads(threads);
        let mut samples: Vec<f64> = (0..STEPS).map(|_| plain_step(&mut fork)).collect();
        (Value::floor_of(&mut samples).value, resolved)
    };
    let (t1, _) = time(1);
    let (t2, resolved) = time(available.min(2));
    outcome.set_exact("core.pool.threads", resolved as f64);
    outcome.set_exact("core.pool.t2_step_us", t2);
    outcome.set_exact("core.pool.t2_over_t1", t2 / t1);
}

// --- set-up and checks --------------------------------------------------

/// Times the set-up of the whole instance set at least [`SETUP_REPS`]
/// times (more while it is cheap: a set-up of a few milliseconds needs
/// more repetitions for a steady median). `build_one` constructs one
/// candidate's stepper from its spec and returns `(seconds in
/// ExtendedNetwork::build, seconds in the constructor)`. Publishes
/// `setup_s` — the median, as the contract asks — and the two
/// per-layer shares.
pub fn setup_phase(
    candidates: &[Candidate],
    mut build_one: impl FnMut(&Candidate) -> (f64, f64),
    outcome: &mut Outcome,
) {
    let (mut whole, mut build, mut construct) = (Vec::new(), Vec::new(), Vec::new());
    let phase = Instant::now();
    while whole.len() < SETUP_REPS
        || (whole.len() < SETUP_REPS_CHEAP && phase.elapsed().as_secs_f64() < SETUP_CHEAP_SECS)
    {
        let start = Instant::now();
        let (mut b, mut c) = (0.0, 0.0);
        for candidate in candidates {
            let (bs, cs) = build_one(candidate);
            b += bs;
            c += cs;
        }
        whole.push(start.elapsed().as_secs_f64());
        build.push(b);
        construct.push(c);
    }
    outcome.set("setup_s", Value::median_of(&whole));
    outcome.set("transform.build_s", Value::median_of(&build));
    outcome.set("core.algorithm.new_s", Value::median_of(&construct));
}

/// `build_one` for a single-process core.
pub fn build_core(candidate: &Candidate, tracer: &mut Tracer) -> (f64, f64) {
    let (network, build) = tracer.time("transform.build", ROOT, 0, || {
        Network::build(&candidate.spec)
    });
    let (core, construct) = tracer.time("core.algorithm.new", ROOT, 0, || Core::new(network));
    std::hint::black_box(core);
    (build, construct)
}

/// Publishes the input-generation per-layer metrics.
pub fn publish_inputs(screened: &Screened, outcome: &mut Outcome) {
    outcome.set_exact("workload.candidates", screened.drawn as f64);
    outcome.set_exact(
        "workload.rejected",
        (screened.drawn - screened.accepted.len()) as f64,
    );
    outcome.set_exact("model.generate_s", screened.generate_s);
    outcome.set_exact("solver.lp_s", screened.lp_s);
}

/// Keeps `picks` of the screened instances: the mid-points of `picks`
/// equal strata of their reference iteration counts, easiest first
/// ([`stats::stratified_pick`]). A sum over the picks then varies from
/// seed to seed like a quantile estimate over the whole pool, not like
/// a sum of `picks` draws.
pub fn pick_stratified(screened: Screened, picks: usize) -> Vec<Candidate> {
    let difficulty: Vec<usize> = screened.accepted.iter().map(|c| c.iters).collect();
    let mut pool: Vec<Option<Candidate>> = screened.accepted.into_iter().map(Some).collect();
    stats::stratified_pick(&difficulty, picks)
        .into_iter()
        .map(|i| pool[i].take().expect("strata do not overlap"))
        .collect()
}

/// Fails the run if screening could not fill the instance set.
pub fn require_candidates(screened: &Screened, want: usize, outcome: &mut Outcome) -> bool {
    let enough = screened.accepted.len() >= want;
    outcome.attempt(
        || "instance screening".into(),
        if enough {
            Ok(())
        } else {
            Err(format!(
                "only {} of {} drawn instances reach the target",
                screened.accepted.len(),
                screened.drawn
            ))
        },
    );
    enough
}

/// Mean over steppers of current utility ÷ LP optimum. Callers take it
/// at a fixed iteration count, so it repeats exactly.
pub fn utility_ratio<S: Stepper>(steppers: &[S], candidates: &[Candidate]) -> f64 {
    steppers
        .iter()
        .zip(candidates)
        .map(|(s, c)| s.utility() / c.optimum)
        .sum::<f64>()
        / steppers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ramp(f64);

    impl Stepper for Ramp {
        fn step(&mut self) {
            self.0 += 1.0;
        }
        fn utility(&self) -> f64 {
            self.0
        }
    }

    fn episode(iters: usize, reached: bool, chunks: &[f64]) -> Episode {
        Episode {
            iters,
            reached,
            chunks: chunks.to_vec(),
        }
    }

    #[test]
    fn run_to_target_counts_steps_chunks_and_respects_the_cap() {
        let e = run_to_target(&mut Ramp(0.0), 3.0, 10);
        assert_eq!((e.iters, e.reached, e.chunks.len()), (3, true, 1));
        let e = run_to_target(&mut Ramp(5.0), 3.0, 10);
        assert_eq!((e.iters, e.reached), (0, true));
        let e = run_to_target(&mut Ramp(0.0), 1e9, 2 * CHUNK + 1);
        assert_eq!(
            (e.iters, e.reached, e.chunks.len()),
            (2 * CHUNK + 1, false, 3)
        );
    }

    #[test]
    fn settle_takes_each_chunk_from_its_fastest_pass() {
        let mut outcome = Outcome::default();
        let mut settle = Settle::new(2);
        settle.record(0, episode(10, true, &[1.0, 5.0]), &mut outcome);
        settle.record(1, episode(20, true, &[4.0]), &mut outcome);
        settle.record(0, episode(10, true, &[3.0, 2.0]), &mut outcome);
        assert!(outcome.correct());
        assert_eq!(settle.passes(0), 2);
        settle.publish(&mut outcome);
        // slot 0: min(1,3) + min(5,2) = 3; slot 1: 4
        assert_eq!(outcome.metrics["settle_s"].value, 3.0 + 4.0);
        assert_eq!(outcome.metrics["settle_s"].n, 3);
        assert_eq!(outcome.metrics["settle_iters"].value, 30.0);
        // a different count on a later pass is a failed operation
        settle.record(1, episode(21, true, &[4.0]), &mut outcome);
        assert_eq!(outcome.failures.len(), 1);
        settle.record(1, episode(20, false, &[4.0]), &mut outcome);
        assert_eq!(outcome.failures.len(), 2);
        // ... and so is a first pass that disagrees with the reference
        let mut expecting = Settle::expecting([7usize].into_iter());
        expecting.record(0, episode(8, true, &[1.0]), &mut outcome);
        assert_eq!(outcome.failures.len(), 3);
    }

    #[test]
    fn steady_windows_time_every_step_and_publish() {
        let mut ramp = Ramp(0.0);
        let mut steady = Steady::moving_state(1, 3);
        let mut n = 0;
        for _ in 0..4 {
            steady.window(0, &mut ramp, &mut n, |r, _| plain_step(r));
        }
        assert_eq!((steady.total_steps(), n, ramp.0), (12, 12, 12.0));
        let mut outcome = Outcome::default();
        steady.publish(&mut outcome);
        assert!(outcome.metrics["steps_per_s"].value > 0.0);
        assert_eq!(outcome.metrics["step_p50_us"].n, 4);
    }

    #[test]
    fn a_moving_state_reports_the_low_end_of_its_windows() {
        let window = |secs: f64| Window {
            secs,
            p50_us: secs * 10.0,
            p95_us: secs * 20.0,
        };
        let mut steady = Steady::moving_state(1, 100);
        steady.windows[0] = (1..=11).map(|s| window(f64::from(s))).collect();
        // 2nd percentile of 1..=11 is 1.2
        let (rate, p50, p95) = steady.at_floor();
        assert!((rate - 100.0 / 1.2).abs() < 1e-9);
        assert!((p50 - 12.0).abs() < 1e-9 && (p95 - 24.0).abs() < 1e-9);
        assert_eq!(steady.at(50.0).1, 60.0);
        assert_eq!(steady.p50_us(), p50);
    }

    #[test]
    fn same_work_takes_each_step_from_its_fastest_repetition() {
        let mut steady = Steady::same_work(1, 3);
        let mut n = 0;
        // two repetitions of the same three steps: 5,1,9 then 2,4,3 µs
        let mut times = [5.0, 1.0, 9.0, 2.0, 4.0, 3.0].into_iter();
        for _ in 0..2 {
            steady.window(0, &mut (), &mut n, |(), _| times.next().unwrap());
        }
        // floor profile 2,1,3 → 6 µs per window of 3 steps, median 2
        let (rate, p50, _) = steady.at_floor();
        assert_eq!(p50, 2.0);
        assert!((rate - 3.0 / 6e-6).abs() < 1e-3);
    }
}
