//! `mesh_uds_small` and `mesh_uds_wide` — the region mesh over real
//! Unix-domain sockets.
//!
//! Four region workers, each holding a full mirror, exchange marginals,
//! Γ rows and flow forecasts over socket pairs; all of them are driven
//! from this one thread (`MeshRuntime::step`), no faults injected. An
//! episode is a cold start stepped until the mesh's utility reaches
//! 90 % of the LP optimum — the same episode `fig4_cold` runs in one
//! process, so the iteration count must equal the single-process
//! reference exactly, and the final utility must equal it bit for bit.
//!
//! * **small** — 40-node / 3-commodity paper instances: an iteration is
//!   ~300 µs of which the core sweeps are a few; the time is inside the
//!   four `Transport` calls. Wire and transport work moves this one.
//! * **wide** — 160 nodes / 16 commodities: ~1.1 ms per iteration, most
//!   of it in the workers (four full-mirror dense sweeps plus codec).
//!   Transport work should move this one by less than a third.
//!
//! A mesh iteration costs 50–100× a core step, so a run can afford only
//! a handful of distinct episodes (each has to be repeated a few times
//! to find its noise floor), and a handful of draws of a quantity with
//! a coefficient of variation of 0.3–0.5 is not steady from seed to
//! seed. The workload therefore screens a larger pool with cheap
//! single-process reference runs and times the mesh on a
//! *difficulty-stratified* subsample ([`pick_stratified`]): every seed
//! presents the same mix of easy and hard cold starts, and the sum over
//! the picks varies like a quantile estimate over the whole pool.

use super::{
    cold_phase, pick_stratified, plain_step, publish_inputs, require_candidates, run_to_target,
    screen, setup_phase, utility_ratio, Candidate, Plan, Steady,
};
use crate::report::{Outcome, Value};
use crate::stats::SeedStream;
use crate::surface::{
    codec_replay, Core, Link, Mesh, Network, Spec, Stepper, TransportLog, WireCounts,
    TRANSPORT_CALLS,
};
use crate::trace::{Tracer, ROOT};
use std::cell::RefCell;
use std::rc::Rc;

/// Region workers (and so 6 socket pairs).
const REGIONS: usize = 4;

/// Every this-many-th traced iteration keeps its transport spans.
const SPAN_EVERY: u64 = 16;

/// Frames captured for the codec replay, and how often they are replayed.
const CAPTURED_FRAMES: usize = 512;
const CODEC_ROUNDS: usize = 20;

/// Cold iterations each bypass leg runs.
const LEG_ITERATIONS: usize = 400;

/// Frame loss of the lossy leg.
const LOSS: f64 = 0.02;

/// One of the two mesh workloads.
pub struct Shape {
    tag: &'static str,
    nodes: usize,
    commodities: usize,
    demand_scale: f64,
    /// Instances screened by single-process reference runs.
    pool: usize,
    /// Instances the mesh is timed on.
    picks: usize,
    /// Reference iterations beyond which an instance is screened out.
    cap: usize,
    /// Individually timed iterations after each cold start.
    tail: usize,
}

/// `mesh_uds_small`.
pub const SMALL: Shape = Shape {
    tag: "mesh_uds_small",
    nodes: 40,
    commodities: 3,
    demand_scale: 3.0,
    pool: 128,
    picks: 6,
    cap: 3000,
    tail: 100,
};

/// `mesh_uds_wide`.
pub const WIDE: Shape = Shape {
    tag: "mesh_uds_wide",
    nodes: 160,
    commodities: 16,
    demand_scale: 1.0,
    pool: 64,
    picks: 2,
    cap: 3000,
    tail: 100,
};

/// Draws the pool and keeps the stratified picks, easiest first.
fn pick_instances(
    shape: &Shape,
    plan: &Plan,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Option<Vec<Candidate>> {
    let (pool, picks) = if plan.smoke {
        (3, 1)
    } else {
        (shape.pool, shape.picks)
    };
    let mut stream = SeedStream::new(plan.seed, shape.tag);
    let make = |seed| Spec::random(seed, shape.nodes, shape.commodities, shape.demand_scale);
    let screened = screen(&mut stream, make, pool, shape.cap, tracer);
    publish_inputs(&screened, outcome);
    if !require_candidates(&screened, pool, outcome) {
        return None;
    }
    Some(pick_stratified(screened, picks))
}

/// Runs one of the two workloads.
pub fn run(shape: &Shape, plan: &Plan, tracer: &mut Tracer, outcome: &mut Outcome) {
    let Some(candidates) = pick_instances(shape, plan, tracer, outcome) else {
        return;
    };
    let log = plan.traced.then(|| {
        Rc::new(RefCell::new(TransportLog {
            capture: CAPTURED_FRAMES,
            ..TransportLog::default()
        }))
    });
    let open = |c: &Candidate| Mesh::new(c.network.clone(), REGIONS, Link::Uds, log.clone());

    setup_phase(
        &candidates,
        |c| {
            let (network, build) =
                tracer.time("transform.build", ROOT, 0, || Network::build(&c.spec));
            let (mesh, construct) = tracer.time("mesh.runtime.new", ROOT, 0, || {
                Mesh::new(network, REGIONS, Link::Uds, None)
            });
            drop(mesh);
            (build, construct)
        },
        outcome,
    );

    let mut wire = WireCounts::default();
    let cold = cold_phase(
        &candidates,
        open,
        plan.budget(),
        shape.tail,
        1,
        |mesh, _, n| match &log {
            None => plain_step(mesh),
            Some(log) => traced_step(mesh, n, log, &mut wire, tracer),
        },
        outcome,
    );
    cold.settle.publish(outcome);
    cold.tails[0].publish(outcome);
    if let Some(log) = &log {
        publish_layers(&cold.tails[0], &log.borrow(), &wire, outcome);
    }
    let meshes = &cold.steppers;

    // every mesh sits exactly `tail` iterations past its target
    outcome.set_exact("utility_ratio", utility_ratio(meshes, &candidates));
    let mut incidents = 0;
    for (i, (mesh, candidate)) in meshes.iter().zip(&candidates).enumerate() {
        incidents += mesh.incidents();
        outcome.attempt(
            || format!("output check, mesh {i}"),
            check_against_core(mesh, candidate),
        );
    }
    outcome.set_exact("mesh.incidents", incidents as f64);

    if plan.traced {
        bypass_legs(&candidates[candidates.len() / 2], plan, outcome);
    }
}

/// The mesh's outputs are correct if no incident was logged and its
/// utility equals, bit for bit, a single-process run of the same number
/// of iterations — whose own state must pass the core output checks.
fn check_against_core(mesh: &Mesh, candidate: &Candidate) -> Result<(), String> {
    if mesh.incidents() != 0 {
        return Err(format!(
            "{} incidents on a fault-free mesh",
            mesh.incidents()
        ));
    }
    let mut core = Core::new(candidate.network.clone());
    for _ in 0..mesh.iterations() {
        core.step();
    }
    if core.utility().to_bits() != mesh.utility().to_bits() {
        return Err(format!(
            "utility {} differs from the single-process {} after {} iterations",
            mesh.utility(),
            core.utility(),
            mesh.iterations()
        ));
    }
    core.check_outputs()
}

/// One traced iteration of a tail window. Every call the runtime makes
/// into the transport during it is clocked ([`TransportLog`]); every
/// [`SPAN_EVERY`]-th iteration also keeps its calls as child spans of a
/// `mesh.step` span; the wire counters it moved are added to `wire`.
fn traced_step(
    mesh: &mut Mesh,
    n: u64,
    log: &Rc<RefCell<TransportLog>>,
    wire: &mut WireCounts,
    tracer: &mut Tracer,
) -> f64 {
    let sampled = n.is_multiple_of(SPAN_EVERY);
    {
        let mut l = log.borrow_mut();
        l.counting = true;
        l.spans_on = sampled;
    }
    let before = mesh.wire();
    let span = if sampled {
        tracer.open("mesh.step", ROOT, n)
    } else {
        ROOT
    };
    let us = plain_step(mesh);
    tracer.close(span);
    let after = mesh.wire();
    wire.frames += after.frames - before.frames;
    wire.bytes += after.bytes - before.bytes;
    wire.rows_sent += after.rows_sent - before.rows_sent;
    wire.rows_suppressed += after.rows_suppressed - before.rows_suppressed;
    wire.resyncs += after.resyncs - before.resyncs;
    let mut l = log.borrow_mut();
    l.counting = false;
    for (kind, start, end) in l.pending.drain(..) {
        tracer.record(TRANSPORT_CALLS[kind], span, n, start, end);
    }
    us
}

/// Publishes the mesh per-layer metrics of the tail windows. Means over
/// all traced iterations, so the parts add up to the whole: the
/// workers' share is the iteration's self time — its duration minus
/// what its transport children cover.
fn publish_layers(tails: &Steady, log: &TransportLog, wire: &WireCounts, outcome: &mut Outcome) {
    let iterations = tails.total_steps() as f64;
    let per_iter_us = |kind: usize| log.ns[kind] as f64 / 1e3 / iterations;
    let transport_us: f64 = (0..4).map(per_iter_us).sum();
    let iter_us = tails.total_secs() * 1e6 / iterations;
    outcome.set_exact("mesh.iter.us", iter_us);
    outcome.set_exact("mesh.transport.begin_tick_us", per_iter_us(0));
    outcome.set_exact("mesh.transport.ready_us", per_iter_us(1));
    outcome.set_exact("mesh.transport.send_us", per_iter_us(2));
    outcome.set_exact("mesh.transport.deliver_us", per_iter_us(3));
    outcome.set_exact("mesh.transport.share", transport_us / iter_us);
    outcome.set_exact("mesh.worker.phase_us", iter_us - transport_us);
    outcome.set_exact("mesh.transport.not_ready_polls", log.not_ready as f64);
    outcome.set_exact(
        "mesh.transport.sends_per_iter",
        log.calls[2] as f64 / iterations,
    );
    outcome.set_exact("mesh.wire.bytes_per_iter", wire.bytes as f64 / iterations);
    outcome.set_exact("mesh.wire.frames_per_iter", wire.frames as f64 / iterations);
    let (sent, suppressed) = (wire.rows_sent as f64, wire.rows_suppressed as f64);
    outcome.set_exact("mesh.wire.rows_sent", sent);
    outcome.set_exact("mesh.wire.rows_suppressed", suppressed);
    outcome.set_exact(
        "mesh.wire.suppression_ratio",
        suppressed / (sent + suppressed),
    );
    outcome.set_exact("mesh.wire.resyncs", wire.resyncs as f64);
    let (decode, encode, walk) = codec_replay(&log.frames, CODEC_ROUNDS);
    outcome.set_exact("mesh.wire.decode_ns_per_byte", decode);
    outcome.set_exact("mesh.wire.encode_ns_per_byte", encode);
    outcome.set_exact("mesh.wire.walk_ns_per_byte", walk);
}

/// Microseconds per iteration (noise floor) over the first
/// [`LEG_ITERATIONS`] cold iterations.
fn leg_p50(mut stepper: impl Stepper, iterations: usize) -> f64 {
    let mut samples: Vec<f64> = (0..iterations).map(|_| plain_step(&mut stepper)).collect();
    Value::floor_of(&mut samples).value
}

/// The legs that bypass one layer each, all on the median-difficulty
/// instance over the same cold iterations: the timed transport against
/// the plain one (what tracing costs), the in-process queue (no
/// kernel), loopback TCP, the single-process core (no mesh at all), and
/// a lossy link (what 2 % frame loss costs in iterations and bytes).
fn bypass_legs(candidate: &Candidate, plan: &Plan, outcome: &mut Outcome) {
    let iterations = if plan.smoke { 50 } else { LEG_ITERATIONS };
    let open = |link, log| Mesh::new(candidate.network.clone(), REGIONS, link, log);
    let plain = leg_p50(open(Link::Uds, None), iterations);
    let timed_log = Rc::new(RefCell::new(TransportLog::default()));
    let timed = leg_p50(open(Link::Uds, Some(timed_log)), iterations);
    outcome.set_exact("trace.overhead", timed / plain);
    let in_process = leg_p50(open(Link::InProcess, None), iterations);
    outcome.set_exact("mesh.inproc.iter_us", in_process);
    outcome.set_exact(
        "mesh.tcp.iter_us",
        leg_p50(open(Link::Tcp, None), iterations),
    );
    let core = leg_p50(Core::new(candidate.network.clone()), iterations);
    outcome.set_exact("mesh.over_core", in_process / core);

    let lossy_link = Link::LossyUds {
        seed: plan.seed,
        loss: LOSS,
    };
    let mut lossy = open(lossy_link, None);
    let episode = run_to_target(&mut lossy, candidate.target(), 4 * candidate.iters + 64);
    let wire = lossy.wire();
    let iters = if episode.reached { episode.iters } else { 0 };
    outcome.set_exact("mesh.lossy.iters_to_90", iters as f64);
    outcome.set_exact(
        "mesh.lossy.bytes_per_iter",
        wire.bytes as f64 / episode.iters.max(1) as f64,
    );
    outcome.set_exact("mesh.lossy.resyncs", wire.resyncs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_a_function_of_the_seed_and_sorted_by_difficulty() {
        let pick = |seed: u64| {
            let plan = Plan {
                seed,
                seconds: 1.0,
                traced: false,
                smoke: true,
            };
            let mut outcome = Outcome::default();
            let picked = pick_instances(&SMALL, &plan, &mut Tracer::new(false), &mut outcome)
                .expect("the smoke pool fills");
            assert!(outcome.correct());
            picked
                .iter()
                .map(|c| (c.iters, c.optimum.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(21), pick(21));
        assert_ne!(pick(21), pick(22));
    }

    #[test]
    fn a_fault_free_mesh_matches_the_single_process_core() {
        let spec = Spec::random(1, 16, 2, 3.0);
        let candidate = Candidate {
            network: Network::build(&spec),
            optimum: spec.lp_optimum(),
            spec,
            iters: 0,
        };
        let mut mesh = Mesh::new(candidate.network.clone(), 2, Link::Uds, None);
        for _ in 0..40 {
            mesh.step();
        }
        assert_eq!(check_against_core(&mesh, &candidate), Ok(()));
        assert!(mesh.wire().bytes > 0);
    }
}
