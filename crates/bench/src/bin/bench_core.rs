//! Core iteration-throughput baseline: measures steady-state
//! `GradientAlgorithm::step()` rates (iterations/second) on the paper
//! instance and scaled instances, plus a *converged-regime* suite
//! (demand scaled to 0.2, long warmup) comparing the dense engine to
//! the sparsity-aware active-set engine (`GradientConfig::sparsity`),
//! and writes the results (with the pre-refactor baseline embedded for
//! the speedup column) to `BENCH_core.json` in the current directory. A
//! scale-tier curve (hierarchical 1k/10k/50k/100k-node instances from
//! `spn_model::hierarchy`, converged regime) records the p50
//! per-iteration time of the dense and active-set engines at each size;
//! every JSON case carries its instance shape (nodes, commodities,
//! physical/extended edge counts, seed) so rows are reproducible
//! instances, not anonymous points.
//!
//! Every measurement also records the p50/p95 per-iteration time spread
//! (from per-batch samples across all measurement windows) so the JSON
//! captures jitter, not just the best-window average.
//!
//! The step has one schedule, so nothing here depends on the host's
//! core count: the dense-vs-sparse comparison measures work skipped,
//! not parallelism.
//!
//! The mesh-wire suite measures bytes on the wire per mesh iteration —
//! the delta-encoded coalesced wire (`refresh_every = 16`) against the
//! full-broadcast baseline (`refresh_every = 1`, the pre-delta wire) —
//! at 2 and 4 regions, in the warm regime (first 100 iterations) and
//! the converged regime (past the instance's bitwise routing fixed
//! point). Byte counts are deterministic, so this suite is valid on
//! any host.
//!
//! The online-admission suite times the two ways of reaching the
//! converged 32-commodity solution on the 400-node case when a
//! converged 31-commodity run is already live: admit the held-back
//! commodity incrementally (`GradientAlgorithm::admit_commodity`) and
//! re-stabilize, or rebuild the extended network from scratch and
//! converge from the fully-rejecting start. Both paths are timed to
//! 99% of the settled full-set utility.
//!
//! `bench_core --smoke` runs a fast subset (short measurement windows,
//! no JSON write) and exits non-zero if the active-set engine falls
//! below the dense engine on the converged 160-node case, or if
//! incremental admission is not at least 1.2x faster than the rebuild
//! path — the CI guards against regressing the sparse hot path and
//! against the incremental reshape degrading into a hidden rebuild.
//!
//! Run via `scripts/bench.sh` (release build) from the repository root.

use spn_bench::small_instance;
use spn_core::{CommodityDef, GradientAlgorithm, GradientConfig};
use spn_mesh::{MeshConfig, MeshRuntime};
use spn_model::hierarchy::HierarchicalInstance;
use spn_model::spec::ProblemSpec;
use spn_model::{CommodityId, Problem};
use spn_transform::ExtendedNetwork;
use std::fmt::Write as _;
use std::time::Instant;

/// `(nodes, commodities, seed iterations/sec)` — the baseline
/// column was measured on the pre-workspace code (per-step Vec
/// allocation, filter-scan adjacency) on this container, release build.
const CASES: &[(usize, usize, f64)] = &[
    (40, 3, 73_342.2),
    (80, 8, 18_364.9),
    (160, 16, 5_588.9),
    (400, 32, 1_242.9),
];

/// Demand scale of the converged-regime suite: at ×0.2 every commodity
/// is fully admitted and the routing settles, which is the regime the
/// active-set engine targets (quiescent chains, shrunken live-arc
/// lists).
const CONVERGED_SCALE: f64 = 0.2;

/// Iterations stepped before measuring a converged-regime case — enough
/// for the routing to settle on these instances (the trajectory is
/// deterministic, so this is a property of the case, not the host).
const CONVERGED_WARMUP: usize = 1500;

struct Timing {
    warmup_iters: usize,
    min_measure_secs: f64,
    repeats: usize,
}

/// Timed windows per configuration; the reported rate is the best one
/// (throughput benches take the max — slow windows measure scheduler
/// noise, not the code).
const FULL: Timing = Timing {
    warmup_iters: 50,
    min_measure_secs: 0.5,
    repeats: 3,
};

const SMOKE: Timing = Timing {
    warmup_iters: 20,
    min_measure_secs: 0.05,
    repeats: 2,
};

const BATCH: usize = 16;

/// One measured configuration: best-window throughput plus the p50/p95
/// per-iteration time spread over all per-batch samples.
struct Measurement {
    iters_per_sec: f64,
    p50_iter_us: f64,
    p95_iter_us: f64,
}

/// Steps a warmed algorithm through `timing.repeats` measurement
/// windows, timing every `BATCH`-iteration block.
fn measure_warm(alg: &mut GradientAlgorithm, timing: &Timing) -> Measurement {
    let mut best = 0.0f64;
    let mut batch_secs: Vec<f64> = Vec::new();
    for _ in 0..timing.repeats {
        let start = Instant::now();
        let mut iters = 0usize;
        let rate = loop {
            let batch_start = Instant::now();
            for _ in 0..BATCH {
                alg.step();
            }
            batch_secs.push(batch_start.elapsed().as_secs_f64());
            iters += BATCH;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= timing.min_measure_secs {
                break iters as f64 / elapsed;
            }
        };
        best = best.max(rate);
    }
    batch_secs.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((batch_secs.len() - 1) as f64 * p).round() as usize;
        batch_secs[idx] / BATCH as f64 * 1e6
    };
    Measurement {
        iters_per_sec: best,
        p50_iter_us: pct(0.50),
        p95_iter_us: pct(0.95),
    }
}

fn measure_case(nodes: usize, commodities: usize, timing: &Timing) -> Measurement {
    let problem = small_instance(1, nodes, commodities);
    let mut alg =
        GradientAlgorithm::new(&problem, GradientConfig::default()).expect("valid config");
    for _ in 0..timing.warmup_iters {
        alg.step();
    }
    measure_warm(&mut alg, timing)
}

/// Converged-regime measurement: low demand, long warmup, dense or
/// active-set engine.
fn measure_converged(
    nodes: usize,
    commodities: usize,
    sparsity: bool,
    timing: &Timing,
) -> Measurement {
    let problem = small_instance(1, nodes, commodities).scale_demand(CONVERGED_SCALE);
    let cfg = GradientConfig {
        sparsity,
        ..GradientConfig::default()
    };
    let mut alg = GradientAlgorithm::new(&problem, cfg).expect("valid config");
    for _ in 0..CONVERGED_WARMUP {
        alg.step();
    }
    measure_warm(&mut alg, timing)
}

/// Scale-tier curve: `(regions, racks, servers, commodities)` per
/// hierarchical case — 1k, 10k, 50k, and 100k physical nodes. One
/// deterministic seed per curve so the JSON rows are reproducible
/// instances, not families.
const SCALE_CASES: &[(usize, usize, usize, usize)] = &[
    (4, 10, 25, 8),
    (10, 20, 50, 16),
    (20, 50, 50, 24),
    (40, 50, 50, 32),
];

/// Seed for every scale-curve instance.
const SCALE_SEED: u64 = 42;

/// Warmup before measuring a scale case. The dense engine's
/// per-iteration cost is warmup-insensitive (it recomputes everything
/// each step), so it gets a short settle; the active-set engine is
/// measured after the routing has actually converged — the regime the
/// scale tier targets.
const SCALE_WARMUP_DENSE: usize = 100;
const SCALE_WARMUP_SPARSE: usize = 400;

/// Instance shape recorded next to every measurement — enough to
/// regenerate the exact instance (generator + seed) and to normalize
/// rates by problem size.
struct InstanceShape {
    nodes: usize,
    commodities: usize,
    physical_edges: usize,
    extended_nodes: usize,
    extended_edges: usize,
    seed: u64,
}

impl InstanceShape {
    fn of(problem: &Problem, seed: u64) -> Self {
        let n = problem.graph().node_count();
        let m = problem.graph().edge_count();
        let j = problem.num_commodities();
        InstanceShape {
            nodes: n,
            commodities: j,
            physical_edges: m,
            extended_nodes: n + m + j,
            extended_edges: 2 * m + 2 * j,
            seed,
        }
    }

    /// The shape keys shared by every JSON case object.
    fn write_json(&self, json: &mut String, indent: &str) {
        let _ = writeln!(json, "{indent}\"nodes\": {},", self.nodes);
        let _ = writeln!(json, "{indent}\"commodities\": {},", self.commodities);
        let _ = writeln!(json, "{indent}\"physical_edges\": {},", self.physical_edges);
        let _ = writeln!(json, "{indent}\"extended_nodes\": {},", self.extended_nodes);
        let _ = writeln!(json, "{indent}\"extended_edges\": {},", self.extended_edges);
        let _ = writeln!(json, "{indent}\"seed\": {},", self.seed);
    }
}

/// One scale-curve measurement: converged-regime demand, dense vs
/// active-set engine on the same generated instance.
fn measure_scale(
    case: (usize, usize, usize, usize),
    sparsity: bool,
    timing: &Timing,
) -> (InstanceShape, Measurement) {
    let (regions, racks, servers, commodities) = case;
    let inst = HierarchicalInstance::builder()
        .regions(regions)
        .racks_per_region(racks)
        .servers_per_rack(servers)
        .commodities(commodities)
        .seed(SCALE_SEED)
        .build()
        .expect("scale-curve instance generates");
    let shape = InstanceShape::of(&inst.problem, SCALE_SEED);
    let problem = inst.problem.scale_demand(CONVERGED_SCALE);
    let cfg = GradientConfig {
        sparsity,
        ..GradientConfig::default()
    };
    let mut alg = GradientAlgorithm::new(&problem, cfg).expect("valid config");
    let warmup = if sparsity {
        SCALE_WARMUP_SPARSE
    } else {
        SCALE_WARMUP_DENSE
    };
    for _ in 0..warmup {
        alg.step();
    }
    (shape, measure_warm(&mut alg, timing))
}

/// Mesh-wire suite: `(nodes, commodities)` of the instance every
/// region-count case runs on. The seed-1 16-node instance reaches a
/// *bitwise* routing fixed point near iteration 5500, which is the
/// converged regime the delta wire targets: past it, non-refresh
/// rounds carry heartbeat-only batches.
const MESH_WIRE_CASE: (usize, usize) = (16, 2);

/// Region counts swept by the mesh-wire suite.
const MESH_WIRE_REGIONS: &[usize] = &[2, 4];

/// Iterations before the converged-regime window (past the bitwise
/// fixed point; deterministic, a property of the instance).
const MESH_WIRE_SETTLE: usize = 6000;

/// Converged-regime measurement window — four full refresh cycles at
/// the default `refresh_every = 16`.
const MESH_WIRE_WINDOW: usize = 64;

/// Warm-regime window: the first iterations after round 0, where most
/// rows genuinely change every round and the delta layer wins least.
const MESH_WIRE_WARM: usize = 100;

/// One mesh wire measurement: bytes/frames per iteration in the warm
/// and converged regimes, plus the converged row suppression split.
struct WireMeasurement {
    warm_bytes_per_iter: f64,
    converged_bytes_per_iter: f64,
    converged_frames_per_iter: f64,
    converged_rows_sent: u64,
    converged_rows_suppressed: u64,
}

/// Runs the lossless mesh at the given region count and refresh cadence
/// and reads its wire telemetry. `refresh_every = 1` re-sends every
/// owned row every round — the pre-delta full-broadcast wire, measured
/// as the baseline rather than assumed.
fn measure_mesh_wire(regions: usize, refresh_every: u64) -> WireMeasurement {
    let (nodes, commodities) = MESH_WIRE_CASE;
    let problem = small_instance(1, nodes, commodities);
    let config = MeshConfig {
        regions,
        refresh_every,
        ..MeshConfig::default()
    };
    let mut mesh =
        MeshRuntime::lossless(ExtendedNetwork::build(&problem), config).expect("valid mesh config");
    mesh.run(MESH_WIRE_WARM);
    let warm = mesh.wire_stats();
    mesh.run(MESH_WIRE_SETTLE - MESH_WIRE_WARM);
    let settled = mesh.wire_stats();
    mesh.run(MESH_WIRE_WINDOW);
    let quiet = mesh.wire_stats();
    assert!(
        mesh.incidents().is_empty(),
        "lossless mesh-wire run logged incidents"
    );
    WireMeasurement {
        warm_bytes_per_iter: warm.bytes as f64 / MESH_WIRE_WARM as f64,
        converged_bytes_per_iter: (quiet.bytes - settled.bytes) as f64 / MESH_WIRE_WINDOW as f64,
        converged_frames_per_iter: (quiet.frames - settled.frames) as f64 / MESH_WIRE_WINDOW as f64,
        converged_rows_sent: quiet.rows_sent - settled.rows_sent,
        converged_rows_suppressed: quiet.rows_suppressed - settled.rows_suppressed,
    }
}

/// Online-admission case: the largest sweep case, with one commodity
/// held back and admitted online against a converged survivor set.
const ADMISSION_CASE: (usize, usize) = (400, 32);

/// Fraction of the reference (full-set, long-settled) utility both
/// admission paths must reach. A shift tolerance is the wrong stop here
/// — at this size the default step rate limit-cycles, so the total
/// shift plateaus above any useful tolerance; utility recovery is the
/// quantity an operator actually waits for.
const ADMISSION_TARGET: f64 = 0.99;

/// Online admission vs full rebuild, one measurement each way.
struct AdmissionMeasurement {
    /// Best time for `admit_commodity` + utility recovery, seconds.
    incremental_secs: f64,
    /// Iterations the incremental path needed to reach the target.
    incremental_iters: usize,
    /// Whether the incremental path reached the target within the cap.
    incremental_reached: bool,
    /// Best time for a from-scratch build + convergence, seconds.
    rebuild_secs: f64,
    /// Iterations the rebuild path needed to reach the target.
    rebuild_iters: usize,
    /// Whether the rebuild path reached the target within the cap.
    rebuild_reached: bool,
    /// The settled full-set utility the target is derived from.
    reference_utility: f64,
}

/// Steps until total utility reaches `target`; returns
/// `(seconds, iterations, reached)`.
fn time_to_target(alg: &mut GradientAlgorithm, target: f64, cap: usize) -> (f64, usize, bool) {
    let start = Instant::now();
    for i in 0..cap {
        alg.step();
        if alg.utility() >= target {
            return (start.elapsed().as_secs_f64(), i + 1, true);
        }
    }
    (start.elapsed().as_secs_f64(), cap, false)
}

/// Times the two ways of reaching (99% of) the converged N-commodity
/// utility when a converged (N-1)-commodity run is already live: admit
/// the newcomer online and let the system re-stabilize, or rebuild the
/// extended network from scratch and converge from the fully-rejecting
/// start. The rebuild time includes `GradientAlgorithm::new` — the
/// extended-network build is exactly what the incremental path avoids.
fn measure_admission(prep_iters: usize, cap: usize, repeats: usize) -> AdmissionMeasurement {
    let (nodes, commodities) = ADMISSION_CASE;
    let full = small_instance(1, nodes, commodities);
    let mut spec = ProblemSpec::from(&full);
    spec.commodities.pop();
    let minus = spec.into_problem().expect("subset instance is valid");
    let cfg = GradientConfig::default();
    let mut reference = GradientAlgorithm::new(&full, cfg).expect("valid config");
    reference.run(prep_iters);
    let reference_utility = reference.utility();
    let target = ADMISSION_TARGET * reference_utility;
    let mut base = GradientAlgorithm::new(&minus, cfg).expect("valid config");
    base.run(prep_iters);
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(commodities - 1));
    let mut inc = (f64::INFINITY, 0, false);
    for _ in 0..repeats {
        let mut alg = base.clone();
        let start = Instant::now();
        alg.admit_commodity(def.clone());
        let (_, iters, reached) = time_to_target(&mut alg, target, cap);
        let secs = start.elapsed().as_secs_f64();
        if secs < inc.0 {
            inc = (secs, iters, reached);
        }
    }
    let mut reb = (f64::INFINITY, 0, false);
    for _ in 0..repeats {
        let start = Instant::now();
        let mut alg = GradientAlgorithm::new(&full, cfg).expect("valid config");
        let (_, iters, reached) = time_to_target(&mut alg, target, cap);
        let secs = start.elapsed().as_secs_f64();
        if secs < reb.0 {
            reb = (secs, iters, reached);
        }
    }
    AdmissionMeasurement {
        incremental_secs: inc.0,
        incremental_iters: inc.1,
        incremental_reached: inc.2,
        rebuild_secs: reb.0,
        rebuild_iters: reb.1,
        rebuild_reached: reb.2,
        reference_utility,
    }
}

fn smoke() {
    let mut failed = false;
    // Converged-regime gate: on the 160-node case the active-set engine
    // must at least match the dense engine — it wins by skipping work.
    let (nodes, commodities) = (160, 16);
    let dense = measure_converged(nodes, commodities, false, &SMOKE).iters_per_sec;
    let sparse = measure_converged(nodes, commodities, true, &SMOKE).iters_per_sec;
    let ratio = sparse / dense;
    println!("# smoke-converged\tnodes\tcommodities\tdense\tsparse\tsparse/dense");
    println!("smoke-converged\t{nodes}\t{commodities}\t{dense:.1}\t{sparse:.1}\t{ratio:.2}");
    if ratio < 1.0 {
        eprintln!(
            "FAIL: active-set engine is {:.0}% of dense on the converged \
             {nodes}-node case (floor is 100%)",
            ratio * 100.0
        );
        failed = true;
    }
    // Online-admission gate: admitting the 32nd commodity into a
    // converged 400-node run must beat rebuilding the extended network
    // and re-converging from scratch, measured as time to 99% of the
    // settled full-set utility: the margin is the warm-started
    // survivors.
    let adm = measure_admission(2500, 6000, 1);
    let ratio = adm.rebuild_secs / adm.incremental_secs;
    println!(
        "# smoke-admission\tnodes\tcommodities\tincremental_s\trebuild_s\trebuild/incremental"
    );
    println!(
        "smoke-admission\t{}\t{}\t{:.3}\t{:.3}\t{ratio:.2}",
        ADMISSION_CASE.0, ADMISSION_CASE.1, adm.incremental_secs, adm.rebuild_secs
    );
    if !adm.incremental_reached || !adm.rebuild_reached {
        eprintln!(
            "FAIL: a path missed the 99% utility target (incremental {}, rebuild {})",
            adm.incremental_reached, adm.rebuild_reached
        );
        failed = true;
    } else if ratio < 1.2 {
        eprintln!(
            "FAIL: incremental admission is only {ratio:.2}x faster than a full \
             rebuild at {} nodes (floor is 1.2x)",
            ADMISSION_CASE.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("bench_core --smoke: ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"core_iteration_throughput\",");
    let _ = writeln!(json, "  \"warmup_iterations\": {},", FULL.warmup_iters);
    let _ = writeln!(
        json,
        "  \"min_measure_seconds\": {},",
        FULL.min_measure_secs
    );
    let _ = writeln!(json, "  \"repeats_best_of\": {},", FULL.repeats);
    json.push_str("  \"cases\": [\n");

    println!("# nodes\tcommodities\titers_per_sec\tp50_us\tp95_us\tseed\tspeedup_vs_seed");
    for (ci, &(nodes, commodities, seed_rate)) in CASES.iter().enumerate() {
        let m = measure_case(nodes, commodities, &FULL);
        let speedup = m.iters_per_sec / seed_rate;
        println!(
            "{nodes}\t{commodities}\t{:.1}\t{:.2}\t{:.2}\t{seed_rate:.1}\t{speedup:.2}",
            m.iters_per_sec, m.p50_iter_us, m.p95_iter_us
        );
        let shape = InstanceShape::of(&small_instance(1, nodes, commodities), 1);
        let _ = writeln!(json, "    {{");
        shape.write_json(&mut json, "      ");
        let _ = writeln!(json, "      \"seed_iters_per_sec\": {seed_rate:.1},");
        let _ = writeln!(json, "      \"iters_per_sec\": {:.1},", m.iters_per_sec);
        let _ = writeln!(json, "      \"p50_iter_us\": {:.2},", m.p50_iter_us);
        let _ = writeln!(json, "      \"p95_iter_us\": {:.2},", m.p95_iter_us);
        let _ = writeln!(json, "      \"speedup_vs_seed\": {speedup:.3}");
        let comma = if ci + 1 < CASES.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");

    // Converged-regime suite: dense vs active-set engine after a long
    // settling run at low demand.
    let _ = writeln!(json, "  \"converged_demand_scale\": {CONVERGED_SCALE},");
    let _ = writeln!(
        json,
        "  \"converged_warmup_iterations\": {CONVERGED_WARMUP},"
    );
    json.push_str("  \"converged_cases\": [\n");
    println!("# converged (demand x{CONVERGED_SCALE}, warmup {CONVERGED_WARMUP})");
    println!("# nodes\tcommodities\tengine\titers_per_sec\tp50_us\tp95_us\tsparse/dense");
    for (ci, &(nodes, commodities, _)) in CASES.iter().enumerate() {
        let dense = measure_converged(nodes, commodities, false, &FULL);
        let sparse = measure_converged(nodes, commodities, true, &FULL);
        let ratio = sparse.iters_per_sec / dense.iters_per_sec;
        println!(
            "{nodes}\t{commodities}\tdense\t{:.1}\t{:.2}\t{:.2}\t-",
            dense.iters_per_sec, dense.p50_iter_us, dense.p95_iter_us
        );
        println!(
            "{nodes}\t{commodities}\tsparse\t{:.1}\t{:.2}\t{:.2}\t{ratio:.2}",
            sparse.iters_per_sec, sparse.p50_iter_us, sparse.p95_iter_us
        );
        let shape = InstanceShape::of(&small_instance(1, nodes, commodities), 1);
        let _ = writeln!(json, "    {{");
        shape.write_json(&mut json, "      ");
        let _ = writeln!(
            json,
            "      \"dense_iters_per_sec\": {:.1},",
            dense.iters_per_sec
        );
        let _ = writeln!(
            json,
            "      \"dense_p50_iter_us\": {:.2},",
            dense.p50_iter_us
        );
        let _ = writeln!(
            json,
            "      \"dense_p95_iter_us\": {:.2},",
            dense.p95_iter_us
        );
        let _ = writeln!(
            json,
            "      \"sparse_iters_per_sec\": {:.1},",
            sparse.iters_per_sec
        );
        let _ = writeln!(
            json,
            "      \"sparse_p50_iter_us\": {:.2},",
            sparse.p50_iter_us
        );
        let _ = writeln!(
            json,
            "      \"sparse_p95_iter_us\": {:.2},",
            sparse.p95_iter_us
        );
        let _ = writeln!(json, "      \"sparse_speedup\": {ratio:.3}");
        let comma = if ci + 1 < CASES.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");

    // Scale-tier curve: hierarchical 1k–100k-node instances, converged
    // regime; p50 per-iteration time dense vs active-set engine. This is the memory-layout overhaul's report card — the
    // sparse engine must win (or tie) at every size.
    let _ = writeln!(json, "  \"scale_seed\": {SCALE_SEED},");
    let _ = writeln!(
        json,
        "  \"scale_warmup_iterations\": {{ \"dense\": {SCALE_WARMUP_DENSE}, \
         \"sparse\": {SCALE_WARMUP_SPARSE} }},"
    );
    json.push_str("  \"scale_curve\": [\n");
    println!("# scale curve (hierarchical, demand x{CONVERGED_SCALE}, seed {SCALE_SEED})");
    println!("# nodes\tcommodities\tengine\titers_per_sec\tp50_us\tp95_us\tsparse/dense_p50");
    for (ci, &case) in SCALE_CASES.iter().enumerate() {
        let (shape, dense) = measure_scale(case, false, &FULL);
        let (_, sparse) = measure_scale(case, true, &FULL);
        // Per-iteration p50 ratio: < 1.0 means sparse iterations are
        // faster. (Throughput ratios are reported too, but p50 is the
        // curve the scale tier is judged on.)
        let p50_ratio = sparse.p50_iter_us / dense.p50_iter_us;
        println!(
            "{}\t{}\tdense\t{:.1}\t{:.2}\t{:.2}\t-",
            shape.nodes,
            shape.commodities,
            dense.iters_per_sec,
            dense.p50_iter_us,
            dense.p95_iter_us
        );
        println!(
            "{}\t{}\tsparse\t{:.1}\t{:.2}\t{:.2}\t{p50_ratio:.3}",
            shape.nodes,
            shape.commodities,
            sparse.iters_per_sec,
            sparse.p50_iter_us,
            sparse.p95_iter_us
        );
        let _ = writeln!(json, "    {{");
        shape.write_json(&mut json, "      ");
        let _ = writeln!(
            json,
            "      \"dense_iters_per_sec\": {:.1},",
            dense.iters_per_sec
        );
        let _ = writeln!(
            json,
            "      \"dense_p50_iter_us\": {:.2},",
            dense.p50_iter_us
        );
        let _ = writeln!(
            json,
            "      \"dense_p95_iter_us\": {:.2},",
            dense.p95_iter_us
        );
        let _ = writeln!(
            json,
            "      \"sparse_iters_per_sec\": {:.1},",
            sparse.iters_per_sec
        );
        let _ = writeln!(
            json,
            "      \"sparse_p50_iter_us\": {:.2},",
            sparse.p50_iter_us
        );
        let _ = writeln!(
            json,
            "      \"sparse_p95_iter_us\": {:.2},",
            sparse.p95_iter_us
        );
        let _ = writeln!(json, "      \"sparse_over_dense_p50\": {p50_ratio:.4},");
        let _ = writeln!(
            json,
            "      \"sparse_speedup\": {:.3}",
            sparse.iters_per_sec / dense.iters_per_sec
        );
        let comma = if ci + 1 < SCALE_CASES.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");

    // Mesh-wire suite: bytes on the wire per iteration, delta wire
    // (refresh_every = 16) vs the full-broadcast baseline
    // (refresh_every = 1), warm vs converged regime. Byte counts are
    // deterministic.
    let (mw_nodes, mw_commodities) = MESH_WIRE_CASE;
    let _ = writeln!(
        json,
        "  \"mesh_wire_settle_iterations\": {MESH_WIRE_SETTLE},"
    );
    let _ = writeln!(json, "  \"mesh_wire_window\": {MESH_WIRE_WINDOW},");
    json.push_str("  \"mesh_wire\": [\n");
    println!(
        "# mesh wire ({mw_nodes} nodes / {mw_commodities} commodities, seed 1, lossless, \
         settle {MESH_WIRE_SETTLE}, window {MESH_WIRE_WINDOW})"
    );
    println!(
        "# regions\twire\twarm_B_per_iter\tconverged_B_per_iter\tframes_per_iter\trows_sent\trows_suppressed\treduction"
    );
    for (ri, &regions) in MESH_WIRE_REGIONS.iter().enumerate() {
        let full = measure_mesh_wire(regions, 1);
        let delta = measure_mesh_wire(regions, 16);
        let reduction = full.converged_bytes_per_iter / delta.converged_bytes_per_iter;
        println!(
            "{regions}\tfull\t{:.1}\t{:.1}\t{:.2}\t{}\t{}\t-",
            full.warm_bytes_per_iter,
            full.converged_bytes_per_iter,
            full.converged_frames_per_iter,
            full.converged_rows_sent,
            full.converged_rows_suppressed
        );
        println!(
            "{regions}\tdelta\t{:.1}\t{:.1}\t{:.2}\t{}\t{}\t{reduction:.1}x",
            delta.warm_bytes_per_iter,
            delta.converged_bytes_per_iter,
            delta.converged_frames_per_iter,
            delta.converged_rows_sent,
            delta.converged_rows_suppressed
        );
        let shape = InstanceShape::of(&small_instance(1, mw_nodes, mw_commodities), 1);
        let _ = writeln!(json, "    {{");
        shape.write_json(&mut json, "      ");
        let _ = writeln!(json, "      \"regions\": {regions},");
        let _ = writeln!(
            json,
            "      \"full_warm_bytes_per_iter\": {:.1},",
            full.warm_bytes_per_iter
        );
        let _ = writeln!(
            json,
            "      \"full_converged_bytes_per_iter\": {:.1},",
            full.converged_bytes_per_iter
        );
        let _ = writeln!(
            json,
            "      \"delta_warm_bytes_per_iter\": {:.1},",
            delta.warm_bytes_per_iter
        );
        let _ = writeln!(
            json,
            "      \"delta_converged_bytes_per_iter\": {:.1},",
            delta.converged_bytes_per_iter
        );
        let _ = writeln!(
            json,
            "      \"delta_converged_frames_per_iter\": {:.2},",
            delta.converged_frames_per_iter
        );
        let _ = writeln!(
            json,
            "      \"delta_converged_rows_sent\": {},",
            delta.converged_rows_sent
        );
        let _ = writeln!(
            json,
            "      \"delta_converged_rows_suppressed\": {},",
            delta.converged_rows_suppressed
        );
        let _ = writeln!(json, "      \"converged_reduction\": {reduction:.2}");
        let comma = if ri + 1 < MESH_WIRE_REGIONS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");

    // Online-admission suite: one commodity admitted into a converged
    // run vs a full rebuild, both timed to 99% of the settled full-set
    // utility.
    let adm = measure_admission(5000, 20_000, 2);
    let adm_ratio = adm.rebuild_secs / adm.incremental_secs;
    println!(
        "# admission (nodes {}, commodities {}, target {}% of settled utility)",
        ADMISSION_CASE.0,
        ADMISSION_CASE.1,
        ADMISSION_TARGET * 100.0
    );
    println!("# path\tseconds\titerations\treached");
    println!(
        "admission_incremental\t{:.3}\t{}\t{}",
        adm.incremental_secs, adm.incremental_iters, adm.incremental_reached
    );
    println!(
        "admission_rebuild\t{:.3}\t{}\t{}",
        adm.rebuild_secs, adm.rebuild_iters, adm.rebuild_reached
    );
    println!("admission_rebuild_over_incremental\t{adm_ratio:.2}");
    json.push_str("  \"admission\": {\n");
    let _ = writeln!(json, "    \"nodes\": {},", ADMISSION_CASE.0);
    let _ = writeln!(json, "    \"commodities\": {},", ADMISSION_CASE.1);
    let _ = writeln!(json, "    \"utility_target_fraction\": {ADMISSION_TARGET},");
    let _ = writeln!(
        json,
        "    \"reference_utility\": {:.4},",
        adm.reference_utility
    );
    let _ = writeln!(
        json,
        "    \"incremental_seconds\": {:.4},",
        adm.incremental_secs
    );
    let _ = writeln!(
        json,
        "    \"incremental_iterations\": {},",
        adm.incremental_iters
    );
    let _ = writeln!(
        json,
        "    \"incremental_reached\": {},",
        adm.incremental_reached
    );
    let _ = writeln!(json, "    \"rebuild_seconds\": {:.4},", adm.rebuild_secs);
    let _ = writeln!(json, "    \"rebuild_iterations\": {},", adm.rebuild_iters);
    let _ = writeln!(json, "    \"rebuild_reached\": {},", adm.rebuild_reached);
    let _ = writeln!(json, "    \"rebuild_over_incremental\": {adm_ratio:.3}");
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_core.json", &json).expect("write BENCH_core.json");
    eprintln!("wrote BENCH_core.json");
}
