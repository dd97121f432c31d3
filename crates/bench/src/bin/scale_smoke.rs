//! Scale-tier CI gate: idle servers must cost nothing.
//!
//! The sparse-by-default engine runs a seeded 10,000-node hierarchical
//! instance (`spn_model::hierarchy`, 16 tenants) next to the *same*
//! instance padded with 40,000 isolated servers — nodes no commodity
//! can reach, so they sit outside `ExtendedNetwork::router_union`. The
//! two are warmed and then stepped alternately, one iteration each (a
//! host whose speed drifts slows both medians alike and the ratio holds
//! still — the `density_probe` pattern of `mesh_smoke`). The run fails
//! when
//!
//! (a) the trajectories differ in any bit (the Γ statistics and utility
//!     every step; the routing tables and the naive
//!     `CostModel::total_cost` after warm-up and at the end, outside the
//!     timed window, where an `O(V)` fold per step would skew (b)): idle
//!     nodes contribute `±0.0` to every fold and must change nothing;
//! (b) the padded median step exceeds 1.25 × the unpadded one: some
//!     per-step lane is walking all `V` nodes again instead of the
//!     router union. **Measured at the parent of the change that
//!     introduced this gate** (V-wide cost-cache scan and totals
//!     reduction; 2-vCPU container, three runs): 2.75 / 2.80 / 2.80
//!     (p50 60–69 µs unpadded vs 169–190 µs padded); with the union
//!     lanes: 1.00 / 1.00 / 0.99. Prints a visible SKIP on a
//!     single-core host, where a timing ratio gates on scheduler noise;
//! (c) either engine performs a heap allocation in the measured window
//!     (process-global counting allocator, the same harness as the
//!     workspace's `zero_alloc` test), or utility goes non-finite;
//! (d) an idle server costs more than 128 bytes of algorithm state:
//!     `(live heap bytes the padded algorithm holds − the plain one) /
//!     40,000`, from the same allocator. What is left per idle node is
//!     the genuinely `V`-wide tables — the graph's two adjacency
//!     headers, node kind, capacity, the usage total — and none of it
//!     scales with the commodity count. **Measured at the parent of the
//!     change that introduced this gate** (every per-commodity node
//!     table a dense `J·V` slab, 37 B per commodity per node): 664.0
//!     B per idle node at `J = 16`; with member-position rows: 72.0
//!     B;
//! (e) the final state breaks ARCHITECTURE invariants 1–4 at 10,000
//!     nodes (checked after the timed windows, so it costs them
//!     nothing): `RoutingTable::validate` with every pass-through row
//!     (one commodity out-edge) bitwise `1.0` — the sparse step never
//!     recomputes those rows, so this is where a skipped reset would
//!     show — `is_loop_free`, `balance_residual` ≤ 1e-9, and
//!     `finite_difference_marginal` against the analytic marginal at a
//!     seeded sample of 32 routers, half pass-throughs and half
//!     deciders. The TSV line prints `deciders / routers` (Σ over
//!     commodities), the share of rows Γ actually decides.
//!
//! `scale_smoke --smoke` is the CI entry point (`scripts/ci.sh`); the
//! flag is accepted for symmetry with the other gates but the run is
//! identical without it. Exits non-zero on any violation.
#![allow(unsafe_code)] // a counting GlobalAlloc requires unsafe impls
#![deny(clippy::undocumented_unsafe_blocks)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spn_core::flows::balance_residual;
use spn_core::marginals::finite_difference_marginal;
use spn_core::{GradientAlgorithm, GradientConfig, StepStats};
use spn_model::hierarchy::HierarchicalInstance;
use spn_model::spec::ProblemSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes currently allocated (requested sizes).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's
// unchanged `layout`, `ptr` and `new_size`, so `System` upholds the
// `GlobalAlloc` contract; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, unchanged, meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` (every allocation here forwards
        // to it) with this same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `ptr` (allocated by `System` through this
        // allocator), `layout` and `new_size`, unchanged, meet `realloc`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `build` and returns its result with the heap bytes it left
/// allocated (whatever it allocated and freed on the way is not
/// counted).
fn retained<T>(build: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let built = build();
    (built, LIVE_BYTES.load(Ordering::Relaxed) - before)
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// 10 regions × 20 racks × 50 servers = 10,000 physical nodes.
const REGIONS: usize = 10;
const RACKS: usize = 20;
const SERVERS: usize = 50;
const COMMODITIES: usize = 16;
const SEED: u64 = 42;

/// Isolated servers appended to the padded twin.
const PADDING: usize = 40_000;

/// Low demand so the routing actually settles (the converged regime,
/// where the live-arc lists are shortest), and a warmup long enough to
/// reach it.
const DEMAND_SCALE: f64 = 0.2;
const WARMUP_ITERS: usize = 400;

/// Alternating iteration pairs in the measured (and allocation-counted)
/// window.
const MEASURE_ITERS: usize = 100;

/// Ceiling on padded ÷ unpadded median step time (see the header for
/// the ratio this gate was sized against).
const IDLE_RATIO_CEILING: f64 = 1.25;

/// Ceiling on the algorithm state one idle server may cost, in bytes,
/// independent of the commodity count (see the header).
const IDLE_BYTES_CEILING: f64 = 128.0;

/// Routers sampled for the finite-difference marginal check (half
/// pass-throughs, half deciders), its step, and its relative tolerance
/// (the core unit test's).
const FD_SAMPLE: usize = 32;
const FD_STEP: f64 = 1e-5;
const FD_TOLERANCE: f64 = 1e-5;

/// Largest flow-balance residual (eq. (3)) accepted — the benchmark's.
const BALANCE_TOLERANCE: f64 = 1e-9;

/// Everything two bit-equal steps must agree on.
fn step_bits(stats: &StepStats, utility: f64) -> [u64; 4] {
    [
        stats.gamma.max_shift.to_bits(),
        stats.gamma.total_shift.to_bits(),
        stats.gamma.rows as u64,
        utility.to_bits(),
    ]
}

/// Whether the twins agree on the routing and on the bits of the naive
/// total cost `A` (a full-width fold over each twin's nodes).
fn same_state(plain: &GradientAlgorithm, padded: &GradientAlgorithm) -> bool {
    let naive = |alg: &GradientAlgorithm| {
        alg.cost_model()
            .total_cost(alg.extended(), alg.flows())
            .to_bits()
    };
    plain.routing() == padded.routing() && naive(plain) == naive(padded)
}

/// Gate (e): invariants 1–4 on `alg`'s current state. Returns the
/// violations found and `(deciders, routers)` summed over commodities.
fn invariant_violations(alg: &GradientAlgorithm) -> (Vec<String>, (usize, usize)) {
    let (ext, routing) = (alg.extended(), alg.routing());
    let mut violations = Vec::new();
    if let Err(e) = routing.validate(ext) {
        violations.push(format!("invariant 1: {e}"));
    }
    // classified by out-degree, independently of the arena's decider list
    let (mut pass_throughs, mut deciders) = (Vec::new(), Vec::new());
    for j in ext.commodity_ids() {
        let m = ext.members(j);
        for &p in m.routers() {
            let v = m.node(p as usize);
            if let [l] = m.out_arcs(p as usize).0 {
                let phi = routing.fraction(j, *l);
                if phi.to_bits() != 1.0f64.to_bits() {
                    violations.push(format!("invariant 1: {j}: pass-through {v} row is {phi:e}"));
                }
                pass_throughs.push((j, v));
            } else {
                deciders.push((j, v));
            }
        }
    }
    if !routing.is_loop_free(ext) {
        violations.push("invariant 2: a positive-fraction cycle".into());
    }
    let residual = balance_residual(ext, routing, alg.flows());
    if residual.is_nan() || residual > BALANCE_TOLERANCE {
        violations.push(format!("invariant 3: flow balance residual {residual:e}"));
    }
    let counts = (deciders.len(), deciders.len() + pass_throughs.len());
    let mut rng = StdRng::seed_from_u64(SEED);
    pass_throughs.shuffle(&mut rng);
    deciders.shuffle(&mut rng);
    let half = FD_SAMPLE / 2;
    for &(j, v) in pass_throughs[..half].iter().chain(&deciders[..half]) {
        let analytic = alg.marginals().node(ext, j, v);
        let fd = finite_difference_marginal(ext, alg.cost_model(), routing, j, v, FD_STEP);
        let error = (analytic - fd).abs();
        if error.is_nan() || error > FD_TOLERANCE * (1.0 + analytic.abs()) {
            violations.push(format!(
                "invariant 4: {j} at {v}: analytic marginal {analytic:e} vs finite difference {fd:e}"
            ));
        }
    }
    (violations, counts)
}

fn main() {
    // `--smoke` accepted for CI symmetry; the run is the same.
    let _ = std::env::args().any(|a| a == "--smoke");
    let mut failed = false;

    let build_start = Instant::now();
    let inst = HierarchicalInstance::builder()
        .regions(REGIONS)
        .racks_per_region(RACKS)
        .servers_per_rack(SERVERS)
        .commodities(COMMODITIES)
        .seed(SEED)
        .build()
        .expect("10k-node hierarchical instance generates");
    let problem = inst.problem.scale_demand(DEMAND_SCALE);
    let padded_problem = {
        let mut spec = ProblemSpec::from(&problem);
        spec.node_capacities
            .extend(std::iter::repeat_n(10.0, PADDING));
        spec.into_problem().expect("isolated servers are valid")
    };
    let cfg = GradientConfig::default();
    let (mut plain, plain_bytes) =
        retained(|| GradientAlgorithm::new(&problem, cfg).expect("valid config"));
    let (mut padded, padded_bytes) =
        retained(|| GradientAlgorithm::new(&padded_problem, cfg).expect("valid config"));
    let idle_bytes = (padded_bytes - plain_bytes) as f64 / PADDING as f64;
    let build_secs = build_start.elapsed().as_secs_f64();
    eprintln!(
        "scale_smoke: built {} nodes / {COMMODITIES} commodities, plain ({} extended nodes, \
         router union {}) and padded with {PADDING} isolated servers ({} extended nodes), \
         in {build_secs:.2}s",
        inst.config.total_nodes(),
        plain.extended().graph().node_count(),
        plain.extended().router_union().len(),
        padded.extended().graph().node_count(),
    );

    let mut diverged_at: Option<usize> = None;
    let warm_start = Instant::now();
    for it in 0..WARMUP_ITERS {
        let a = step_bits(&plain.step(), plain.utility());
        let b = step_bits(&padded.step(), padded.utility());
        if a != b {
            diverged_at.get_or_insert(it);
        }
    }
    let warm_secs = warm_start.elapsed().as_secs_f64();
    eprintln!("scale_smoke: {WARMUP_ITERS} warmup iteration pairs in {warm_secs:.2}s");
    if !same_state(&plain, &padded) {
        diverged_at.get_or_insert(WARMUP_ITERS);
    }

    // Measured window: per-iteration times and the allocation counter.
    let mut plain_us: Vec<f64> = Vec::with_capacity(MEASURE_ITERS);
    let mut padded_us: Vec<f64> = Vec::with_capacity(MEASURE_ITERS);
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for it in 0..MEASURE_ITERS {
        let t = Instant::now();
        let a = plain.step();
        plain_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let b = padded.step();
        padded_us.push(t.elapsed().as_secs_f64() * 1e6);
        if step_bits(&a, plain.utility()) != step_bits(&b, padded.utility()) {
            diverged_at.get_or_insert(WARMUP_ITERS + it);
        }
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    if !same_state(&plain, &padded) {
        diverged_at.get_or_insert(WARMUP_ITERS + MEASURE_ITERS);
    }
    plain_us.sort_by(f64::total_cmp);
    padded_us.sort_by(f64::total_cmp);
    let (p50, p95) = (
        plain_us[MEASURE_ITERS / 2],
        plain_us[(MEASURE_ITERS * 95) / 100],
    );
    let padded_p50 = padded_us[MEASURE_ITERS / 2];
    let ratio = padded_p50 / p50;
    let (violations, (deciders, routers)) = invariant_violations(&plain);

    println!(
        "# scale_smoke\tnodes\tcommodities\tp50_us\tp95_us\tpadded_p50_us\tidle_ratio\tidle_node_bytes\tallocs\tdeciders/routers\tutility"
    );
    println!(
        "scale_smoke\t{}\t{COMMODITIES}\t{p50:.1}\t{p95:.1}\t{padded_p50:.1}\t{ratio:.2}\t{idle_bytes:.1}\t{allocs}\t{deciders}/{routers}\t{:.3}",
        inst.config.total_nodes(),
        plain.utility()
    );

    for violation in &violations {
        eprintln!("FAIL: {violation}");
        failed = true;
    }
    if let Some(it) = diverged_at {
        eprintln!(
            "FAIL: {PADDING} isolated servers changed the trajectory (first seen at iteration \
             {it}); idle nodes must not move a bit of StepStats, utility, routing or cost"
        );
        failed = true;
    }
    if allocs != 0 {
        eprintln!(
            "FAIL: {allocs} heap allocations in {MEASURE_ITERS} steady-state iteration pairs"
        );
        failed = true;
    }
    if std::thread::available_parallelism().map_or(1, std::num::NonZero::get) <= 1 {
        eprintln!(
            "scale_smoke: SKIP idle-node ratio gate — single-core host (degraded); \
             a timing ratio would gate on scheduler noise"
        );
    } else if ratio > IDLE_RATIO_CEILING {
        eprintln!(
            "FAIL: a step with {PADDING} idle servers costs {ratio:.2}x the unpadded step \
             (ceiling {IDLE_RATIO_CEILING}) — a per-step lane is walking every node instead \
             of the router union"
        );
        failed = true;
    }
    if idle_bytes > IDLE_BYTES_CEILING {
        eprintln!(
            "FAIL: an idle server costs {idle_bytes:.1} bytes of algorithm state (ceiling \
             {IDLE_BYTES_CEILING}; the plain algorithm holds {plain_bytes} B, the padded one \
             {padded_bytes} B) — a per-commodity table is sized by the node count again"
        );
        failed = true;
    }
    if !plain.utility().is_finite() {
        eprintln!("FAIL: utility is not finite after warmup");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("scale_smoke: ok");
}
