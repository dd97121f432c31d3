//! **Mesh runtime smoke** — the region-sharded mesh on a seeded
//! instance, both transports, wired into CI.
//!
//! Six claims, each checked with a hard exit code:
//!
//! * under `Lossless` a 4-region mesh is **bit-identical** to the
//!   monolithic `GradientAlgorithm` (utility bits compared at every
//!   checkpoint) and logs **zero incidents** — serialization and the
//!   phase protocol add nothing and lose nothing;
//! * under a seeded fault plan (loss, duplication, delay, one region
//!   partition with staggered heal) the run is **deterministic**: a
//!   second run with the same seed produces the identical report and
//!   the identical incident log;
//! * the faulted mesh still reaches the same convergence verdict as
//!   the lossless one — degradation is graceful, not a stall;
//! * the **delta wire goes quiet**: once the seed-1 instance reaches
//!   its bitwise routing fixed point, converged-regime bytes per
//!   iteration must be ≤ 0.5× the full-broadcast baseline
//!   (`refresh_every = 1`, which re-sends every owned row every round
//!   exactly as the pre-delta wire did) — in practice the margin is
//!   an order of magnitude (ARCHITECTURE invariant 20);
//! * the converged send/receive path is **allocation-free**: stepping
//!   the warm mesh through full refresh cycles performs zero heap
//!   allocations under a counting global allocator (the
//!   `tests/zero_alloc.rs` pattern);
//! * the mirror is **swept by membership, not densely**: on the
//!   160-node / 16-commodity case one in-process 4-region iteration
//!   costs at most 2 × regions × one monolithic sparse step timed in
//!   the same process over the same iterations (≈ 1.3× with the
//!   live-arc sweeps, ≈ 6× with dense full-mirror sweeps). A ratio on
//!   one host, so valid on any core count; SKIPped on a degraded host
//!   like every wall-clock gate.
//!
//! With `--socket` the binary instead smokes the **real-socket
//! transport** (ARCHITECTURE invariant 21): a loopback Unix-domain
//! mesh must be report-identical to `Lossless`, a same-seed
//! fault-injected socket mesh must be report- and incident-identical
//! to `Chaotic`, the lossless UDS run must stay inside the
//! demand-driven I/O budget of `2·R·(R−1)` syscalls per tick (counted
//! by `SocketTransport::io_stats`), and a B9 micro-bench reports
//! bytes/iteration, syscalls/tick and p50 tick latency for in-process
//! vs UDS vs TCP (latency is SKIPped on degraded single-core hosts,
//! where wall-clock numbers are noise).
//!
//! Usage: `mesh_smoke [--smoke] [--socket]` (`--smoke` is the CI-sized
//! run; the default doubles the settle budget).
#![allow(unsafe_code)] // a counting GlobalAlloc requires unsafe impls

use spn_bench::small_instance;
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_mesh::{
    MeshConfig, MeshFaultConfig, MeshRuntime, PartitionSpec, SocketKind, SocketOptions,
    SocketTransport, Transport,
};
use spn_transform::ExtendedNetwork;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Idles until one full sleep window records zero foreign allocations —
/// after that, any lazy one-shot init elsewhere in the process has
/// provably already happened, so the subsequent measurement counts the
/// measured body alone.
fn quiesce(label: &str) {
    for _ in 0..50 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(2));
        if ALLOCATIONS.load(Ordering::SeqCst) == before {
            return;
        }
    }
    eprintln!("{label}: process never quiesced; measuring anyway");
}

/// Counts the global allocations `body` performs in a single quiesced
/// window. No retries: a nonzero count is a real regression.
fn allocations_in(label: &str, mut body: impl FnMut()) -> u64 {
    quiesce(label);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    body();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Convergence gate shared by every leg.
const SHIFT_TOLERANCE: f64 = 1e-4;

fn mesh_config() -> MeshConfig {
    MeshConfig {
        regions: 4,
        gradient: GradientConfig::default(),
        ..MeshConfig::default()
    }
}

fn faults() -> MeshFaultConfig {
    MeshFaultConfig {
        seed: 0x5150_4D45,
        loss: 0.04,
        duplicate: 0.02,
        delay_prob: 0.08,
        max_delay: 2,
        partitions: vec![PartitionSpec {
            region: 2,
            at: 40,
            duration: 30,
            heal_stagger: 3,
        }],
    }
}

/// Whether wall-clock latency numbers mean anything on this host.
/// `MESH_SMOKE_FORCE_LATENCY=1` overrides the check for local runs
/// that want indicative numbers anyway.
fn degraded_host() -> bool {
    if std::env::var_os("MESH_SMOKE_FORCE_LATENCY").is_some() {
        return false;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1
}

/// Wall time of one call of `step`, in µs.
fn timed_us(step: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    step();
    t0.elapsed().as_secs_f64() * 1e6
}

/// Median of `us` (sorts it).
fn median(us: &mut [f64]) -> f64 {
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    us[us.len() / 2]
}

/// Median wall time of `step`, in µs, over `iters` calls.
fn p50_step_us(iters: usize, mut step: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..iters).map(|_| timed_us(&mut step)).collect();
    median(&mut us)
}

/// B9 probe: steps a warm mesh `iters` more iterations and reports
/// `(bytes per iteration, p50 tick latency in µs)` — the tick latency
/// is the median per-step wall time over thirds (3 ticks per step).
fn bench_transport<T: Transport>(mesh: &mut MeshRuntime<T>, iters: usize) -> (f64, f64) {
    let before = mesh.wire_stats().bytes;
    let p50_step = p50_step_us(iters, || {
        mesh.step();
    });
    let bytes_per_iter = (mesh.wire_stats().bytes - before) as f64 / iters as f64;
    (bytes_per_iter, p50_step / 3.0)
}

/// Density gate: `(mesh p50 µs, monolithic sparse p50 µs)` per
/// iteration on the 160/16 case, both timed over iterations 50..250 of
/// the same trajectory (the lossless mesh is bit-identical to the
/// monolithic run, so both do the same protocol work per step). The two
/// are stepped alternately, one iteration each, so a host whose speed
/// drifts over the ~60 ms probe slows both medians alike and the ratio
/// holds still.
fn density_probe() -> (f64, f64) {
    let problem = small_instance(1, 160, 16);
    let mut alg =
        GradientAlgorithm::new(&problem, GradientConfig::default()).expect("valid config");
    let mut mesh = MeshRuntime::lossless(ExtendedNetwork::build(&problem), mesh_config())
        .expect("valid mesh config");
    for _ in 0..50 {
        alg.step();
    }
    mesh.run(50);
    let (mut core_us, mut mesh_us): (Vec<f64>, Vec<f64>) = (0..200)
        .map(|_| {
            let core = timed_us(|| {
                alg.step();
            });
            let mesh = timed_us(|| {
                mesh.step();
            });
            (core, mesh)
        })
        .unzip();
    (median(&mut mesh_us), median(&mut core_us))
}

/// `read(2)` + `write(2)` calls a socket mesh has issued so far.
fn syscalls(mesh: &MeshRuntime<SocketTransport>) -> u64 {
    let io = mesh.transport().io_stats();
    io.reads + io.writes
}

/// [`bench_transport`] on a socket mesh, plus its syscalls per tick
/// over the same window.
fn bench_socket(mesh: &mut MeshRuntime<SocketTransport>, iters: usize) -> (f64, f64, f64) {
    let before = syscalls(mesh);
    let (bytes, p50) = bench_transport(mesh, iters);
    let per_tick = (syscalls(mesh) - before) as f64 / (3 * iters) as f64;
    (bytes, p50, per_tick)
}

/// `--socket` mode: the invariant-21 legs plus the B9 transport bench.
/// Returns whether any leg failed.
fn socket_smoke(smoke: bool) -> bool {
    let iterations = if smoke { 120 } else { 400 };
    let problem = small_instance(3, 16, 2);
    let ext = ExtendedNetwork::build(&problem);
    let config = MeshConfig {
        regions: 2,
        gradient: GradientConfig::default(),
        ..MeshConfig::default()
    };
    let mut failed = false;
    println!("# mesh_smoke --socket\tleg\tdetail\tvalue\tincidents");

    // Leg 1: loopback UDS ≡ Lossless, report-for-report, zero incidents.
    let uds = SocketOptions {
        kind: SocketKind::Unix,
        ..SocketOptions::default()
    };
    let mut socket = MeshRuntime::socket(ext.clone(), config.clone(), &uds).expect("socket mesh");
    let mut lossless =
        MeshRuntime::lossless(ext.clone(), config.clone()).expect("valid mesh config");
    let socket_report = socket.run(iterations);
    let lossless_report = lossless.run(iterations);
    let per_tick = syscalls(&socket) as f64 / (3 * iterations) as f64;
    let budget = (2 * config.regions * (config.regions - 1)) as f64;
    println!(
        "mesh_smoke\tsocket-lossless\tuds\t{:.6}\t{}\t{per_tick:.2} syscalls/tick",
        socket_report.utility,
        socket.incidents().len()
    );
    if per_tick > budget {
        eprintln!(
            "FAIL: healthy UDS loopback issued {per_tick:.2} syscalls/tick; the demand-driven \
             schedule allows 2·R·(R−1) = {budget}"
        );
        failed = true;
    }
    if socket_report != lossless_report {
        eprintln!(
            "FAIL: UDS socket mesh diverged from Lossless: {socket_report:?} \
             vs {lossless_report:?}"
        );
        failed = true;
    }
    if !socket.incidents().is_empty() {
        eprintln!(
            "FAIL: healthy loopback socket run logged {} incidents; expected zero",
            socket.incidents().len()
        );
        failed = true;
    }

    // Leg 2: seeded FaultyStream ≡ Chaotic, incident-for-incident, and
    // deterministic across same-seed runs (reads chopped into seeded
    // 1..=31-byte chunks to keep the reframer honest).
    let faulty_run = || {
        let options = SocketOptions {
            kind: SocketKind::Unix,
            faults: Some(faults()),
            split_seed: Some(13),
        };
        let mut m = MeshRuntime::socket(ext.clone(), mesh_config(), &options).expect("socket mesh");
        let report = m.run(iterations);
        (report, m.incidents().to_vec())
    };
    let (report_a, log_a) = faulty_run();
    let (report_b, log_b) = faulty_run();
    let mut chaotic =
        MeshRuntime::chaotic(ext.clone(), mesh_config(), &faults()).expect("valid mesh config");
    let chaotic_report = chaotic.run(iterations);
    println!(
        "mesh_smoke\tsocket-faulty\tuds\t{:.6}\t{}",
        report_a.utility,
        log_a.len()
    );
    if report_a != report_b || log_a != log_b {
        eprintln!(
            "FAIL: same-seed faulty socket runs diverged (reports equal: {}, \
             logs equal: {})",
            report_a == report_b,
            log_a == log_b
        );
        failed = true;
    }
    if report_a != chaotic_report || log_a != chaotic.incidents() {
        eprintln!(
            "FAIL: faulty socket run diverged from Chaotic under the same seed \
             (reports equal: {}, logs equal: {})",
            report_a == chaotic_report,
            log_a == chaotic.incidents()
        );
        failed = true;
    }
    if log_a.is_empty() {
        eprintln!("FAIL: the fault plan injected no incidents over the socket");
        failed = true;
    }

    // Leg 3 (B9): bytes/iteration and p50 tick latency per transport.
    // Bytes are deterministic and always printed; latency is wall
    // clock, so a degraded single-core host reports SKIP instead of
    // noise.
    let bench_iters = if smoke { 60 } else { 200 };
    let warmup = 20;
    let mut in_process = MeshRuntime::lossless(ext.clone(), config.clone()).expect("mesh");
    in_process.run(warmup);
    let (ip_bytes, ip_p50) = bench_transport(&mut in_process, bench_iters);
    let mut uds_mesh = MeshRuntime::socket(ext.clone(), config.clone(), &uds).expect("mesh");
    uds_mesh.run(warmup);
    let (uds_bytes, uds_p50, uds_syscalls) = bench_socket(&mut uds_mesh, bench_iters);
    let tcp = SocketOptions {
        kind: SocketKind::Tcp,
        ..SocketOptions::default()
    };
    let mut tcp_mesh = MeshRuntime::socket(ext, config, &tcp).expect("mesh");
    tcp_mesh.run(warmup);
    let (tcp_bytes, tcp_p50, tcp_syscalls) = bench_socket(&mut tcp_mesh, bench_iters);
    for (label, bytes, p50, syscalls) in [
        ("in-process", ip_bytes, ip_p50, 0.0),
        ("uds", uds_bytes, uds_p50, uds_syscalls),
        ("tcp", tcp_bytes, tcp_p50, tcp_syscalls),
    ] {
        let latency = if degraded_host() {
            "SKIP (1-core host)".to_string()
        } else {
            format!("{p50:.1} us/tick")
        };
        println!(
            "mesh_smoke\tsocket-bench\t{label}\t{bytes:.1} B/it\t{syscalls:.2} syscalls/tick\t\
             p50 {latency}"
        );
    }
    // the wire ships the same bytes whatever carries them
    if (uds_bytes - ip_bytes).abs() > 1e-9 || (tcp_bytes - ip_bytes).abs() > 1e-9 {
        eprintln!(
            "FAIL: bytes/iteration differs across transports \
             (in-process {ip_bytes:.1}, uds {uds_bytes:.1}, tcp {tcp_bytes:.1})"
        );
        failed = true;
    }

    if !failed {
        println!(
            "# mesh_smoke --socket: OK (uds ≡ lossless over {iterations} iterations, \
             faulty uds ≡ chaotic with {} incidents, wire at {ip_bytes:.1} B/it on \
             all transports)",
            log_a.len()
        );
    }
    failed
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--socket") {
        if socket_smoke(smoke) {
            std::process::exit(1);
        }
        return;
    }
    let max_iterations = if smoke { 4_000 } else { 8_000 };
    let problem = small_instance(3, 16, 2);
    let mut failed = false;

    // Leg 1: lossless bit-identity + zero incidents. The monolithic
    // algorithm and the mesh step in lockstep; utility bits must agree
    // at every checkpoint.
    let mut alg =
        GradientAlgorithm::new(&problem, GradientConfig::default()).expect("valid config");
    let mut mesh = MeshRuntime::lossless(ExtendedNetwork::build(&problem), mesh_config())
        .expect("valid mesh config");
    println!("# mesh_smoke\tleg\titeration\tutility\tincidents");
    for chunk in 1..=10 {
        for _ in 0..20 {
            alg.step();
        }
        mesh.run(20);
        let it = chunk * 20;
        println!(
            "mesh_smoke\tlossless\t{it}\t{:.6}\t{}",
            mesh.utility(),
            mesh.incidents().len()
        );
        if alg.utility().to_bits() != mesh.utility().to_bits() {
            eprintln!(
                "FAIL: lossless mesh utility diverged from the monolithic \
                 algorithm at iteration {it}: {} vs {}",
                mesh.utility(),
                alg.utility()
            );
            failed = true;
        }
    }
    if !mesh.incidents().is_empty() {
        eprintln!(
            "FAIL: lossless run logged {} incidents; expected zero",
            mesh.incidents().len()
        );
        failed = true;
    }
    let (_, lossless_outcome) = mesh.run_until_stable(SHIFT_TOLERANCE, max_iterations);
    if !lossless_outcome.converged {
        eprintln!("FAIL: lossless mesh did not converge within {max_iterations} iterations");
        failed = true;
    }

    // Leg 2: seeded chaos is deterministic and still converges.
    let chaotic_run = || {
        let mut m =
            MeshRuntime::chaotic(ExtendedNetwork::build(&problem), mesh_config(), &faults())
                .expect("valid mesh config");
        let (report, outcome) = m.run_until_stable(SHIFT_TOLERANCE, max_iterations);
        (report, outcome, m.incidents().to_vec())
    };
    let (report_a, outcome_a, log_a) = chaotic_run();
    let (report_b, _, log_b) = chaotic_run();
    println!(
        "mesh_smoke\tchaotic\t{}\t{:.6}\t{}",
        outcome_a.iterations,
        report_a.utility,
        log_a.len()
    );
    if report_a != report_b || log_a != log_b {
        eprintln!(
            "FAIL: same-seed chaotic runs diverged \
             (reports equal: {}, logs equal: {})",
            report_a == report_b,
            log_a == log_b
        );
        failed = true;
    }
    if log_a.is_empty() {
        eprintln!("FAIL: the fault plan injected no incidents — the smoke tested nothing");
        failed = true;
    }
    if outcome_a.converged != lossless_outcome.converged {
        eprintln!(
            "FAIL: chaotic verdict (converged {}) diverged from lossless \
             (converged {})",
            outcome_a.converged, lossless_outcome.converged
        );
        failed = true;
    }

    // Leg 3: the delta wire goes quiet in the converged regime. The
    // seed-1 instance reaches a bitwise routing fixed point near
    // iteration 5500; past it, non-refresh rounds carry heartbeat-only
    // batches. The baseline is the same mesh at `refresh_every = 1` —
    // every owned row re-sent every round, i.e. the pre-delta wire.
    let quiet_problem = small_instance(1, 16, 2);
    let mut full = MeshRuntime::lossless(
        ExtendedNetwork::build(&quiet_problem),
        MeshConfig {
            refresh_every: 1,
            ..mesh_config()
        },
    )
    .expect("valid mesh config");
    full.run(16);
    let a = full.wire_stats();
    full.run(16);
    let b = full.wire_stats();
    let full_rate = (b.bytes - a.bytes) as f64 / 16.0;

    let mut quiet = MeshRuntime::lossless(ExtendedNetwork::build(&quiet_problem), mesh_config())
        .expect("valid mesh config");
    quiet.run(6000);
    let settled = quiet.wire_stats();
    quiet.run(64); // four full refresh cycles
    let converged = quiet.wire_stats();
    let quiet_rate = (converged.bytes - settled.bytes) as f64 / 64.0;
    println!(
        "mesh_smoke\twire\t6064\t{quiet_rate:.1}\t{} (full-broadcast {full_rate:.1} B/it)",
        quiet.incidents().len()
    );
    if quiet_rate > 0.5 * full_rate {
        eprintln!(
            "FAIL: converged delta wire ships {quiet_rate:.1} bytes/iteration — more \
             than 0.5x the full-broadcast baseline ({full_rate:.1})"
        );
        failed = true;
    }
    if converged.rows_suppressed == settled.rows_suppressed {
        eprintln!("FAIL: delta suppression never engaged in the converged regime");
        failed = true;
    }
    if !quiet.incidents().is_empty() {
        eprintln!(
            "FAIL: converged lossless run logged {} incidents; expected zero",
            quiet.incidents().len()
        );
        failed = true;
    }

    // Leg 4: the warm send/receive path is allocation-free. The mesh is
    // converged and its pools are sized; stepping through three more
    // refresh cycles (full-row sweeps included) must not allocate.
    quiet.step();
    let stray = allocations_in("mesh steady state", || {
        for _ in 0..48 {
            quiet.step();
        }
    });
    println!("mesh_smoke\tzero-alloc\t48\t{stray}\t-");
    if stray > 0 {
        eprintln!(
            "FAIL: converged mesh step() allocated {stray} times over 48 iterations; \
             the steady-state wire path must be allocation-free"
        );
        failed = true;
    }

    // Leg 5: density. Each of the R workers sweeps a full mirror, so an
    // iteration is worth about R monolithic steps when the sweeps walk
    // live arcs; dense full-mirror sweeps cost several times that.
    if degraded_host() {
        eprintln!(
            "mesh_smoke --smoke: SKIP density gate — single-core host (degraded); \
             a timing ratio would gate on scheduler noise"
        );
    } else {
        let regions = mesh_config().regions as f64;
        let (mesh_us, core_us) = density_probe();
        let ratio = mesh_us / (regions * core_us);
        println!(
            "mesh_smoke\tdensity\t160/16\t{mesh_us:.1} us/it vs {core_us:.1} us/step\t\
             {ratio:.2}x regions"
        );
        if ratio > 2.0 {
            eprintln!(
                "FAIL: a 4-region mesh iteration costs {ratio:.2}x regions x one monolithic \
                 sparse step on the 160/16 case (ceiling 2.0) — a worker phase is sweeping \
                 the dense mirror again"
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "# mesh_smoke: OK (4 regions, lossless converged in {} iterations \
         with 0 incidents, chaotic in {} with {} incidents, converged wire \
         at {:.1}% of full broadcast, 0 steady-state allocations)",
        lossless_outcome.iterations,
        outcome_a.iterations,
        log_a.len(),
        100.0 * quiet_rate / full_rate
    );
}
