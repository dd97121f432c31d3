//! ARCHITECTURE invariant 20 — delta suppression never changes what a
//! receiver ends up holding, only whether the bytes travel.
//!
//! Three probes of the delta/resync machinery:
//!
//! * A deterministic loss *window* (every frame on one link dropped for
//!   ten iterations, no other noise) breaks delta chains mid-run; the
//!   receiver detects the round gap, requests a resync, and every
//!   mirror returns to bitwise equality.
//! * A seeded lossy soak (loss + duplication + delay, no partition)
//!   keeps breaking chains at random; the mesh still reaches the
//!   monolithic algorithm's convergence verdict with utility inside
//!   the tier-2 tolerance, exercising resyncs along the way.
//! * A converged lossless mesh goes quiet: once nothing changes, the
//!   wire carries almost nothing (heartbeat batches plus the periodic
//!   full refresh).

use spn_core::{GradientAlgorithm, GradientConfig};
use spn_mesh::{
    Inbox, Lossless, MeshConfig, MeshFaultConfig, MeshIncident, MeshRuntime, Transport,
};
use spn_model::random::RandomInstance;
use spn_transform::ExtendedNetwork;

fn problem(nodes: usize, commodities: usize, seed: u64) -> spn_model::Problem {
    RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()
        .unwrap()
        .problem
}

fn mesh_config(regions: usize) -> MeshConfig {
    MeshConfig {
        regions,
        gradient: GradientConfig::default(),
        ..MeshConfig::default()
    }
}

/// Lossless delivery except that every frame from `from` to `to` sent
/// during `[cut, heal)` silently vanishes — the harshest delta-chain
/// break: the receiver misses whole rounds, not single rows.
struct LossWindow {
    inner: Lossless,
    from: usize,
    to: usize,
    cut: u64,
    heal: u64,
}

impl Transport for LossWindow {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        self.inner.begin_tick(tick, log);
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
        if from == self.from && to == self.to && (self.cut..self.heal).contains(&tick) {
            return;
        }
        self.inner.send(tick, from, to, bytes, log);
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        self.inner.deliver_into(tick, to, inbox, log);
    }
}

/// Ten iterations of total loss on one link, then silence heals: the
/// receiver's first post-heal delta names a predecessor round it never
/// applied, so it requests a resync; full frames plus the reliable
/// stream's retransmits restore bitwise mirror equality.
#[test]
fn dropped_deltas_resync_to_bitwise_equality() {
    const REGIONS: usize = 3;
    const ROUNDS: usize = 48; // 144 ticks; loss window [30, 60), refresh at 32
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let transport = LossWindow {
        inner: Lossless::new(REGIONS),
        from: 0,
        to: 1,
        cut: 30,
        heal: 60,
    };
    let mut mesh = MeshRuntime::with_transport(ext, mesh_config(REGIONS), transport).unwrap();
    mesh.run(ROUNDS);

    // the gap was detected and a resync requested of the cut link's
    // sender — not of the untouched peer
    let log = mesh.incidents();
    assert!(
        log.iter().any(|i| matches!(
            i,
            MeshIncident::ResyncRequested {
                region: 1,
                peer: 0,
                ..
            }
        )),
        "receiver never requested a resync: {log:?}"
    );
    assert!(
        !log.iter()
            .any(|i| matches!(i, MeshIncident::ResyncRequested { peer: 2, .. })),
        "resync requested of a link that lost nothing: {log:?}"
    );
    let wire = mesh.wire_stats();
    assert!(wire.resyncs > 0, "telemetry missed the resyncs");
    assert!(
        wire.rows_suppressed > 0,
        "delta suppression never engaged: {wire:?}"
    );

    // every mirror returned to bitwise equality (routing AND flows)
    let routing = mesh.worker(0).routing().clone();
    let flows = mesh.worker(0).flows().clone();
    for r in 1..REGIONS {
        assert_eq!(
            &routing,
            mesh.worker(r).routing(),
            "region {r} routing still diverged after resync"
        );
        assert_eq!(
            &flows,
            mesh.worker(r).flows(),
            "region {r} flows still diverged after resync"
        );
    }

    // coalescing: one batch frame per (link, tick) at most
    for from in 0..REGIONS {
        for to in 0..REGIONS {
            if from == to {
                continue;
            }
            let s = mesh.worker(from).link_wire_stats(to);
            assert!(
                s.frames_sent <= (ROUNDS as u64) * 3,
                "link {from}->{to} sent {} frames over {} ticks",
                s.frames_sent,
                ROUNDS * 3
            );
        }
    }
}

/// Seeded lossy soak with no partition: delta frames keep vanishing and
/// reappearing, resyncs fire, and the mesh still lands on the
/// monolithic algorithm's convergence verdict within tier-2 tolerance.
#[test]
fn lossy_chaotic_delta_mesh_converges_with_resyncs() {
    const SHIFT_TOLERANCE: f64 = 1e-4;
    const MAX_ITERATIONS: usize = 600;
    const UTILITY_RTOL: f64 = 1e-2;

    let p = problem(16, 2, 4);
    let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
    let reference = alg.run_until_stable(SHIFT_TOLERANCE, MAX_ITERATIONS);

    let faults = MeshFaultConfig {
        seed: 0xD317A,
        loss: 0.08,
        duplicate: 0.03,
        delay_prob: 0.1,
        max_delay: 2,
        partitions: Vec::new(),
    };
    let ext = ExtendedNetwork::build(&p);
    let mut mesh = MeshRuntime::chaotic(ext, mesh_config(3), &faults).unwrap();
    let (mesh_report, mesh_outcome) = mesh.run_until_stable(SHIFT_TOLERANCE, MAX_ITERATIONS);

    assert_eq!(
        reference.converged, mesh_outcome.converged,
        "convergence verdicts diverged: reference {reference:?} vs mesh {mesh_outcome:?}"
    );
    let ref_utility = alg.utility();
    let tol = UTILITY_RTOL * ref_utility.abs().max(1.0);
    assert!(
        (mesh_report.utility - ref_utility).abs() <= tol,
        "utility outside tier-2 tolerance: mesh {} vs reference {ref_utility}",
        mesh_report.utility
    );
    // the soak actually exercised the resync path
    assert!(
        mesh.incidents()
            .iter()
            .any(|i| matches!(i, MeshIncident::ResyncRequested { .. })),
        "lossy soak never broke a delta chain"
    );
    assert!(mesh_report.wire.rows_suppressed > 0);
}

/// A converged lossless mesh goes quiet on the wire. The seed-1
/// instance reaches a bitwise routing fixed point near iteration 5500
/// (the gradient's shifts round to exact no-ops); past it, non-refresh
/// rounds ship heartbeat-only batches and the bytes per iteration drop
/// an order of magnitude below the full-broadcast wire — the
/// `refresh_every = 1` cadence, which re-sends every owned row every
/// round exactly as the pre-delta wire did.
#[test]
fn converged_lossless_mesh_sends_almost_nothing() {
    let p = problem(16, 2, 1);

    // full-broadcast baseline rate: constant per iteration, so a short
    // run measures it
    let mut full = MeshRuntime::lossless(
        ExtendedNetwork::build(&p),
        MeshConfig {
            refresh_every: 1,
            ..mesh_config(2)
        },
    )
    .unwrap();
    full.run(16);
    let a = full.wire_stats();
    full.run(16);
    let b = full.wire_stats();
    let full_bytes_per_iter = (b.bytes - a.bytes) as f64 / 16.0;

    let config = mesh_config(2);
    let refresh = config.refresh_every as usize;
    let mut mesh = MeshRuntime::lossless(ExtendedNetwork::build(&p), config).unwrap();
    mesh.run(6000);
    let settled = mesh.wire_stats();

    // measure four full refresh cycles in the converged regime
    mesh.run(4 * refresh);
    let quiet = mesh.wire_stats();

    let quiet_bytes_per_iter = (quiet.bytes - settled.bytes) as f64 / (4 * refresh) as f64;
    assert!(
        quiet_bytes_per_iter < 0.2 * full_bytes_per_iter,
        "converged wire not quiet: {quiet_bytes_per_iter:.1} vs full-broadcast \
         {full_bytes_per_iter:.1} bytes/iter"
    );
    // non-refresh rounds suppress every row: the only rows on the wire
    // in the window are the four refreshes' full sweeps
    let window_sent = quiet.rows_sent - settled.rows_sent;
    let window_suppressed = quiet.rows_suppressed - settled.rows_suppressed;
    assert!(
        window_sent <= 4 * (window_sent + window_suppressed) / refresh as u64,
        "rows still travelling between refreshes: {window_sent} sent, \
         {window_suppressed} suppressed"
    );
    // and the lossless run never needed a resync
    assert_eq!(quiet.resyncs, 0);
    assert!(mesh.incidents().is_empty());
}
