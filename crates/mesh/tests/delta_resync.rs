//! ARCHITECTURE invariant 20 — delta suppression never changes what a
//! receiver ends up holding, only whether the bytes travel.
//!
//! Three probes of the delta machinery:
//!
//! * A deterministic loss *window* (every frame on one link dropped for
//!   fifteen iterations, no other noise) breaks the Γ delta chain
//!   mid-run; the reliable stream retransmits every lost sub, and every
//!   mirror returns to bitwise equality.
//! * A seeded lossy soak (loss + duplication + delay, no partition)
//!   keeps breaking chains at random; the mesh still reaches the
//!   monolithic algorithm's convergence verdict with utility inside
//!   the tier-2 tolerance, retransmitting along the way.
//! * A converged lossless mesh goes quiet: once nothing changes, the
//!   wire carries almost nothing (heartbeat batches plus the periodic
//!   full refresh) against an all-peers Γ broadcast of the instance.

use spn_core::{GradientAlgorithm, GradientConfig};
use spn_mesh::{
    Inbox, MeshConfig, MeshFaultConfig, MeshIncident, MeshRuntime, SocketKind, SocketOptions,
    SocketTransport, Transport, TICKS_PER_ITERATION,
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

/// In-process pipes under `faults`.
fn memory(faults: Option<MeshFaultConfig>) -> SocketOptions {
    SocketOptions {
        kind: SocketKind::Memory,
        faults,
        split_seed: None,
    }
}

fn mesh_config(regions: usize) -> MeshConfig {
    MeshConfig {
        regions,
        gradient: GradientConfig::default(),
        ..MeshConfig::default()
    }
}

/// In-process pipes that deliver everything except the frames from
/// `from` to `to` sent during `[cut, heal)`, which silently vanish —
/// the harshest delta-chain break: the receiver misses whole rounds,
/// not single rows.
struct LossWindow {
    inner: SocketTransport,
    from: usize,
    to: usize,
    cut: u64,
    heal: u64,
}

impl Transport for LossWindow {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        self.inner.begin_tick(tick, log);
    }

    fn ready(&mut self, tick: u64, to: usize) -> bool {
        self.inner.ready(tick, to)
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

/// Fifteen iterations of total loss on one link, then the link heals:
/// every Γ sub shipped in the window — the round-16 refresh among them
/// — is retransmitted under backoff until acknowledged, the receiver
/// takes them up in sequence order, and every mirror returns to bitwise
/// equality. No resync is ever requested: the delta chain rides the
/// reliable stream.
#[test]
fn dropped_deltas_retransmit_to_bitwise_equality() {
    const REGIONS: usize = 3;
    // the loss window, ticks [15, 30), is rounds 15–29 (the round-16
    // refresh is lost too); the round-32 refresh re-anchors
    const ROUNDS: usize = 48;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let (from, to) = (1, 0);
    let transport = LossWindow {
        inner: SocketTransport::connect(REGIONS, &memory(None)).unwrap(),
        from,
        to,
        cut: 15 * TICKS_PER_ITERATION,
        heal: 30 * TICKS_PER_ITERATION,
    };
    let mut mesh = MeshRuntime::with_transport(ext, mesh_config(REGIONS), transport).unwrap();
    mesh.run(ROUNDS);
    assert!(
        mesh.worker(from).link_wire_stats(to).gamma_rows_sent > 0,
        "the cut link carries no Γ rows: the scenario went vacuous"
    );

    // the lost subs were retransmitted; only the cut pair retransmits
    // (region 0's subs too: their acks rode the cut link)
    let log = mesh.incidents();
    assert!(
        log.iter()
            .any(|i| matches!(i, MeshIncident::Retransmitted { from: 1, to: 0, .. })),
        "the sender never retransmitted: {log:?}"
    );
    assert!(
        log.iter().all(|i| match i {
            MeshIncident::Retransmitted { from, to, .. } => *from != 2 && *to != 2,
            _ => true,
        }),
        "a link that lost nothing retransmitted: {log:?}"
    );
    let wire = mesh.wire_stats();
    assert_eq!(wire.resyncs, 0);
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
    let ticks = ROUNDS as u64 * TICKS_PER_ITERATION;
    for from in 0..REGIONS {
        for to in 0..REGIONS {
            if from == to {
                continue;
            }
            let s = mesh.worker(from).link_wire_stats(to);
            assert!(
                s.frames_sent <= ticks,
                "link {from}->{to} sent {} frames over {ticks} ticks",
                s.frames_sent
            );
        }
    }
}

/// Seeded lossy soak with no partition: delta frames keep vanishing and
/// reappearing, retransmits fire, and the mesh still lands on the
/// monolithic algorithm's convergence verdict within tier-2 tolerance.
#[test]
fn lossy_chaotic_delta_mesh_converges_with_retransmits() {
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
    let mut mesh = MeshRuntime::socket(ext, mesh_config(3), &memory(Some(faults))).unwrap();
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
    // the soak actually exercised the retransmit path
    assert!(
        mesh.incidents()
            .iter()
            .any(|i| matches!(i, MeshIncident::Retransmitted { .. })),
        "lossy soak never broke a delta chain"
    );
    assert!(mesh_report.wire.rows_suppressed > 0);
}

/// Bytes per iteration of an all-peers Γ broadcast on `ext` split
/// over `regions`: every region ships the row of every router it owns
/// to every peer every iteration — the naive protocol, the all-peers
/// count `mesh_smoke` gates its row counts against — one batch per
/// link holding one Γ sub-frame. Every router has exactly one owner, so
/// this is a property of the instance and the region count alone,
/// whatever the ownership split and whatever the delta wire suppresses.
fn all_peers_gamma_bytes(ext: &ExtendedNetwork, regions: usize) -> f64 {
    // batch: frame header 29 + sub count 4; Γ sub: sub header 21 +
    // base round 8 + row count 4
    const FRAMING: usize = 29 + 4 + 21 + 8 + 4;
    // per row: j, v, edge count (u32 each), then (edge u32, φ f64) per
    // out-edge
    let rows: usize = ext
        .commodity_ids()
        .map(|j| {
            let routers = ext.commodity_routers(j);
            routers
                .iter()
                .map(|&v| 12 + 12 * ext.commodity_out_slice(j, v).len())
                .sum::<usize>()
        })
        .sum();
    (regions * (regions - 1) * FRAMING + (regions - 1) * rows) as f64
}

/// A converged lossless mesh goes quiet on the wire. The seed-25
/// instance reaches a bitwise routing fixed point at iteration 7372
/// (the gradient's shifts round to exact no-ops; seed 1 ends in a limit
/// cycle and never does); past it, non-refresh rounds ship
/// heartbeat-only batches and the bytes per iteration drop an order of
/// magnitude below an all-peers Γ broadcast ([`all_peers_gamma_bytes`]).
#[test]
fn converged_lossless_mesh_sends_almost_nothing() {
    let p = problem(16, 2, 25);
    let config = mesh_config(2);
    let full_bytes_per_iter = all_peers_gamma_bytes(&ExtendedNetwork::build(&p), config.regions);
    let refresh = config.refresh_every as usize;
    let mut mesh = MeshRuntime::lossless(ExtendedNetwork::build(&p), config).unwrap();
    mesh.run(7_500);
    let settled = mesh.wire_stats();

    // measure four full refresh cycles in the converged regime
    mesh.run(4 * refresh);
    let quiet = mesh.wire_stats();

    let quiet_bytes_per_iter = (quiet.bytes - settled.bytes) as f64 / (4 * refresh) as f64;
    assert!(
        quiet_bytes_per_iter < 0.2 * full_bytes_per_iter,
        "converged wire not quiet: {quiet_bytes_per_iter:.1} vs all-peers Γ broadcast \
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
    // and the lossless run never needed a retransmit
    assert_eq!(quiet.resyncs, 0);
    assert!(mesh.incidents().is_empty());
}
