//! ARCHITECTURE invariant 19 — the mesh runtime's three oracles.
//!
//! (a) **Lossless ⇒ bit-identical.** A mesh of 1, 2, or 4 region
//!     workers over the synchronous lossless transport reproduces the
//!     monolithic `GradientAlgorithm` trajectory — routing tables, flow
//!     state, utility bits, admitted-rate bits — exactly, at every
//!     iteration, with an empty incident log. Messages really cross the
//!     wire (encode → decode), so this also pins the wire format's
//!     exactness for `f64` payloads.
//!
//! (b) **Chaos ⇒ deterministic.** Two runs under the same seeded fault
//!     plan produce *identical* incident logs (value- and
//!     JSON-rendered-equal) and identical reports, and the faulted mesh
//!     still reaches the same convergence verdict as the monolithic
//!     algorithm, with utility inside the tier-2 tolerance.
//!
//! (c) **Partition → heal → bit-for-bit rejoin.** A region cut off long
//!     enough to be suspected by everyone (and to suspect everyone)
//!     rejoins through the epoch-fenced recovery handshake: the digest
//!     the survivor logs at capture equals the digest the rejoiner logs
//!     after restore, and all mirrors re-converge to bitwise equality.
//!
//! Plus ARCHITECTURE invariant 21 — the same oracles transfer across
//! **real kernel sockets**: a loopback Unix-domain socket mesh is
//! bit-identical to the lossless mesh (hence to the monolithic
//! algorithm), and a fault-injected socket mesh is report- and
//! incident-identical to `Chaotic` under the same seed — partition,
//! recovery handshake, and all — even with reads chopped into seeded
//! 1..=31-byte chunks. The degraded path the socket runtime advertises
//! — a phase deadline expiring — is driven here too, as is the frame
//! boundary: a structurally valid frame whose indices point outside the
//! sender's rows (or outside the buffers) is discarded as one logged
//! incident without a single write.

use spn::core::{GradientAlgorithm, GradientConfig};
use spn::graph::NodeId;
use spn::mesh::worker::owner_of;
use spn::mesh::{
    BatchReader, FrameBuf, FrameKind, Inbox, Lossless, MeshConfig, MeshError, MeshFaultConfig,
    MeshIncident, MeshRuntime, PartitionSpec, SocketKind, SocketOptions, SocketTransport,
    Transport,
};
use spn::model::random::RandomInstance;
use spn::transform::ExtendedNetwork;

fn problem(nodes: usize, commodities: usize, seed: u64) -> spn::model::Problem {
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

/// Oracle (a): the lossless mesh trajectory is bit-identical to the
/// monolithic algorithm for 1, 2, and 4 regions over a seeded grid.
#[test]
fn lossless_mesh_is_bit_identical_to_the_monolithic_algorithm() {
    let grid = [
        // (nodes, commodities, seed)
        (16usize, 2usize, 4u64),
        (24, 3, 7),
        (30, 4, 11),
    ];
    for &(nodes, commodities, seed) in &grid {
        for regions in [1usize, 2, 4] {
            let p = problem(nodes, commodities, seed);
            let ext = ExtendedNetwork::build(&p);
            let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
            let mut mesh = MeshRuntime::lossless(ext, mesh_config(regions)).unwrap();
            for it in 0..80 {
                alg.step();
                mesh.step();
                let ctx = format!(
                    "iteration {it} (nodes={nodes} commodities={commodities} \
                     seed={seed} regions={regions})"
                );
                for r in 0..regions {
                    assert_eq!(
                        alg.routing(),
                        mesh.worker(r).routing(),
                        "region {r} routing diverged at {ctx}"
                    );
                    assert_eq!(
                        alg.flows(),
                        mesh.worker(r).flows(),
                        "region {r} flows diverged at {ctx}"
                    );
                }
                assert_eq!(
                    alg.utility().to_bits(),
                    mesh.utility().to_bits(),
                    "utility not bit-identical at {ctx}"
                );
            }
            let report = alg.report();
            let mesh_report = mesh.run(0);
            assert_eq!(report.iterations, mesh_report.iterations);
            for (j, (a, m)) in report
                .admitted
                .iter()
                .zip(&mesh_report.admitted)
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    m.to_bits(),
                    "admitted rate of commodity {j} differs \
                     (seed={seed} regions={regions})"
                );
            }
            assert!(
                mesh.incidents().is_empty(),
                "lossless run logged incidents (seed={seed} regions={regions}): {:?}",
                mesh.incidents()
            );
        }
    }
}

fn noisy_faults() -> MeshFaultConfig {
    MeshFaultConfig {
        seed: 0x4D45_5348,
        loss: 0.04,
        duplicate: 0.03,
        delay_prob: 0.08,
        max_delay: 2,
        partitions: vec![PartitionSpec {
            region: 2,
            at: 60,
            duration: 40,
            heal_stagger: 5,
        }],
    }
}

/// Oracle (b), determinism half: same seed ⇒ identical incident logs
/// and identical reports, including the rendered JSON byte stream.
#[test]
fn same_seed_chaotic_runs_are_identical() {
    let run = || {
        let p = problem(20, 3, 9);
        let ext = ExtendedNetwork::build(&p);
        let mut mesh = MeshRuntime::chaotic(ext, mesh_config(4), &noisy_faults()).unwrap();
        let report = mesh.run(100);
        (report, mesh.incidents().to_vec())
    };
    let (report_a, log_a) = run();
    let (report_b, log_b) = run();
    assert_eq!(report_a, report_b, "same-seed reports diverged");
    assert_eq!(log_a, log_b, "same-seed incident logs diverged");
    let json_a = serde_json::to_string(&log_a).unwrap();
    let json_b = serde_json::to_string(&log_b).unwrap();
    assert_eq!(json_a, json_b, "rendered incident logs diverged");
    // the plan injected real faults and the protocol reacted
    assert!(log_a
        .iter()
        .any(|i| matches!(i, MeshIncident::FrameLost { .. })));
    assert!(log_a
        .iter()
        .any(|i| matches!(i, MeshIncident::PartitionStarted { .. })));
    assert!(log_a
        .iter()
        .any(|i| matches!(i, MeshIncident::Retransmitted { .. })));
}

/// Oracle (b), verdict half: under message noise (no partition) the
/// mesh reaches the same convergence verdict as the monolithic
/// algorithm, and its utility lands within the tier-2 tolerance.
#[test]
fn chaotic_mesh_reaches_the_reference_convergence_verdict() {
    const SHIFT_TOLERANCE: f64 = 1e-4;
    const MAX_ITERATIONS: usize = 600;
    /// Tier-2 trajectory tolerance (invariant 18 style): faulted runs
    /// may wander, but must land on the same equilibrium.
    const UTILITY_RTOL: f64 = 1e-2;

    let p = problem(16, 2, 4);
    let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
    let reference = alg.run_until_stable(SHIFT_TOLERANCE, MAX_ITERATIONS);

    let faults = MeshFaultConfig {
        seed: 0xFEED,
        loss: 0.05,
        duplicate: 0.02,
        delay_prob: 0.1,
        max_delay: 2,
        partitions: Vec::new(),
    };
    let ext = ExtendedNetwork::build(&p);
    let mut mesh = MeshRuntime::chaotic(ext, mesh_config(2), &faults).unwrap();
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
}

/// Oracle (c): a partitioned region is suspected, heals staggered,
/// requests recovery from the first survivor heard, and restores
/// survivor state **bit-for-bit** — the digest logged at capture equals
/// the digest logged after restore — after which every mirror
/// re-converges to bitwise equality.
#[test]
fn partitioned_region_rejoins_bit_for_bit() {
    const REGIONS: usize = 3;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    // a pure partition: no message noise, so the only incidents are the
    // partition itself and the protocol's reaction to it
    let faults = MeshFaultConfig {
        seed: 77,
        partitions: vec![PartitionSpec {
            region: 1,
            at: 30,
            duration: 45,
            heal_stagger: 4,
        }],
        ..MeshFaultConfig::off()
    };
    let mut mesh = MeshRuntime::chaotic(ext, mesh_config(REGIONS), &faults).unwrap();
    mesh.run(60); // 180 ticks: partition at 30, healed by ~80

    let log = mesh.incidents();
    // the cut region suspected every peer (isolation) and each survivor
    // suspected the cut region
    for peer in [0usize, 2] {
        assert!(
            log.iter().any(
                |i| matches!(i, MeshIncident::PeerSuspect { region: 1, peer: p, .. } if *p == peer)
            ),
            "region 1 never suspected peer {peer}: {log:?}"
        );
        assert!(
            log.iter().any(
                |i| matches!(i, MeshIncident::PeerSuspect { region: r, peer: 1, .. } if *r == peer)
            ),
            "survivor {peer} never suspected region 1"
        );
    }
    // the handshake ran: request → serve → complete, digests equal
    let request = log
        .iter()
        .find_map(|i| match i {
            MeshIncident::RecoveryRequested {
                region: 1,
                survivor,
                token,
                ..
            } => Some((*survivor, *token)),
            _ => None,
        })
        .expect("region 1 requested recovery");
    let served = log
        .iter()
        .find_map(|i| match i {
            MeshIncident::RecoveryServed {
                region,
                peer: 1,
                token,
                digest,
                ..
            } if *token == request.1 => Some((*region, *digest)),
            _ => None,
        })
        .expect("a survivor served the snapshot");
    assert_eq!(
        served.0, request.0,
        "a different survivor served the request"
    );
    let completed = log
        .iter()
        .find_map(|i| match i {
            MeshIncident::RecoveryCompleted {
                region: 1,
                epoch,
                digest,
                ..
            } => Some((*epoch, *digest)),
            _ => None,
        })
        .expect("region 1 completed recovery");
    assert_eq!(
        served.1, completed.1,
        "restored state is not bit-for-bit the survivor's (digest mismatch)"
    );
    assert_eq!(completed.0, 0, "epoch drifted through the recovery fence");

    // post-heal, every round rebroadcasts every row: mirrors must have
    // re-converged to bitwise equality
    let reference = mesh.worker(0).routing().clone();
    for r in 1..REGIONS {
        assert_eq!(
            &reference,
            mesh.worker(r).routing(),
            "region {r} mirror still diverged after recovery"
        );
    }
    // and the healed mesh keeps iterating cleanly
    let before = mesh.incidents().len();
    mesh.run(10);
    let tail = &mesh.incidents()[before..];
    assert!(
        tail.iter().all(|i| !matches!(
            i,
            MeshIncident::PeerSuspect { .. } | MeshIncident::FrameLost { .. }
        )),
        "healed mesh still degrading: {tail:?}"
    );
}

/// Invariant 21, lossless half: a mesh whose frames cross real
/// Unix-domain sockets — kernel buffers, partial reads, marker-based
/// readiness instead of the barrier — reproduces the in-process
/// lossless trajectory bit-for-bit at 1, 2, and 4 regions, with an
/// empty incident log (no deadline ever fires on a healthy loopback).
#[test]
fn loopback_socket_mesh_is_bit_identical_to_lossless() {
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    for regions in [1usize, 2, 4] {
        let options = SocketOptions {
            kind: SocketKind::Unix,
            ..SocketOptions::default()
        };
        let mut socket = MeshRuntime::socket(ext.clone(), mesh_config(regions), &options).unwrap();
        let mut lossless = MeshRuntime::lossless(ext.clone(), mesh_config(regions)).unwrap();
        for it in 0..80 {
            socket.step();
            lossless.step();
            for r in 0..regions {
                assert_eq!(
                    lossless.worker(r).routing(),
                    socket.worker(r).routing(),
                    "region {r} routing diverged from lossless at iteration {it} \
                     (regions={regions})"
                );
            }
        }
        assert_eq!(
            lossless.utility().to_bits(),
            socket.utility().to_bits(),
            "socket utility not bit-identical (regions={regions})"
        );
        assert_eq!(
            lossless.run(0),
            socket.run(0),
            "socket report diverged from lossless (regions={regions})"
        );
        assert!(
            socket.incidents().is_empty(),
            "healthy loopback socket run logged incidents (regions={regions}): {:?}",
            socket.incidents()
        );
    }
}

/// Invariant 21, faulty half: the netem-style `FaultyStream` shim makes
/// a socket mesh *exactly* `Chaotic` — same seed ⇒ identical report and
/// identical incident log (partition, suspects, the epoch-fenced
/// recovery handshake over real sockets, heals), and two same-seed
/// socket runs are identical to each other. Reads are chopped into
/// seeded 1..=31-byte chunks, so the stream reframer is exercised at
/// mid-header and mid-payload boundaries throughout.
#[test]
fn faulty_socket_mesh_matches_chaotic_incident_for_incident() {
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let faults = MeshFaultConfig {
        seed: 0x534F_434B,
        loss: 0.04,
        duplicate: 0.03,
        delay_prob: 0.08,
        max_delay: 2,
        partitions: vec![PartitionSpec {
            region: 1,
            at: 30,
            duration: 45,
            heal_stagger: 4,
        }],
    };
    let socket_run = || {
        let options = SocketOptions {
            kind: SocketKind::Unix,
            faults: Some(faults.clone()),
            split_seed: Some(21),
        };
        let mut mesh = MeshRuntime::socket(ext.clone(), mesh_config(3), &options).unwrap();
        let report = mesh.run(60);
        (report, mesh.incidents().to_vec())
    };
    let (report_a, log_a) = socket_run();
    let (report_b, log_b) = socket_run();
    assert_eq!(report_a, report_b, "same-seed socket reports diverged");
    assert_eq!(log_a, log_b, "same-seed socket incident logs diverged");

    let mut chaotic = MeshRuntime::chaotic(ext.clone(), mesh_config(3), &faults).unwrap();
    let chaotic_report = chaotic.run(60);
    assert_eq!(
        chaotic_report, report_a,
        "socket report diverged from Chaotic under the same seed"
    );
    assert_eq!(
        chaotic.incidents(),
        &log_a[..],
        "socket incident log diverged from Chaotic under the same seed"
    );
    // the run exercised the full gauntlet over real sockets
    assert!(log_a
        .iter()
        .any(|i| matches!(i, MeshIncident::PartitionStarted { .. })));
    assert!(log_a
        .iter()
        .any(|i| matches!(i, MeshIncident::RecoveryCompleted { .. })));
}

/// A socket transport that reports one `(tick, region)` as never ready
/// — without touching the sockets, so no marker is read for it — and
/// records how many frames `deliver_into` still handed over there.
struct Withhold {
    inner: SocketTransport,
    at: (u64, usize),
    delivered: Option<usize>,
}

impl Transport for Withhold {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        self.inner.begin_tick(tick, log);
    }

    fn ready(&mut self, tick: u64, to: usize) -> bool {
        (tick, to) != self.at && self.inner.ready(tick, to)
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
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
        if (tick, to) == self.at {
            self.delivered = Some(inbox.len());
        }
    }
}

/// The deadline path: when `ready` stays false past
/// `MeshConfig::phase_deadline` the runtime logs exactly one
/// `PhaseDeadlineExpired` for that `(tick, region)` and advances.
/// `deliver_into` then reads the lagging links itself, so every frame
/// the peers had already written is still handed over — here that is
/// all of them, and the run stays bit-identical to `Lossless`.
#[test]
fn expired_phase_deadline_is_logged_and_delivery_reads_what_is_in_hand() {
    const REGIONS: usize = 3;
    const AT: (u64, usize) = (7, 1);
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let config = MeshConfig {
        phase_deadline: std::time::Duration::from_millis(3),
        ..mesh_config(REGIONS)
    };
    let transport = Withhold {
        inner: SocketTransport::connect(REGIONS, &SocketOptions::default()).unwrap(),
        at: AT,
        delivered: None,
    };
    let mut mesh = MeshRuntime::with_transport(ext.clone(), config, transport).unwrap();
    let mut lossless = MeshRuntime::lossless(ext, mesh_config(REGIONS)).unwrap();
    let report = mesh.run(20);
    assert_eq!(
        mesh.incidents(),
        [MeshIncident::PhaseDeadlineExpired {
            tick: AT.0,
            region: AT.1
        }]
    );
    // the tick-6 marginal batches of both peers, collected by the
    // not-ready fallback read alone
    assert_eq!(mesh.transport().delivered, Some(REGIONS - 1));
    assert!(report.utility.is_finite());
    assert_eq!(
        report,
        lossless.run(20),
        "frames in hand at the expired deadline were not all delivered"
    );
}

/// A lossless transport that slips one extra frame into a chosen
/// `(tick, region)` delivery, ahead of the genuine frames; `frame`
/// builds it from the genuine frames of that delivery.
struct Inject {
    inner: Lossless,
    at: (u64, usize),
    frame: MakeFrame,
}

/// Builds an injected frame from the genuine frames of its delivery.
type MakeFrame = Box<dyn Fn(&[Vec<u8>]) -> Vec<u8>>;

/// An `Inject` frame that does not depend on the delivery.
fn fixed(frame: Vec<u8>) -> MakeFrame {
    Box::new(move |_| frame.clone())
}

impl Transport for Inject {
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
        if (tick, to) == self.at {
            // re-deliver with the injected frame first
            let genuine: Vec<Vec<u8>> = inbox.iter().map(<[u8]>::to_vec).collect();
            inbox.clear();
            assert!(inbox.push(&(self.frame)(&genuine)));
            for frame in &genuine {
                assert!(inbox.push(frame));
            }
        }
    }
}

/// A `from → to` batch holding a one-entry `Marginals` sub-frame for
/// `(j, v)` at `round`.
fn one_marginal(from: u16, to: u16, round: u64, j: u32, v: u32) -> Vec<u8> {
    let mut buf = FrameBuf::new();
    buf.begin(from, to, round);
    buf.begin_sub(FrameKind::Marginals, 0, round);
    buf.put_u64(round); // base == round: a full frame
    buf.put_u32(1);
    buf.put_u32(j);
    buf.put_u32(v);
    buf.put_f64(123.456);
    buf.end_sub();
    assert!(buf.finish());
    buf.bytes().unwrap().to_vec()
}

/// Frame-boundary robustness: frames that decode cleanly but index
/// outside the sender's rows used to panic the worker (`j = 9999`,
/// `v = 100000`, `from = 7` on a 2-region mesh) or silently land in
/// another commodity's row (`v = v_count + 3`). Each is now exactly one
/// `MalformedFrameDiscarded`, no state change — the run stays
/// bit-identical to the monolithic algorithm (and, for the marginal
/// mirror, to an undisturbed mesh) before and after.
#[test]
fn frames_with_out_of_range_indices_are_discarded_without_a_write() {
    const REGIONS: usize = 2;
    const ROUND: u64 = 5;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let v_count = ext.graph().node_count() as u32;
    let cases = [
        ("commodity out of range", one_marginal(1, 0, ROUND, 9999, 0)),
        ("node out of range", one_marginal(1, 0, ROUND, 0, 100_000)),
        (
            "node past the row end (lands in commodity 1)",
            one_marginal(1, 0, ROUND, 0, v_count + 3),
        ),
        (
            "sender region out of range",
            one_marginal(7, 0, ROUND, 0, 0),
        ),
    ];
    for (what, frame) in cases {
        let transport = Inject {
            inner: Lossless::new(REGIONS),
            // phase 1 of iteration ROUND: marginals are about to feed Γ
            at: (3 * ROUND + 1, 0),
            frame: fixed(frame),
        };
        let mut mesh =
            MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let mut clean = MeshRuntime::lossless(ext.clone(), mesh_config(REGIONS)).unwrap();
        for it in 0..40 {
            alg.step();
            clean.step();
            mesh.step();
            for r in 0..REGIONS {
                assert_eq!(
                    alg.routing(),
                    mesh.worker(r).routing(),
                    "{what}: region {r} routing diverged at iteration {it}"
                );
                assert_eq!(
                    alg.flows(),
                    mesh.worker(r).flows(),
                    "{what}: region {r} flows diverged at iteration {it}"
                );
                assert_eq!(
                    clean.worker(r).marginals(),
                    mesh.worker(r).marginals(),
                    "{what}: region {r} marginals diverged at iteration {it}"
                );
            }
        }
        assert!(
            matches!(
                mesh.incidents(),
                [MeshIncident::MalformedFrameDiscarded {
                    tick: 16,
                    region: 0,
                    ..
                }]
            ),
            "{what}: expected exactly one discard incident, got {:?}",
            mesh.incidents()
        );
        assert_eq!(alg.utility().to_bits(), mesh.utility().to_bits(), "{what}");
    }
}

/// Misrouted frames: a well-formed `1 → 2` batch (a real entry of region
/// 1's own rows) that the transport hands to region 0 is one
/// `MalformedFrameDiscarded` and nothing else — not counted on the
/// `0 ← 1` link, not proof that region 1 is alive, not applied: report,
/// routing and per-link `frames_received` equal the uninjected run's.
#[test]
fn misrouted_frame_is_discarded_before_it_is_counted_or_applied() {
    const REGIONS: usize = 3;
    const ROUND: u64 = 5;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    // first node of region 1's contiguous range
    let v = (ext.graph().node_count() as u32).div_ceil(REGIONS as u32);
    let transport = Inject {
        inner: Lossless::new(REGIONS),
        at: (3 * ROUND + 1, 0),
        frame: fixed(one_marginal(1, 2, ROUND, 0, v)),
    };
    let mut mesh =
        MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
    let mut clean = MeshRuntime::lossless(ext, mesh_config(REGIONS)).unwrap();
    assert_eq!(clean.run(40), mesh.run(40));
    for r in 0..REGIONS {
        assert_eq!(
            clean.worker(r).routing(),
            mesh.worker(r).routing(),
            "region {r} routing"
        );
        for peer in 0..REGIONS {
            assert_eq!(
                clean.worker(r).link_wire_stats(peer).frames_received,
                mesh.worker(r).link_wire_stats(peer).frames_received,
                "frames received on link {r} <- {peer}"
            );
        }
    }
    assert!(
        matches!(
            mesh.incidents(),
            [MeshIncident::MalformedFrameDiscarded {
                tick: 16,
                region: 0,
                ..
            }]
        ),
        "expected exactly one discard incident, got {:?}",
        mesh.incidents()
    );
}

/// A received Γ row for a pass-through router (one out-edge) must be
/// exactly `[(l, 1.0)]` — the only row Γ gives it (`f / f`), and the
/// owner's sparse step never recomputes it — while a decider's row may
/// sum to one within `FRACTION_TOLERANCE`. A forged `[(l, 1 − 5e-8)]`
/// slipped in mid-run ahead of region 1's genuine refresh-round Γ sub,
/// under the genuine sub's seq, is one `MalformedFrameDiscarded`; it
/// takes no seq, so the genuine sub still applies and every mirror stays
/// bit-equal to the uninjected mesh (and to the monolithic algorithm).
/// Before the fix the row passed the tolerance, was written into the
/// mirror, and turned the genuine sub into a duplicate.
#[test]
fn a_pass_through_row_off_one_is_discarded_without_a_write() {
    const REGIONS: usize = 2;
    // a refresh round: region 1 ships every owned row
    const ROUND: u64 = 16;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let v_count = ext.graph().node_count();
    let (j, v, l) = ext
        .commodity_ids()
        .find_map(|j| {
            let theirs = |v: &&NodeId| owner_of(v.index(), v_count, REGIONS) == 1;
            let pass_through = |v: &&NodeId| ext.commodity_out_slice(j, **v).len() == 1;
            let routers = ext.commodity_routers(j).iter();
            let v = *routers.filter(theirs).find(pass_through)?;
            Some((j, v, ext.commodity_out_slice(j, v)[0]))
        })
        .expect("region 1 owns a bandwidth node");
    let forged = move |genuine: &[Vec<u8>]| {
        // the seq and round of region 1's genuine Γ sub in this delivery
        let (seq, round) = genuine
            .iter()
            .find_map(|bytes| {
                let mut reader = BatchReader::parse(bytes).ok()?;
                std::iter::from_fn(|| reader.next_sub())
                    .filter_map(Result::ok)
                    .find(|sub| sub.kind == FrameKind::GammaRows)
                    .map(|sub| (sub.seq, sub.round))
            })
            .expect("region 1 ships Γ rows on a refresh round");
        let mut buf = FrameBuf::new();
        buf.begin(1, 0, round);
        buf.begin_sub(FrameKind::GammaRows, seq, round);
        buf.put_u64(round); // base == round: a full frame
        buf.put_u32(1);
        buf.put_u32(j.index() as u32);
        buf.put_u32(v.index() as u32);
        buf.put_u32(1);
        buf.put_u32(l.index() as u32);
        buf.put_f64(1.0 - 5e-8);
        buf.end_sub();
        assert!(buf.finish());
        buf.bytes().unwrap().to_vec()
    };
    let transport = Inject {
        inner: Lossless::new(REGIONS),
        // region 1's round-16 Γ batch reaches region 0 at the next tick
        at: (3 * ROUND + 2, 0),
        frame: Box::new(forged),
    };
    let mut mesh =
        MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
    let mut clean = MeshRuntime::lossless(ext, mesh_config(REGIONS)).unwrap();
    let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
    for it in 0..40 {
        alg.step();
        clean.step();
        mesh.step();
        for r in 0..REGIONS {
            assert_eq!(
                clean.worker(r).routing(),
                mesh.worker(r).routing(),
                "region {r} routing diverged from the uninjected mesh at iteration {it}"
            );
            assert_eq!(
                alg.routing(),
                mesh.worker(r).routing(),
                "region {r} routing diverged from the monolithic run at iteration {it}"
            );
        }
    }
    assert!(
        matches!(
            mesh.incidents(),
            [MeshIncident::MalformedFrameDiscarded {
                tick: 50,
                region: 0,
                ..
            }]
        ),
        "expected exactly one discard incident, got {:?}",
        mesh.incidents()
    );
}

/// Config validation: annealing is refused (it would silently diverge
/// from the monolithic trajectory), as are impossible region counts.
#[test]
fn mesh_rejects_unsupported_configs() {
    let p = problem(16, 2, 4);
    let ext = ExtendedNetwork::build(&p);
    let annealing = MeshConfig {
        regions: 2,
        gradient: GradientConfig {
            epsilon_factor: 0.5,
            ..GradientConfig::default()
        },
        ..MeshConfig::default()
    };
    assert!(matches!(
        MeshRuntime::<Lossless>::with_transport(ext.clone(), annealing, Lossless::new(2)),
        Err(MeshError::AnnealingUnsupported { .. })
    ));
    assert!(matches!(
        MeshRuntime::<Lossless>::with_transport(
            ext.clone(),
            MeshConfig {
                regions: 0,
                ..MeshConfig::default()
            },
            Lossless::new(0)
        ),
        Err(MeshError::NoRegions)
    ));
    let nodes = ext.graph().node_count();
    assert!(matches!(
        MeshRuntime::<Lossless>::with_transport(
            ext.clone(),
            MeshConfig {
                regions: nodes + 1,
                ..MeshConfig::default()
            },
            Lossless::new(nodes + 1)
        ),
        Err(MeshError::TooManyRegions { .. })
    ));
    // an inbox budget below one frame would drop all traffic silently
    assert!(matches!(
        MeshRuntime::<Lossless>::with_transport(
            ext,
            MeshConfig {
                inbox_budget: 512,
                ..MeshConfig::default()
            },
            Lossless::new(2)
        ),
        Err(MeshError::InboxBudgetTooSmall { budget: 512 })
    ));
}
