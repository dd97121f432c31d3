//! ARCHITECTURE invariant 19 — the mesh runtime's three oracles.
//!
//! (a) **Fault-free ⇒ bit-identical.** A mesh of 1, 2, or 4 region
//!     workers over fault-free in-process pipes reproduces the
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
//! Plus ARCHITECTURE invariant 21 — stream-kind invariance: in-process
//! pipes, Unix-domain sockets and loopback TCP give identical reports
//! and incident logs, fault-free and under a seeded fault plan —
//! partition, recovery handshake, and all — even with reads chopped
//! into seeded 1..=31-byte chunks; two faulty runs are pinned by
//! digest. The degraded path the socket runtime advertises — a phase
//! deadline expiring — is driven here too, as is the frame boundary: a
//! structurally valid frame whose indices point outside the sender's
//! rows (or outside the buffers), or a recovery snapshot whose routing
//! rows break the simplex, is discarded as one logged incident without
//! a single write.

use spn::core::flows::balance_residual;
use spn::core::{ConfigError, GradientAlgorithm, GradientConfig, NewtonGradient};
use spn::graph::NodeId;
use spn::mesh::{
    BatchReader, Frame, FrameBuf, FrameKind, Inbox, MeshConfig, MeshError, MeshFaultConfig,
    MeshIncident, MeshReport, MeshRuntime, PartitionSpec, Payload, SocketKind, SocketOptions,
    SocketTransport, Transport, TICKS_PER_ITERATION,
};
use spn::model::random::RandomInstance;
use spn::model::{Penalty, PenaltyKind};
use spn::sim::draws::unit_hash;
use spn::sim::{ChaosConfig, ChaosGradient, GradientSim};
use spn::transform::ExtendedNetwork;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

fn problem(nodes: usize, commodities: usize, seed: u64) -> spn::model::Problem {
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

/// A `regions`-way mesh over in-process pipes under `faults`.
fn faulty(
    ext: ExtendedNetwork,
    regions: usize,
    faults: &MeshFaultConfig,
) -> MeshRuntime<SocketTransport> {
    MeshRuntime::socket(ext, mesh_config(regions), &memory(Some(faults.clone()))).unwrap()
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

/// The staged own rows leave no mirror ahead of its sweeps: after `k`
/// `step()` calls on in-process pipes, Unix-domain sockets and loopback
/// TCP at 1–4 regions, `iterations() == k` and every worker's routing,
/// flows and marginals equal `GradientAlgorithm` after `k` steps, bit
/// for bit — at every `k`.
#[test]
fn every_mirror_is_the_core_after_k_steps_on_every_stream() {
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    for kind in [SocketKind::Memory, SocketKind::Unix, SocketKind::Tcp] {
        for regions in 1..=4 {
            let options = SocketOptions {
                kind,
                faults: None,
                split_seed: None,
            };
            let mut mesh =
                MeshRuntime::socket(ext.clone(), mesh_config(regions), &options).unwrap();
            let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
            assert_eq!(mesh.iterations(), 0);
            for k in 1..=24 {
                alg.step();
                mesh.step();
                let ctx = format!("{kind:?}, {regions} regions, after {k} steps");
                assert_eq!(mesh.iterations(), k, "{ctx}");
                for r in 0..regions {
                    let w = mesh.worker(r);
                    assert_eq!(alg.routing(), w.routing(), "{ctx}: region {r} routing");
                    assert_eq!(alg.flows(), w.flows(), "{ctx}: region {r} flows");
                    assert_eq!(
                        alg.marginals(),
                        w.marginals(),
                        "{ctx}: region {r} marginals"
                    );
                }
            }
            assert!(mesh.incidents().is_empty(), "{kind:?}, {regions} regions");
        }
    }
}

/// Iterations of the noisy run: 200 ticks, so its partition (at tick
/// 60, for 40 ticks, staggered heal) heals and the cut region rejoins.
const NOISY_ITERATIONS: usize = 200;

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
        let mut mesh = faulty(ext, 4, &noisy_faults());
        let report = mesh.run(NOISY_ITERATIONS);
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
    let mut mesh = faulty(ext, 2, &faults);
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
    let mut mesh = faulty(ext, REGIONS, &faults);
    mesh.run(120); // 120 ticks: partition at tick 30, healed by ~80

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

/// Invariant 21, fault-free half: a mesh whose frames cross real
/// Unix-domain or TCP sockets — kernel buffers, partial reads (whole or
/// seeded 1..=31-byte), marker-based readiness — reproduces the
/// in-process trajectory bit-for-bit at 1, 2, and 4 regions, with an
/// empty incident log (no deadline ever fires on a healthy loopback).
#[test]
fn loopback_socket_mesh_is_bit_identical_to_lossless() {
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    for regions in [1usize, 2, 4] {
        for (kind, split_seed) in [
            (SocketKind::Unix, None),
            (SocketKind::Unix, Some(5)),
            (SocketKind::Tcp, None),
            (SocketKind::Tcp, Some(5)),
        ] {
            let options = SocketOptions {
                kind,
                faults: None,
                split_seed,
            };
            let ctx = format!("regions={regions} {kind:?} split {split_seed:?}");
            let mut socket =
                MeshRuntime::socket(ext.clone(), mesh_config(regions), &options).unwrap();
            let mut lossless = MeshRuntime::lossless(ext.clone(), mesh_config(regions)).unwrap();
            for it in 0..80 {
                socket.step();
                lossless.step();
                for r in 0..regions {
                    assert_eq!(
                        lossless.worker(r).routing(),
                        socket.worker(r).routing(),
                        "region {r} routing diverged at iteration {it} ({ctx})"
                    );
                }
            }
            assert_eq!(
                lossless.utility().to_bits(),
                socket.utility().to_bits(),
                "socket utility not bit-identical ({ctx})"
            );
            assert_eq!(lossless.run(0), socket.run(0), "report diverged ({ctx})");
            assert!(
                socket.incidents().is_empty(),
                "healthy loopback socket run logged incidents ({ctx}): {:?}",
                socket.incidents()
            );
        }
    }
}

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A run's digest: every field of its report as bits, then its incident
/// log rendered to JSON.
fn run_digest(report: &MeshReport, log: &[MeshIncident]) -> u64 {
    let w = report.wire;
    let mut words = vec![report.iterations as u64, report.utility.to_bits()];
    words.extend(report.admitted.iter().map(|a| a.to_bits()));
    words.push(report.total_shift.to_bits());
    words.extend([
        w.frames,
        w.bytes,
        w.subs,
        w.rows_sent,
        w.rows_suppressed,
        w.resyncs,
    ]);
    let h = words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| fnv(h, &w.to_le_bytes()));
    fnv(h, serde_json::to_string(&log.to_vec()).unwrap().as_bytes())
}

/// The two pinned faulty scenarios on problem `(20, 3, 9)`: `(name,
/// faults, regions, iterations, digest)`.
fn pinned_scenarios() -> [(&'static str, MeshFaultConfig, usize, usize, u64); 2] {
    [
        // the 4-region noisy run of `same_seed_chaotic_runs_are_identical`
        (
            "noisy",
            noisy_faults(),
            4,
            NOISY_ITERATIONS,
            0xe6ed_5155_1d1b_5c7d,
        ),
        // the 3-region partition and recovery
        (
            "partition",
            partition_faults(),
            3,
            120,
            0x7ca7_d87c_8b17_77b5,
        ),
    ]
}

/// Loss, duplication and delay around a partition of region 1 long
/// enough to force the recovery handshake.
fn partition_faults() -> MeshFaultConfig {
    MeshFaultConfig {
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
    }
}

/// Invariant 21, faulty half: two faulty runs against pinned digests.
/// Every stream kind, with reads whole and chopped into seeded
/// 1..=31-byte chunks, reproduces them — same report, same incident log
/// (partition, suspects, the epoch-fenced recovery handshake, heals).
/// The digests were first generated while a faulty socket mesh was
/// still asserted equal to the retired in-process fault injector, and
/// re-pinned once when rows began to travel only to the regions that
/// read them: fewer frames shift the seeded per-frame fault draws. The
/// noisy run's iterations, utility, admitted rates and total shift kept
/// their bits then (only its wire counters and incident log moved), and
/// the partition run's utility moved by 1.1e-6 relative (a recovery
/// snapshot now carries the survivor's own value of each marginal it
/// does not read). They were re-pinned a second time, by the same rule,
/// when a marginal began to go only to the regions that own a *decider*
/// routing into it: noisy `0x0244_54bc_9e55_1625` → `0x13e3_2543_23d8_45f4`,
/// partition `0x7a4d_66b5_911e_04a0` → `0x0f4c_6940_14a6_8386`. All six
/// kind × split runs agreed, and both runs kept their iterations,
/// utility, admitted rates and total shift bit for bit; only the wire
/// counters and the incident logs moved. They were re-pinned a third
/// time, by the same rule, when wire v3 dropped the per-commodity flow
/// summaries no worker read and the heartbeat became the forward-tick
/// batch itself: noisy `0x13e3_2543_23d8_45f4` →
/// `0x1576_3343_7452_4cea`, partition `0x0f4c_6940_14a6_8386` →
/// `0xca4a_39ea_eb99_34dc` (fewer bytes, subs, rows and resyncs, and
/// fewer duplicate and resync incidents; the partition run ships one
/// batch fewer, a resend-only batch the fault plan dropped). They were
/// re-pinned a fourth time when an iteration became one tick (wire v4:
/// no marginal frames, routers owned with their tail server): the fault
/// plan is keyed on ticks, so both runs keep their tick span — noisy
/// 100 → 200 iterations, partition 60 → 120 — and every frame, draw and
/// incident moves: noisy `0x1576_3343_7452_4cea` →
/// `0xe6ed_5155_1d1b_5c7d`, partition `0xca4a_39ea_eb99_34dc` →
/// `0x7ca7_d87c_8b17_77b5`, all six kind × split runs agreeing and both
/// still running the partition, suspect and recovery gauntlet. There is
/// no regeneration switch: a failing assertion prints the observed
/// digest.
#[test]
fn faulty_runs_match_their_pinned_digests() {
    let ext = ExtendedNetwork::build(&problem(20, 3, 9));
    for (name, faults, regions, iterations, want) in pinned_scenarios() {
        for kind in [SocketKind::Memory, SocketKind::Unix, SocketKind::Tcp] {
            for split_seed in [None, Some(21)] {
                let options = SocketOptions {
                    kind,
                    faults: Some(faults.clone()),
                    split_seed,
                };
                let mut mesh =
                    MeshRuntime::socket(ext.clone(), mesh_config(regions), &options).unwrap();
                let report = mesh.run(iterations);
                let log = mesh.incidents();
                let got = run_digest(&report, log);
                assert_eq!(
                    got, want,
                    "{name} over {kind:?} split {split_seed:?}: observed digest {got:#018x}"
                );
                // the runs exercise the full gauntlet
                assert!(log
                    .iter()
                    .any(|i| matches!(i, MeshIncident::PartitionStarted { .. })));
                assert!(log
                    .iter()
                    .any(|i| matches!(i, MeshIncident::RecoveryCompleted { .. })));
            }
        }
    }
}

/// The socket transport's demand-driven schedule costs one `write(2)`
/// and one `read(2)` per directed link per tick on a healthy loopback,
/// so an iteration costs exactly `TICKS_PER_ITERATION · 2·R·(R−1)`
/// syscalls — 24 at R = 4, one tick (48 while an iteration was two
/// ticks, one of them only to carry marginals). Tick 0 issues none
/// (nothing is due yet), so the count starts after one warm-up
/// iteration.
#[test]
fn a_healthy_uds_iteration_costs_two_syscalls_per_link_per_tick() {
    const REGIONS: usize = 4;
    const ITERATIONS: u64 = 30;
    let ext = ExtendedNetwork::build(&problem(20, 3, 9));
    let options = SocketOptions::default();
    let mut mesh = MeshRuntime::socket(ext, mesh_config(REGIONS), &options).unwrap();
    let syscalls = |mesh: &MeshRuntime<SocketTransport>| {
        let io = mesh.transport().io_stats();
        io.reads + io.writes
    };
    mesh.step();
    let before = syscalls(&mesh);
    mesh.run(ITERATIONS as usize);
    let links = (REGIONS * (REGIONS - 1)) as u64;
    let per_iteration = TICKS_PER_ITERATION * 2 * links;
    assert_eq!(per_iteration, 24, "one tick of 2·R·(R−1) at R = 4");
    assert_eq!(syscalls(&mesh) - before, ITERATIONS * per_iteration);
    assert!(mesh.incidents().is_empty());
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
/// all of them, and the run stays bit-identical to the fault-free mesh.
#[test]
fn expired_phase_deadline_is_logged_and_delivery_reads_what_is_in_hand() {
    const REGIONS: usize = 3;
    const ROUND: u64 = 4;
    // region 1's tick of iteration ROUND + 1
    const AT: (u64, usize) = (TICKS_PER_ITERATION * ROUND, 1);
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
    // both peers' batches of the tick before, collected by the
    // not-ready fallback read alone
    assert_eq!(mesh.transport().delivered, Some(REGIONS - 1));
    assert!(report.utility.is_finite());
    assert_eq!(
        report,
        lossless.run(20),
        "frames in hand at the expired deadline were not all delivered"
    );
}

/// In-process pipes whose deliveries pass through an edit first:
/// `edit(tick, region, frames)` may rewrite, drop or add frames of
/// delivery `(tick, region)` before the worker sees them.
struct Inject {
    inner: SocketTransport,
    edit: Edit,
}

/// Edits the frames of one delivery, given its tick and region.
type Edit = Box<dyn FnMut(u64, usize, &mut Vec<Vec<u8>>)>;

impl Inject {
    /// A `regions`-way mesh of pipes under `faults`, editing with `edit`.
    fn new(regions: usize, faults: Option<MeshFaultConfig>, edit: Edit) -> Self {
        let inner = SocketTransport::connect(regions, &memory(faults)).unwrap();
        Inject { inner, edit }
    }
}

/// An `Inject` edit slipping one frame, built from the genuine frames of
/// delivery `at`, in ahead of them.
fn once(at: (u64, usize), make: impl Fn(&[Vec<u8>]) -> Vec<u8> + 'static) -> Edit {
    Box::new(move |tick, region, frames| {
        if (tick, region) == at {
            frames.insert(0, make(frames));
        }
    })
}

/// An `Inject` edit slipping one fixed frame into delivery `at`.
fn fixed(at: (u64, usize), frame: Vec<u8>) -> Edit {
    once(at, move |_| frame.clone())
}

impl Transport for Inject {
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
        let mut frames: Vec<Vec<u8>> = inbox.iter().map(<[u8]>::to_vec).collect();
        (self.edit)(tick, to, &mut frames);
        inbox.clear();
        for frame in &frames {
            assert!(inbox.push(frame));
        }
    }
}

/// Invariants 1–3 on every mirror of `mesh`: a valid, loop-free routing
/// whose flows balance.
fn assert_invariants<T: Transport>(ext: &ExtendedNetwork, mesh: &MeshRuntime<T>, ctx: &str) {
    for r in 0..mesh.config().regions {
        let (routing, flows) = (mesh.worker(r).routing(), mesh.worker(r).flows());
        assert_eq!(
            routing.validate(ext),
            Ok(()),
            "{ctx}, region {r}: invariant 1"
        );
        assert!(routing.is_loop_free(ext), "{ctx}, region {r}: invariant 2");
        let residual = balance_residual(ext, routing, flows);
        assert!(
            residual <= 1e-9,
            "{ctx}, region {r}: invariant 3, residual {residual}"
        );
    }
}

/// One Γ row as the wire lays it out: `(commodity, router, [(edge,
/// φ)])`.
type Row = (u32, u32, Vec<(u32, f64)>);

/// A `from → to` batch holding one full-frame Γ sub-frame of `rows`
/// under `seq` at `round`.
fn gamma_frame(from: u16, to: u16, seq: u64, round: u64, rows: &[Row]) -> Vec<u8> {
    let mut buf = FrameBuf::new();
    buf.begin(from, to, round);
    buf.begin_sub(FrameKind::GammaRows, seq, round);
    buf.put_u64(round); // base == round: a full frame
    buf.put_u32(rows.len() as u32);
    for (j, v, edges) in rows {
        buf.put_u32(*j);
        buf.put_u32(*v);
        buf.put_u32(edges.len() as u32);
        for &(l, phi) in edges {
            buf.put_u32(l);
            buf.put_f64(phi);
        }
    }
    buf.end_sub();
    buf.finish();
    buf.bytes().unwrap().to_vec()
}

/// The seq and round of region `from`'s genuine Γ sub among a
/// delivery's frames.
fn genuine_gamma_sub(genuine: &[Vec<u8>], from: u16) -> (u64, u64) {
    genuine
        .iter()
        .find_map(|bytes| {
            let mut reader = BatchReader::parse(bytes).ok()?;
            if reader.from() != from {
                return None;
            }
            std::iter::from_fn(|| reader.next_sub())
                .filter_map(Result::ok)
                .find(|sub| sub.kind == FrameKind::GammaRows)
                .map(|sub| (sub.seq, sub.round))
        })
        .expect("the sender ships Γ rows on a refresh round")
}

/// An `Inject` edit slipping a forged `1 → 0` Γ sub of `rows` in ahead
/// of region 1's genuine Γ sub at delivery `at`, under the genuine
/// sub's seq and round: refused, it must not take the seq.
fn forged_rows(at: (u64, usize), rows: Vec<Row>) -> Edit {
    once(at, move |genuine| {
        let (seq, round) = genuine_gamma_sub(genuine, 1);
        gamma_frame(1, 0, seq, round, &rows)
    })
}

/// Region 1's first decider row of a `regions`-way split of `ext`,
/// spread evenly: a row its owner could genuinely ship.
fn a_row_of_region_1(ext: &ExtendedNetwork, regions: usize) -> Row {
    let probe = MeshRuntime::lossless(ext.clone(), mesh_config(regions)).unwrap();
    ext.commodity_ids()
        .find_map(|j| {
            let v = *ext.commodity_routers(j).iter().find(|&&v| {
                probe.worker(0).owner(v) == 1 && ext.commodity_out_slice(j, v).len() >= 2
            })?;
            let out = ext.commodity_out_slice(j, v);
            let share = 1.0 / out.len() as f64;
            let edges = out.iter().map(|l| (l.index() as u32, share)).collect();
            Some((j.index() as u32, v.index() as u32, edges))
        })
        .expect("region 1 owns a decider")
}

/// Frame-boundary robustness: frames that decode cleanly but index
/// outside the sender's rows used to panic the worker (`j = 9999`,
/// `v = 100000`, `from = 7` on a 2-region mesh) or silently land in
/// another commodity's row (`v = v_count + 3`); a sub-frame whose kind
/// byte names no kind — 0, 1, 3 and 7, retired with wires v2 to v4 —
/// must not either. Each is exactly one `MalformedFrameDiscarded`, no
/// state change — refused unsequenced, so region 1's genuine Γ sub of
/// the same delivery still applies, and the run stays bit-identical to
/// the monolithic algorithm (and, for the marginal mirror, to an
/// undisturbed mesh) before and after.
#[test]
fn frames_with_out_of_range_indices_are_discarded_without_a_write() {
    const REGIONS: usize = 2;
    // a refresh round: region 1 ships every owned decider row
    const ROUND: u64 = 16;
    // region 1's round-ROUND Γ batch reaches region 0 a tick later
    const AT: (u64, usize) = (TICKS_PER_ITERATION * ROUND + 1, 0);
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let v_count = ext.graph().node_count() as u32;
    let (j, v, edges) = a_row_of_region_1(&ext, REGIONS);
    let row = |j: u32, v: u32| vec![(j, v, edges.clone())];
    let retired = |kind: u8| -> Edit {
        // the first sub's kind byte follows the 29-byte frame header
        // and the 4-byte sub count
        let mut frame = gamma_frame(1, 0, 0, ROUND, &row(j, v));
        frame[29 + 4] = kind;
        fixed(AT, frame)
    };
    let cases: Vec<(&str, Edit)> = vec![
        ("commodity out of range", forged_rows(AT, row(9999, v))),
        ("node out of range", forged_rows(AT, row(j, 100_000))),
        (
            "node past the row end (lands in commodity 1)",
            forged_rows(AT, row(j, v_count + 3)),
        ),
        (
            "sender region out of range",
            fixed(AT, gamma_frame(7, 0, 1, ROUND, &row(j, v))),
        ),
        (
            "sub-frame of the retired kind byte 0 (heartbeat)",
            retired(0),
        ),
        (
            "sub-frame of the retired kind byte 1 (marginals)",
            retired(1),
        ),
        (
            "sub-frame of the retired kind byte 3 (flow summary)",
            retired(3),
        ),
        ("sub-frame of the retired kind byte 7 (resend)", retired(7)),
    ];
    for (what, edit) in cases {
        let transport = Inject::new(REGIONS, None, edit);
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
                    tick,
                    region: 0,
                    ..
                }] if *tick == AT.0
            ),
            "{what}: expected exactly one discard incident, got {:?}",
            mesh.incidents()
        );
        assert_eq!(alg.utility().to_bits(), mesh.utility().to_bits(), "{what}");
    }
}

/// Misrouted frames: a well-formed `1 → 2` batch (a real row of region
/// 1's own deciders) that the transport hands to region 0 is one
/// `MalformedFrameDiscarded` and nothing else — not counted on the
/// `0 ← 1` link, not proof that region 1 is alive, not applied: report,
/// routing and per-link `frames_received` equal the uninjected run's.
#[test]
fn misrouted_frame_is_discarded_before_it_is_counted_or_applied() {
    const REGIONS: usize = 3;
    const ROUND: u64 = 5;
    const AT: (u64, usize) = (TICKS_PER_ITERATION * ROUND, 0);
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let frame = gamma_frame(1, 2, 1, ROUND, &[a_row_of_region_1(&ext, REGIONS)]);
    let transport = Inject::new(REGIONS, None, fixed(AT, frame));
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
                tick,
                region: 0,
                ..
            }] if *tick == AT.0
        ),
        "expected exactly one discard incident, got {:?}",
        mesh.incidents()
    );
}

/// Every mirror of `mesh` equals the same region's mirror in `clean`:
/// routing, flows and marginals.
fn assert_mirrors_equal<T: Transport, U: Transport>(
    clean: &MeshRuntime<T>,
    mesh: &MeshRuntime<U>,
    ctx: &str,
) {
    for r in 0..mesh.config().regions {
        let (a, b) = (clean.worker(r), mesh.worker(r));
        assert_eq!(a.routing(), b.routing(), "{ctx}: region {r} routing");
        assert_eq!(a.flows(), b.flows(), "{ctx}: region {r} flows");
        assert_eq!(a.marginals(), b.marginals(), "{ctx}: region {r} marginals");
    }
}

/// No pass-through row travels: a router with one out-edge holds `[(l,
/// 1.0)]` on every mirror from construction on, so its owner never
/// ships it and a received Γ row for one is malformed whatever it
/// holds — `[(l, 1 − 5e-8)]`, which the old mass tolerance let through,
/// and `[(l, 1.0)]` exactly. Either one, slipped in mid-run ahead of
/// region 1's genuine refresh-round Γ sub under the genuine sub's seq,
/// is one `MalformedFrameDiscarded`; it takes no seq, so the genuine sub
/// still applies and every mirror stays bit-equal to the uninjected mesh
/// (and its routing to the monolithic algorithm). Before the
/// mass-tolerance fix the first row was written into the mirror and
/// turned the genuine sub into a duplicate; before pass-through rows
/// stopped travelling the second was applied as a genuine row.
#[test]
fn a_pass_through_row_off_one_is_discarded_without_a_write() {
    const REGIONS: usize = 2;
    // a refresh round: region 1 ships every owned decider row
    const ROUND: u64 = 16;
    // region 1's round-ROUND Γ batch reaches region 0 a tick later
    const AT: (u64, usize) = (TICKS_PER_ITERATION * ROUND + 1, 0);
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let probe = MeshRuntime::lossless(ext.clone(), mesh_config(REGIONS)).unwrap();
    let (j, v, l) = ext
        .commodity_ids()
        .find_map(|j| {
            let theirs = |v: &&NodeId| probe.worker(0).owner(**v) == 1;
            let pass_through = |v: &&NodeId| ext.commodity_out_slice(j, **v).len() == 1;
            let routers = ext.commodity_routers(j).iter();
            let v = *routers.filter(theirs).find(pass_through)?;
            Some((j, v, ext.commodity_out_slice(j, v)[0]))
        })
        .expect("region 1 owns a bandwidth node");
    for phi in [1.0 - 5e-8, 1.0] {
        let row = (
            j.index() as u32,
            v.index() as u32,
            vec![(l.index() as u32, phi)],
        );
        let transport = Inject::new(REGIONS, None, forged_rows(AT, vec![row]));
        let mut mesh =
            MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
        let mut clean = MeshRuntime::lossless(ext.clone(), mesh_config(REGIONS)).unwrap();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        for it in 0..40 {
            alg.step();
            clean.step();
            mesh.step();
            assert_mirrors_equal(&clean, &mesh, &format!("φ = {phi}, iteration {it}"));
            for r in 0..REGIONS {
                assert_eq!(
                    alg.routing(),
                    mesh.worker(r).routing(),
                    "φ = {phi}: region {r} routing diverged from the monolithic run at \
                     iteration {it}"
                );
            }
        }
        assert!(
            matches!(
                mesh.incidents(),
                [MeshIncident::MalformedFrameDiscarded {
                    tick,
                    region: 0,
                    ..
                }] if *tick == AT.0
            ),
            "φ = {phi}: expected exactly one discard incident, got {:?}",
            mesh.incidents()
        );
    }
}

/// No marginal travels since wire v4: every marginal a region's Γ reads
/// is one its own sweep writes. A batch as a v3 peer would have sent it
/// — a full-frame marginals sub (kind byte 1: `base`, one `(j, v, d)`
/// entry for one of region 1's routers) and a resend request (kind byte
/// 7) — slipped in ahead of region 1's genuine batch is one
/// `MalformedFrameDiscarded`, refused whole at its first sub; nothing
/// is written, the genuine batch of the same delivery still applies,
/// and every mirror stays bit-equal to the uninjected mesh.
#[test]
fn a_retired_marginal_sub_is_discarded_without_a_write() {
    const REGIONS: usize = 2;
    const ROUND: u64 = 5;
    const AT: (u64, usize) = (TICKS_PER_ITERATION * ROUND, 0);
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let (j, v, _) = a_row_of_region_1(&ext, REGIONS);
    // the v3 layout, kind bytes patched in: a batch of two subs
    let mut frame = gamma_frame(1, 0, 0, ROUND, &[]);
    let at = 29 + 4;
    let mut marginals = vec![1u8];
    marginals.extend_from_slice(&0u64.to_le_bytes()); // seq
    marginals.extend_from_slice(&ROUND.to_le_bytes()); // round
    marginals.extend_from_slice(&28u32.to_le_bytes()); // payload length
    marginals.extend_from_slice(&ROUND.to_le_bytes()); // base
    marginals.extend_from_slice(&1u32.to_le_bytes()); // one entry
    marginals.extend_from_slice(&j.to_le_bytes());
    marginals.extend_from_slice(&v.to_le_bytes());
    marginals.extend_from_slice(&123.456f64.to_bits().to_le_bytes());
    let mut resend = vec![7u8];
    resend.extend_from_slice(&0u64.to_le_bytes());
    resend.extend_from_slice(&ROUND.to_le_bytes());
    resend.extend_from_slice(&0u32.to_le_bytes());
    frame.truncate(at);
    frame.extend_from_slice(&marginals);
    frame.extend_from_slice(&resend);
    let len = (frame.len() - 29) as u32;
    frame[25..29].copy_from_slice(&len.to_le_bytes());
    frame[29..33].copy_from_slice(&2u32.to_le_bytes());
    let transport = Inject::new(REGIONS, None, fixed(AT, frame));
    let mut mesh =
        MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
    let mut clean = MeshRuntime::lossless(ext, mesh_config(REGIONS)).unwrap();
    for it in 0..40 {
        clean.step();
        mesh.step();
        assert_mirrors_equal(&clean, &mesh, &format!("iteration {it}"));
    }
    assert!(
        matches!(
            mesh.incidents(),
            [MeshIncident::MalformedFrameDiscarded {
                tick,
                region: 0,
                error,
            }] if *tick == AT.0 && error.contains("unknown frame kind 1")
        ),
        "expected exactly one discard incident, got {:?}",
        mesh.incidents()
    );
}

/// The reliable ahead-buffer is bounded by the inbox budget. A peer (or
/// a corrupted stream) sending reliable subs with far-future seqs — each
/// held until a gap that never fills — used to grow a link's buffer
/// without limit. Here every delivery to region 0 carries one extra
/// batch of such subs from region 1 (distinct seqs up to `u64::MAX`,
/// 3 KiB a tick, 120 KiB over the run against a 16 KiB budget): the
/// bytes region 0 holds from region 1 never exceed the budget, each
/// refused sub is one `InboxOverflow`, and the mesh keeps stepping with
/// every mirror bit-equal to the uninjected mesh.
#[test]
fn far_future_seqs_cannot_grow_the_ahead_buffer_past_the_budget() {
    const REGIONS: usize = 2;
    const BUDGET: usize = 16 << 10;
    const SUBS: u64 = 6;
    const PAD: usize = 64; // u64 words per sub payload: 512 bytes
    let ext = ExtendedNetwork::build(&problem(20, 3, 9));
    let config = MeshConfig {
        inbox_budget: BUDGET,
        ..mesh_config(REGIONS)
    };
    let flood: Edit = Box::new(|tick, region, frames| {
        if region != 0 {
            return;
        }
        let mut buf = FrameBuf::new();
        buf.begin(1, 0, 0);
        for k in 0..SUBS {
            buf.begin_sub(FrameKind::GammaRows, u64::MAX - tick * SUBS - k, 0);
            for _ in 0..PAD {
                buf.put_u64(0);
            }
            buf.end_sub();
        }
        buf.finish();
        frames.push(buf.bytes().unwrap().to_vec());
    });
    let transport = Inject::new(REGIONS, None, flood);
    let mut mesh = MeshRuntime::with_transport(ext.clone(), config.clone(), transport).unwrap();
    let mut clean = MeshRuntime::lossless(ext, config).unwrap();
    let mut held_max = 0;
    for it in 0..40 {
        clean.step();
        mesh.step();
        let held = mesh.worker(0).held_ahead_bytes(1);
        assert!(held <= BUDGET, "iteration {it}: {held} bytes held ahead");
        held_max = held_max.max(held);
        assert_mirrors_equal(&clean, &mesh, &format!("iteration {it}"));
    }
    let log = mesh.incidents();
    let refused = log
        .iter()
        .filter(|i| {
            matches!(
                i,
                MeshIncident::InboxOverflow {
                    region: 0,
                    from: 1,
                    dropped,
                    ..
                } if *dropped == (PAD * 8) as u64
            )
        })
        .count();
    let offered = (40 * TICKS_PER_ITERATION * SUBS) as usize;
    assert_eq!(refused, log.len(), "only refusals are logged: {log:?}");
    assert_eq!(refused + held_max / (PAD * 8), offered);
    assert!(held_max + PAD * 8 > BUDGET, "the buffer never filled up");
}

/// A recovery snapshot is held to the Γ-row rule before it is installed.
/// Every copy of the genuine snapshot of a partition recovery is
/// rewritten in flight — one router row at mass 2 — until the copy the
/// rejoiner takes up in sequence order has been delivered. Γ preserves
/// a row's mass, so a mirror that installed it would break invariant 1
/// for good. Instead it is one `MalformedFrameDiscarded`, refused
/// without taking its seq, so the survivor's next, untouched retransmit
/// still completes the recovery — and every mirror keeps invariants 1–3
/// after every iteration.
#[test]
fn a_recovery_snapshot_with_a_row_of_mass_two_is_discarded() {
    const REGIONS: usize = 3;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
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
    // commodity 0's first router row, as flat `[j·L + l]` indices
    let j = ext.commodity_ids().next().unwrap();
    let v = ext.commodity_routers(j)[0];
    let edges = ext.graph().edge_count();
    let row: Vec<usize> = ext
        .commodity_out_slice(j, v)
        .iter()
        .map(|l| j.index() * edges + l.index())
        .collect();
    // a model of region 1's in-order intake of each sender's reliable
    // stream: the next seq it takes up, and the seqs it holds ahead of
    // that. Every snapshot copy is rewritten until one is taken up.
    let mut intake: BTreeMap<u16, (u64, BTreeSet<u64>)> = BTreeMap::new();
    let mut snapshot_seq = None;
    let mut done = false;
    let edit: Edit = Box::new(move |_, region, frames| {
        if region != 1 || done {
            return;
        }
        for bytes in frames.iter_mut() {
            let mut frame = Frame::decode(bytes).unwrap();
            let Payload::Batch(subs) = &mut frame.payload else {
                continue;
            };
            let (next, ahead) = intake.entry(frame.from).or_insert((1, BTreeSet::new()));
            let mut rewritten = false;
            for sub in subs
                .iter_mut()
                .filter(|sub| sub.payload.kind().is_reliable())
            {
                if let Payload::RecoveryState(state) = &mut sub.payload {
                    if !done {
                        for &k in &row {
                            state.phi[k] *= 2.0;
                        }
                        (snapshot_seq, rewritten) = (Some(sub.seq), true);
                    }
                }
                if sub.seq > *next {
                    ahead.insert(sub.seq);
                }
                // taken up in order, with whatever it unblocks; the
                // rewritten snapshot is the last copy taken up here
                if sub.seq == *next && !done {
                    loop {
                        done = snapshot_seq == Some(*next);
                        if done {
                            break;
                        }
                        *next += 1;
                        if !ahead.remove(next) {
                            break;
                        }
                    }
                }
            }
            if rewritten {
                *bytes = frame.encode();
            }
        }
    });
    let transport = Inject::new(REGIONS, Some(faults), edit);
    let mut mesh =
        MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
    // 120 ticks: partition at tick 30, healed by ~80
    for it in 0..120 {
        mesh.step();
        assert_invariants(&ext, &mesh, &format!("iteration {it}"));
    }
    let log = mesh.incidents();
    let discards: Vec<usize> = (0..log.len())
        .filter(|&k| matches!(log[k], MeshIncident::MalformedFrameDiscarded { .. }))
        .collect();
    assert!(
        matches!(discards[..], [k] if matches!(log[k], MeshIncident::MalformedFrameDiscarded { region: 1, .. })),
        "expected exactly one discard, by region 1: {log:?}"
    );
    assert!(
        log[discards[0]..]
            .iter()
            .any(|i| matches!(i, MeshIncident::RecoveryCompleted { region: 1, .. })),
        "recovery never completed after the discard: {log:?}"
    );
}

/// The smallest suspect windows hold on a healthy mesh: every peer's
/// batch ships every tick and is heard the next, and suspects are
/// checked after the inbox drain, so a healthy peer is never silent
/// when checked (`suspect_after: 0` is refused at construction).
#[test]
fn the_smallest_suspect_windows_never_flap_a_healthy_mesh() {
    let ext = ExtendedNetwork::build(&problem(40, 3, 1));
    for suspect_after in [1, 2] {
        let config = MeshConfig {
            suspect_after,
            ..mesh_config(4)
        };
        let mut mesh = MeshRuntime::lossless(ext.clone(), config).unwrap();
        mesh.run(200);
        assert!(
            mesh.incidents().is_empty(),
            "suspect_after {suspect_after} flapped a healthy mesh: {:?}",
            mesh.incidents()
        );
    }
}

/// Config validation: the mesh refuses only mesh-shaped settings —
/// more regions than servers, a zero refresh cadence, a zero suspect
/// window and an inbox budget below one frame — plus what
/// `GradientConfig::validate` refuses. Every corner the core accepts
/// builds on all five drivers, and the mesh runs it bit for bit.
#[test]
fn mesh_rejects_unsupported_configs() {
    let p = problem(16, 2, 4);
    let ext = ExtendedNetwork::build(&p);
    let with_config = |config: MeshConfig| MeshRuntime::lossless(ext.clone(), config);
    assert!(matches!(
        with_config(MeshConfig {
            regions: 0,
            ..MeshConfig::default()
        }),
        Err(MeshError::NoRegions)
    ));
    // regions split the servers: one per server at most
    let servers = ext.physical_nodes();
    assert!(matches!(
        with_config(MeshConfig {
            regions: servers + 1,
            ..MeshConfig::default()
        }),
        Err(MeshError::TooManyRegions { regions, servers: s }) if regions == servers + 1 && s == servers
    ));
    assert!(with_config(MeshConfig {
        regions: servers,
        ..MeshConfig::default()
    })
    .is_ok());
    // a zero cadence never re-anchors a delta chain
    assert!(matches!(
        with_config(MeshConfig {
            refresh_every: 0,
            ..MeshConfig::default()
        }),
        Err(MeshError::ZeroRefreshCadence)
    ));
    // a zero suspect window suspects a healthy peer after every tick
    // that brought no frame from it
    assert!(matches!(
        with_config(MeshConfig {
            suspect_after: 0,
            ..MeshConfig::default()
        }),
        Err(MeshError::ZeroSuspectWindow)
    ));
    // a gradient tunable the core refuses comes back wrapped
    let with = |edit: fn(&mut GradientConfig)| {
        let mut c = GradientConfig::default();
        edit(&mut c);
        c
    };
    for (gradient, want) in [
        (
            with(|c| c.wall_threshold = 1.0),
            ConfigError::BadWallThreshold(1.0),
        ),
        (
            with(|c| c.wall_strength = -1.0),
            ConfigError::BadWallStrength(-1.0),
        ),
    ] {
        let config = MeshConfig {
            regions: 2,
            gradient,
            ..MeshConfig::default()
        };
        let got = with_config(config);
        assert!(
            matches!(&got, Err(MeshError::Config(e)) if *e == want),
            "{want:?} accepted or refused otherwise"
        );
    }
    // an inbox budget below one frame would drop all traffic silently
    assert!(matches!(
        with_config(MeshConfig {
            inbox_budget: 512,
            ..MeshConfig::default()
        }),
        Err(MeshError::InboxBudgetTooSmall { budget: 512 })
    ));
    // one config space: no wall, the uncapped shift, Gallager's
    // opening rule and each penalty family
    let mut fine = vec![
        with(|c| c.wall_strength = 0.0),
        with(|c| c.shift_cap = 1.0),
        with(|c| c.opening_fraction = 0.0),
    ];
    for kind in [
        PenaltyKind::Reciprocal,
        PenaltyKind::ScaledReciprocal,
        PenaltyKind::LogBarrier,
    ] {
        let penalty = Penalty::new(kind, 0.98).unwrap();
        fine.push(GradientConfig {
            penalty,
            ..GradientConfig::default()
        });
    }
    for gradient in fine {
        assert_eq!(gradient.validate(), Ok(()));
        let mut alg = GradientAlgorithm::new(&p, gradient).unwrap();
        assert!(
            NewtonGradient::new(&p, gradient, 1e-6).is_ok(),
            "{gradient:?}"
        );
        assert!(GradientSim::new(&p, gradient).is_ok(), "{gradient:?}");
        let chaos = ChaosGradient::new(&p, gradient, &ChaosConfig::off());
        assert!(chaos.is_ok(), "{gradient:?}");
        let config = MeshConfig {
            regions: 2,
            gradient,
            ..MeshConfig::default()
        };
        let mut mesh = with_config(config).unwrap();
        for it in 0..30 {
            alg.step();
            mesh.step();
            assert_eq!(
                alg.utility().to_bits(),
                mesh.utility().to_bits(),
                "iteration {it} diverged under {gradient:?}"
            );
        }
    }
}

/// Offsets `(start, end)` of a well-formed batch's sub-frames: after the
/// 29-byte outer header and the `u32` sub count, each is `kind u8, seq
/// u64, round u64, len u32, payload [u8; len]`.
fn sub_spans(batch: &[u8]) -> Vec<(usize, usize)> {
    let len_at = |at: usize| u32::from_le_bytes(batch[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 33;
    (0..len_at(29))
        .map(|_| {
            let span = (at, at + 21 + len_at(at + 17));
            at = span.1;
            span
        })
        .collect()
}

/// The little-endian integer of `width` bytes at `at`.
fn read_le(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut le = [0u8; 8];
    le[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(le)
}

/// Overwrites the `width`-byte little-endian integer at `at` with the
/// low bytes of `value`.
fn write_le(bytes: &mut [u8], at: usize, width: usize, value: u64) {
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

/// One seeded mutant of the genuine batch `frame`: a bit flip, a
/// truncation at a header boundary, a length or count edit, a sub-frame
/// spliced in from `pool` (every genuine batch of the corpus that holds
/// one), or a `from` / `to` / round / seq edit. `draw(k)` is the
/// mutant's `k`-th uniform draw.
fn mutant(frame: &[u8], pool: &[&Vec<u8>], draw: impl Fn(usize) -> f64) -> Vec<u8> {
    let pick = |k: usize, n: usize| ((draw(k) * n as f64) as usize).min(n - 1);
    let edit = |k: usize, old: u64| match pick(k, 5) {
        0 => old.wrapping_add(1),
        1 => old.wrapping_sub(1),
        2 => 0,
        3 => u64::MAX,
        _ => (draw(k + 1) * f64::from(u32::MAX)) as u64,
    };
    let spans = sub_spans(frame);
    // where header field `offset` sits in one (drawn) sub-frame; in a
    // heartbeat batch with no sub-frame, the same field of the frame's
    // own header (its seq and round sit 8 bytes further in)
    let sub_field = |k: usize, offset: usize| match spans.len() {
        0 => offset + 8,
        n => spans[pick(k, n)].0 + offset,
    };
    let mut out = frame.to_vec();
    // the one header field an edit rewrites, `(offset, width)`
    let field = match pick(0, 9) {
        0 => {
            let bit = pick(1, out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
            return out;
        }
        1 => {
            // outer header fields and sub count, then every sub's
            // kind / seq / round / len and its end
            let mut cuts = vec![2, 4, 5, 7, 9, 17, 25, 29, 33];
            for &(start, end) in &spans {
                cuts.extend([start + 1, start + 9, start + 17, start + 21, end]);
            }
            cuts.retain(|&cut| cut < out.len());
            out.truncate(cuts[pick(1, cuts.len())]);
            return out;
        }
        2 => {
            let lengths: Vec<usize> = std::iter::once(25)
                .chain(spans.iter().map(|&(start, _)| start + 17))
                .collect();
            (lengths[pick(1, lengths.len())], 4)
        }
        3 => {
            // the sub count, or the row count of a Γ payload (`base
            // u64, count u32`)
            let counts: Vec<usize> = std::iter::once(29)
                .chain(
                    spans
                        .iter()
                        .filter(|&&(start, _)| frame[start] == 2)
                        .map(|&(start, _)| start + 21 + 8),
                )
                .collect();
            (counts[pick(1, counts.len())], 4)
        }
        4 => {
            let donor = pool[pick(1, pool.len())];
            let donor_spans = sub_spans(donor);
            let (start, end) = donor_spans[pick(2, donor_spans.len())];
            let at = spans
                .get(pick(3, spans.len() + 1))
                .map_or(out.len(), |&(s, _)| s);
            out.splice(at..at, donor[start..end].iter().copied());
            let (count, len) = (read_le(&out, 29, 4), read_le(&out, 25, 4));
            write_le(&mut out, 29, 4, count + 1);
            write_le(&mut out, 25, 4, len + (end - start) as u64);
            return out;
        }
        5 => (5, 2),
        6 => (7, 2),
        7 if pick(1, 2) == 0 => (17, 8),
        7 => (sub_field(2, 9), 8),
        _ => (sub_field(2, 1), 8),
    };
    let old = read_le(&out, field.0, field.1);
    write_le(&mut out, field.0, field.1, edit(10, old));
    out
}

/// ROADMAP 7b, the receive path under a seeded frame-fuzz corpus. The
/// genuine batches of a 3-region lossless run are the corpus; every
/// episode derives one seeded mutant per delivery from the batches
/// genuinely delivered there, and slips it into a fresh mesh's same
/// delivery ahead of the genuine frames (`Inject`), from mid-run on.
/// Whatever the mutant, no worker panics, every delivery either applies
/// or is refused as one of the three discard incidents, and after
/// every iteration every mirror is a valid, loop-free routing whose
/// flows balance (invariants 1–3).
#[test]
fn a_seeded_frame_fuzz_corpus_never_breaks_a_worker() {
    const REGIONS: usize = 3;
    const ITERATIONS: usize = 60;
    // iterations before the first mutant
    const WARM: u64 = 8;
    const EPISODES: u64 = 14;
    const SEED: u64 = 0x4655_5A5A;
    let p = problem(20, 3, 9);
    let ext = ExtendedNetwork::build(&p);
    let corpus = Rc::new(RefCell::new(BTreeMap::new()));
    let sink = Rc::clone(&corpus);
    let record: Edit = Box::new(move |tick, region, genuine| {
        if !genuine.is_empty() {
            sink.borrow_mut().insert((tick, region), genuine.clone());
        }
    });
    let transport = Inject::new(REGIONS, None, record);
    let mut clean =
        MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
    clean.run(ITERATIONS);
    let corpus: BTreeMap<(u64, usize), Vec<Vec<u8>>> = corpus.take();
    // the splice donors: every genuine batch that holds a sub-frame
    let pool: Vec<&Vec<u8>> = corpus
        .values()
        .flatten()
        .filter(|batch| !sub_spans(batch).is_empty())
        .collect();

    let mut mutants = 0;
    // malformed, duplicate, stale
    let mut seen = [false; 3];
    let mut applied = false;
    for episode in 0..EPISODES {
        let mut schedule: BTreeMap<(u64, usize), Vec<u8>> = corpus
            .range((WARM * TICKS_PER_ITERATION, 0)..)
            .map(|(&(tick, region), genuine)| {
                let draw = |k: usize| unit_hash(SEED ^ episode, tick as usize, region, k);
                let source =
                    &genuine[((draw(99) * genuine.len() as f64) as usize).min(genuine.len() - 1)];
                ((tick, region), mutant(source, &pool, draw))
            })
            .collect();
        mutants += schedule.len();
        let edit: Edit = Box::new(move |tick, region, frames| {
            if let Some(mutant) = schedule.remove(&(tick, region)) {
                frames.insert(0, mutant);
            }
        });
        let transport = Inject::new(REGIONS, None, edit);
        let mut mesh =
            MeshRuntime::with_transport(ext.clone(), mesh_config(REGIONS), transport).unwrap();
        for it in 0..ITERATIONS {
            mesh.step();
            assert_invariants(&ext, &mesh, &format!("episode {episode}, iteration {it}"));
        }
        for incident in mesh.incidents() {
            let kind = match incident {
                MeshIncident::MalformedFrameDiscarded { .. } => 0,
                MeshIncident::DuplicateFrameDiscarded { .. } => 1,
                MeshIncident::StaleFrameDiscarded { .. } => 2,
                other => panic!("episode {episode}: a mutant caused {other:?}"),
            };
            seen[kind] = true;
        }
        applied |= (0..REGIONS).any(|r| mesh.worker(r).routing() != clean.worker(r).routing());
    }
    assert!(mutants >= 2000, "only {mutants} mutants");
    assert_eq!(
        seen, [true; 3],
        "an outcome never occurred (malformed, duplicate, stale)"
    );
    assert!(
        applied,
        "no mutant was ever applied: only the refusal paths were fuzzed"
    );
}
