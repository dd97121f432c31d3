//! One region's share of the mesh: a full state mirror, the sweep
//! phases over it, and the reliability machinery that keeps the mirror
//! honest under a faulty transport.
//!
//! Every worker mirrors the complete `(routing, flows, marginals)`
//! state but *owns* only part of the node space, by a table built once
//! at construction (`owner_table`): the servers split into contiguous
//! server-id ranges, each bandwidth node `n_ik` goes with its tail
//! server `i` and each dummy source `s̄_j` with its source `s_j` — a
//! router lives with the machine that runs it. Γ rows for owned
//! deciders are computed locally and shipped as serialized rows; peer
//! rows arrive over the wire and are merged in. Under a lossless
//! transport each worker's redundant mirror sweeps are bit-identical to
//! every peer's, so the merged trajectory is bit-identical to the
//! monolithic `GradientAlgorithm` (ARCHITECTURE invariant 19).
//!
//! **Only Γ rows travel.** Γ reads a decider's own row, its traffic,
//! the usage totals and the marginals at the heads of its out-arcs.
//! Under the ownership table every such head is owned by the decider's
//! own region — a server's out-arcs end at its own bandwidth nodes, a
//! dummy's at its source and at the sink, whose marginal is
//! structurally `0.0` — so every region sweeps each marginal it reads
//! itself and no marginal crosses the wire. Γ rows travel only for
//! deciders: a pass-through router's row is `[(l, 1.0)]` on every
//! mirror from construction on, so Γ runs over the owned deciders alone
//! ([`stage_gamma_deciders`]) and a received pass-through row is
//! malformed whatever it holds (invariant 24).
//!
//! An iteration is one tick ([`TICKS_PER_ITERATION`]): apply the Γ rows
//! received and the worker's own staged rows, sweep flows, retransmit
//! and check suspects, sweep marginals, run Γ over the owned deciders
//! and ship the rows. Own rows are *staged*, not written, and applied
//! together with the peers' rows of the same round on the next tick, so
//! between ticks every mirror holds the routing its flows and marginals
//! were swept from — after `k` iterations, exactly `GradientAlgorithm`
//! after `k` steps. All mirrors start equal, so every worker computes
//! the first Γ pass over every decider at construction: nothing has to
//! travel before the first tick.
//!
//! The two sweeps walk each commodity's **live arcs** (`φ ≠ 0`)
//! through [`LiveArcSweeps`] — the sparse engine's kernels with
//! every commodity run every iteration — so a region's work scales with
//! commodity membership, not with `J·(V + L)`. The live-arc table is
//! derived from the routing mirror's *support* (which fractions are
//! nonzero), so a write marks its commodity stale — and the next sweep
//! rebuilds it — exactly when it changes which fractions are zero: an
//! applied Γ row, own or a peer's, through a zero-crossing check per
//! fraction, and a recovery restore marks everything. A write that only
//! moves values (most Γ rows) leaves the table as it is.
//! Entries outside a commodity's
//! subgraph are structurally zero and no sweep rewrites them, which is
//! why every index a frame carries is validated against the subgraph
//! and the sender's ownership before anything is written.
//!
//! The send path is **delta-encoded, coalesced, and pooled**
//! (ARCHITECTURE invariant 20): the worker fingerprints the exact bit
//! pattern of every Γ row it last shipped and sends only rows whose
//! bits changed, inside exactly one [`FrameBuf`] batch per (link,
//! tick), with every buffer (batches, flights, scratch) owned by the
//! worker and reused across ticks — the converged steady state sends
//! one empty heartbeat batch per link per iteration and allocates
//! nothing. A periodic full refresh (`refresh_every` rounds) re-anchors
//! every delta chain. Suppression never changes what a receiver ends up
//! holding — only whether the bytes travel: a suppressed row is bitwise
//! what the receiver already has.
//!
//! Reliability, per peer link:
//!
//! * **Reliable stream** (Γ rows, recovery frames): sequence numbers
//!   starting at 1, cumulative acks (one per link per tick), in-order
//!   delivery with an ahead-buffer, and retransmit under capped
//!   exponential backoff. A malformed sub is discarded *unsequenced*:
//!   it does not consume its seq, so a forged or corrupted copy cannot
//!   turn the genuine sub (or its retransmit) into a "duplicate". The
//!   ahead-buffer holds at most the inbox budget in payload bytes per
//!   link; a sub past it is refused unsequenced as one
//!   [`MeshIncident::InboxOverflow`].
//! * **Per-row round guards**: a Γ row is applied only if its round is
//!   newer than the row's last applied round, so late retransmits
//!   flushed after a recovery cannot regress restored state.
//! * **Heartbeats & suspicion**: every tick's batch ships, even empty,
//!   so liveness never depends on data changing; a peer silent for
//!   longer than the suspect window is degraded to suspect — its rows
//!   simply stop updating (last-known Γ) and iteration continues. When
//!   *all* peers are suspect the worker is isolated; the first peer
//!   heard from again triggers the epoch-fenced recovery handshake.

use crate::incident::MeshIncident;
use crate::recovery::{payload_to_snapshot, snapshot_to_payload, state_digest};
use crate::transport::Inbox;
use crate::wire::{
    parse_ack, parse_recovery_request, parse_recovery_state, walk_gamma_rows, BatchReader,
    FrameBuf, FrameKind, Payload, SubView, WireError,
};
use spn_core::flows::compute_flows;
use spn_core::gamma::{stage_gamma_deciders, GammaScratch, GammaStats};
use spn_core::marginals::compute_marginals_into;
use spn_core::routing::FRACTION_TOLERANCE;
use spn_core::{
    Checkpoint, CostModel, FlowState, GradientConfig, LiveArcSweeps, Marginals, RoutingTable,
};
use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::{ExtendedNetwork, NodeKind};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// The region owning each extended node, `owner[v]`, for a mesh of
/// `regions` workers: the `N` servers split into `regions` contiguous
/// server-id ranges, each bandwidth node `n_ik` with its tail server
/// `i`, each dummy source `s̄_j` with its source `s_j`. Every region
/// owns at least one server when `1 <= regions <= N`.
#[must_use]
pub(crate) fn owner_table(ext: &ExtendedNetwork, regions: usize) -> Vec<u16> {
    let servers = ext.physical_nodes();
    debug_assert!(regions >= 1 && regions <= servers && regions <= usize::from(u16::MAX));
    let server_owner = |s: NodeId| (s.index() * regions / servers).min(regions - 1) as u16;
    ext.graph()
        .nodes()
        .map(|v| match ext.node_kind(v) {
            NodeKind::Processing(s) => server_owner(s),
            NodeKind::Bandwidth(_) => {
                // `n_ik`'s one in-edge is the ingress half from `i`
                let ingress = ext.graph().in_edges(v)[0];
                server_owner(ext.graph().source(ingress))
            }
            NodeKind::DummySource(j) => server_owner(ext.commodity(j).source()),
        })
        .collect()
}

/// The mass rule of a routing row of `edges` out-edges in a recovery
/// snapshot: one within `FRACTION_TOLERANCE`, and exactly `1.0` for a
/// pass-through — the only row Γ ever gives it (`f / f`), and the row
/// every mirror holds from construction on (no pass-through row
/// travels on the Γ stream, so nothing else ever writes one).
fn row_mass_ok(edges: usize, sum: f64) -> bool {
    if edges == 1 {
        sum == 1.0
    } else {
        (sum - 1.0).abs() <= FRACTION_TOLERANCE
    }
}

/// Whether every router row of a recovery snapshot's flat `[j·L + l]`
/// routing fractions is non-negative and meets [`row_mass_ok`]. A
/// snapshot of the wrong shape passes: `Checkpoint::apply_state`
/// refuses it.
fn snapshot_rows_ok(ext: &ExtendedNetwork, phi: &[f64]) -> bool {
    let edges = ext.graph().edge_count();
    phi.len() != ext.num_commodities() * edges
        || ext.commodity_ids().all(|j| {
            let row = &phi[j.index() * edges..][..edges];
            ext.commodity_routers(j).iter().all(|&v| {
                let out = ext.commodity_out_slice(j, v);
                let sum: f64 = out.iter().map(|l| row[l.index()]).sum();
                out.iter().all(|l| row[l.index()] >= 0.0) && row_mass_ok(out.len(), sum)
            })
        })
}

/// Transport ticks per iteration: one — rows applied, swept, staged
/// and shipped in a single tick.
pub const TICKS_PER_ITERATION: u64 = 1;

/// Ticks after a send before the first retransmit check may fire: the
/// ack round trip is two ticks, plus slack so a lossless mesh never
/// retransmits.
const RETRY_GRACE: u64 = 4;

/// Fingerprint sentinel meaning "never shipped": `u64::MAX` is a NaN
/// bit pattern, which no finite row value can equal.
const NEVER_SENT: u64 = u64::MAX;

/// [`RegionWorker::router_pos`] entry of a `(j, v)` that is no routing
/// row.
const NOT_A_ROUTER: u32 = u32::MAX;

/// Byte length of a Γ payload's header: `base u64, count u32`.
const GAMMA_HEADER: usize = 12;

/// Per-link wire telemetry, counted at the sender's batch finish and
/// the receiver's inbox drain. Deterministic: two same-seed runs count
/// identical values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkWireStats {
    /// Batch frames shipped on this link.
    pub frames_sent: u64,
    /// Total frame bytes shipped (headers included).
    pub bytes_sent: u64,
    /// Sub-frames shipped inside those batches.
    pub subs_sent: u64,
    /// Rows shipped, of every kind.
    pub rows_sent: u64,
    /// The Γ rows among `rows_sent` (the only row kind since wire v4).
    pub gamma_rows_sent: u64,
    /// Rows whose bits matched the link fingerprint and were *not*
    /// shipped (the delta win).
    pub rows_suppressed: u64,
    /// Batch frames received from this peer.
    pub frames_received: u64,
    /// Frame bytes received from this peer.
    pub bytes_received: u64,
}

/// Wire telemetry aggregated over links (see
/// [`RegionWorker::wire_stats`]) or over a whole mesh
/// (`MeshReport::wire`): the send-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshWireStats {
    /// Batch frames shipped.
    pub frames: u64,
    /// Total frame bytes shipped.
    pub bytes: u64,
    /// Sub-frames shipped.
    pub subs: u64,
    /// Rows shipped, of every kind.
    pub rows_sent: u64,
    /// Γ rows shipped (part of `rows_sent`; all of it since wire v4,
    /// which carries no marginals).
    pub gamma_rows: u64,
    /// Rows suppressed by delta fingerprints.
    pub rows_suppressed: u64,
    /// Always 0: the broadcast chain whose gaps it counted (marginals)
    /// left the wire in v4, and the reliable Γ stream retransmits
    /// instead. Kept only because the frozen `benchmark/` reads it; the
    /// next `[benchmark]` PR removes it.
    pub resyncs: u64,
}

impl MeshWireStats {
    /// Accumulates `other` into `self`.
    pub(crate) fn absorb(&mut self, other: MeshWireStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.subs += other.subs;
        self.rows_sent += other.rows_sent;
        self.gamma_rows += other.gamma_rows;
        self.rows_suppressed += other.rows_suppressed;
        self.resyncs += other.resyncs;
    }
}

/// An unacked reliable sub-frame awaiting retransmission. Its byte
/// buffer is recycled through the link's spare pool on ack.
struct Flight {
    seq: u64,
    /// Encoded sub-frame bytes (sub header + payload).
    bytes: Vec<u8>,
    /// Retransmit attempts so far (0 = never retransmitted).
    attempts: u32,
    /// Tick at which the next retransmit check fires.
    due: u64,
}

/// An out-of-order reliable sub-frame buffered until its gap fills
/// (chaos-only; the copy is the one allocating receive path). The
/// payloads a link holds are capped at the inbox byte budget.
struct AheadSub {
    kind: FrameKind,
    round: u64,
    payload: Vec<u8>,
}

/// Per-peer link state: the reliable stream in both directions (every
/// peer gets the same Γ rows, so their delta fingerprints are the
/// worker's, not the link's).
struct Link {
    /// Next sequence number to assign (reliable sends; starts at 1).
    next_seq: u64,
    /// Sent-but-unacked reliable sub-frames, in seq order.
    in_flight: VecDeque<Flight>,
    /// Recycled flight buffers (capacity retained).
    spare: Vec<Vec<u8>>,
    /// Next reliable seq expected from the peer.
    recv_next: u64,
    /// Out-of-order reliable sub-frames buffered until the gap fills.
    ahead: BTreeMap<u64, AheadSub>,
    /// Payload bytes held in `ahead` (at most the inbox budget).
    ahead_bytes: usize,
    /// A reliable sub arrived this tick; emit one cumulative ack.
    ack_pending: bool,
    stats: LinkWireStats,
}

impl Link {
    fn new() -> Self {
        Link {
            next_seq: 1,
            in_flight: VecDeque::new(),
            spare: Vec::new(),
            recv_next: 1,
            ahead: BTreeMap::new(),
            ahead_bytes: 0,
            ack_pending: false,
            stats: LinkWireStats::default(),
        }
    }
}

/// Appends one Γ row — `j, v, edge count`, then `(edge, φ bits)` per
/// out-edge, the wire's row layout — to a Γ payload.
fn put_gamma_row(rows: &mut Vec<u8>, j: CommodityId, v: NodeId, row: &[(EdgeId, f64)]) {
    for word in [j.index(), v.index(), row.len()] {
        rows.extend_from_slice(&(word as u32).to_le_bytes());
    }
    for &(l, phi) in row {
        rows.extend_from_slice(&(l.index() as u32).to_le_bytes());
        rows.extend_from_slice(&phi.to_bits().to_le_bytes());
    }
}

/// Writes the rows of a well-formed Γ payload that `keep(j, v, edges)`
/// accepts into `routing`, stale-marking a commodity's live arcs where
/// a fraction crosses zero (the live arcs are the nonzero fractions:
/// only a zero crossing puts them out of date).
fn write_gamma_rows(
    routing: &mut RoutingTable,
    sweeps: &mut LiveArcSweeps,
    payload: &[u8],
    keep: impl FnMut(u32, u32, usize) -> bool,
) {
    walk_gamma_rows(payload, keep, |j, _v, l, phi| {
        let (j, l) = (
            CommodityId::from_index(j as usize),
            EdgeId::from_index(l as usize),
        );
        if (routing.fraction(j, l) != 0.0) != (phi != 0.0) {
            sweeps.mark_stale(j);
        }
        routing.set_fraction(j, l, phi);
    })
    .expect("a Γ payload is walked cleanly before it is written");
}

/// One region worker: full mirror, owned nodes, link states.
pub struct RegionWorker {
    region: usize,
    regions: usize,
    v_count: usize,
    edge_count: usize,
    /// The region owning each node ([`owner_table`]).
    owner: Vec<u16>,
    /// The owned deciders as `(commodity, member position, router
    /// index)`, commodity-major in router order — the rows Γ computes
    /// and the Γ stream ships.
    owned: Vec<(u32, u32, u32)>,
    /// Owned routers, deciders and pass-throughs alike: the `rows` of
    /// this region's Γ statistics.
    owned_routers: usize,
    /// Member position of every routing row, `router_pos[j·V + v]`
    /// ([`NOT_A_ROUTER`] elsewhere): wire frames address rows by node
    /// id, so a received row resolves here, like its `row_round` guard,
    /// by one index.
    router_pos: Vec<u32>,
    /// Full-refresh cadence in rounds (re-anchors every delta chain).
    refresh_every: u64,
    /// Mirror of the full trajectory state.
    routing: RoutingTable,
    state: FlowState,
    marginals: Marginals,
    /// The live-arc sweeps over the mirror; stale-marked by every
    /// routing write that moves a fraction across zero.
    sweeps: LiveArcSweeps,
    /// Iterations completed (advances after the flow sweep).
    round: u64,
    /// Commodity-set epoch (the checkpoint fence; constant here — the
    /// mesh does not reshape commodities mid-run).
    epoch: u64,
    /// `ε` and `η` as constructed (both constant over a mesh run, so
    /// these are the values every snapshot carries).
    epsilon: f64,
    eta: f64,
    /// Γ statistics of the staged own rows, and of the rows the last
    /// tick applied.
    staged_gamma: GammaStats,
    applied_gamma: GammaStats,
    /// Per-peer link state (`links[region]` is unused).
    links: Vec<Link>,
    /// Bit fingerprint of the last Γ fraction shipped per (j, edge).
    /// One slab serves every link: Γ has no per-link resend, every link
    /// is visited every round, and a recovery resets all links alike.
    gamma_sent: Vec<u64>,
    /// Round of the last Γ frame shipped (the next delta's `base`).
    gamma_round: u64,
    /// The staged own rows as a Γ payload (`base, count, rows`): shipped
    /// to every peer by the tick that staged them and applied by the
    /// next one; empty once applied. The rows of the construction-time
    /// first pass cover every decider and never travel.
    gamma_rows: Vec<u8>,
    /// One batch writer per peer, reused across ticks
    /// (`outbox[region]` is unused).
    outbox: Vec<FrameBuf>,
    /// Per-(commodity, node) round guard: next acceptable row round.
    row_round: Vec<u64>,
    /// Last tick any frame arrived from each peer.
    last_heard: Vec<u64>,
    suspect: Vec<bool>,
    /// Outstanding recovery token, if this worker is rejoining.
    recovering: Option<u64>,
    /// Γ row-staging buffers, reused across ticks (the per-tick Γ phase
    /// must not allocate once warm).
    gamma_scratch: GammaScratch,
    /// Snapshot scratch, reused across captures.
    scratch: Checkpoint,
}

impl RegionWorker {
    /// Builds worker `region` of `regions` with the same initial mirror
    /// as `GradientAlgorithm::from_extended` — fully-rejecting routing,
    /// its flows and its marginals — and the first Γ pass over every
    /// decider staged (the pass every mirror computes alike, so none of
    /// it travels). `owner` is the mesh's [`owner_table`].
    #[must_use]
    pub(crate) fn new(
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
        owner: &[u16],
        region: usize,
        regions: usize,
        refresh_every: u64,
    ) -> Self {
        let v_count = ext.graph().node_count();
        let edge_count = ext.graph().edge_count();
        let j_count = ext.num_commodities();
        let routing = RoutingTable::initial(ext);
        let state = compute_flows(ext, &routing);
        let mut marginals = Marginals::zeros(ext);
        compute_marginals_into(ext, cost, &routing, &state, &mut marginals, None);
        let mut router_pos = vec![NOT_A_ROUTER; j_count * v_count];
        let (mut owned, mut others) = (Vec::new(), Vec::new());
        let mut owned_routers = 0;
        for j in ext.commodity_ids() {
            let members = ext.members(j);
            for (v, &p) in ext.commodity_routers(j).iter().zip(members.routers()) {
                router_pos[j.index() * v_count + v.index()] = p;
                owned_routers += usize::from(usize::from(owner[v.index()]) == region);
            }
            for &(p, r) in members.deciders() {
                let mine = usize::from(owner[members.node(p as usize).index()]) == region;
                let list = if mine { &mut owned } else { &mut others };
                list.push((j.index() as u32, p, r));
            }
        }
        let mut worker = RegionWorker {
            region,
            regions,
            v_count,
            edge_count,
            owner: owner.to_vec(),
            owned,
            owned_routers,
            router_pos,
            refresh_every: refresh_every.max(1),
            routing,
            state,
            marginals,
            sweeps: LiveArcSweeps::new(ext),
            round: 0,
            epoch: 0,
            epsilon: cost.epsilon,
            eta: gradient.eta,
            staged_gamma: GammaStats::default(),
            applied_gamma: GammaStats::default(),
            links: (0..regions).map(|_| Link::new()).collect(),
            gamma_sent: vec![NEVER_SENT; j_count * edge_count],
            gamma_round: 0,
            gamma_rows: Vec::new(),
            outbox: (0..regions).map(|_| FrameBuf::new()).collect(),
            row_round: vec![0; j_count * v_count],
            last_heard: vec![0; regions],
            suspect: vec![false; regions],
            recovering: None,
            gamma_scratch: GammaScratch::default(),
            scratch: Checkpoint::new(),
        };
        // the first pass: the owned rows fingerprinted as if shipped
        // (every peer computes them too), then every other decider's,
        // statistics dropped — they are the owner's to report (their
        // fingerprints are never read: only owned rows ship)
        worker.gamma_rows.resize(GAMMA_HEADER, 0);
        let (stats, mine) = worker.stage_gamma(ext, cost, gradient, true);
        let owned = std::mem::replace(&mut worker.owned, others);
        let (_, theirs) = worker.stage_gamma(ext, cost, gradient, true);
        worker.owned = owned;
        worker.staged_gamma = stats;
        worker.gamma_rows[8..GAMMA_HEADER].copy_from_slice(&(mine + theirs).to_le_bytes());
        worker
    }

    /// The region that owns node `v`.
    #[must_use]
    pub fn owner(&self, v: NodeId) -> usize {
        usize::from(self.owner[v.index()])
    }

    /// The mirror's routing table.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The mirror's flow state.
    #[must_use]
    pub fn flows(&self) -> &FlowState {
        &self.state
    }

    /// The mirror's marginal costs.
    #[must_use]
    pub fn marginals(&self) -> &Marginals {
        &self.marginals
    }

    /// Γ statistics of the own rows the last tick applied (the owned
    /// routers' share of that iteration's Γ).
    #[must_use]
    pub(crate) fn gamma_stats(&self) -> GammaStats {
        self.applied_gamma
    }

    /// Admitted rate of commodity `j` under this worker's mirror.
    #[must_use]
    pub fn admitted(&self, ext: &ExtendedNetwork, j: CommodityId) -> f64 {
        self.state.admitted(ext, j)
    }

    /// Are *all* peers suspect (the recovery-trigger condition)?
    #[must_use]
    pub(crate) fn is_isolated(&self) -> bool {
        self.regions > 1
            && (0..self.regions)
                .filter(|&p| p != self.region)
                .all(|p| self.suspect[p])
    }

    /// Payload bytes of out-of-order reliable sub-frames held from
    /// `peer`, waiting for their gap to fill (at most the inbox budget).
    #[must_use]
    pub fn held_ahead_bytes(&self, peer: usize) -> usize {
        self.links[peer].ahead_bytes
    }

    /// Wire telemetry for the link to `peer` (zeros for `peer ==
    /// region()`).
    #[must_use]
    pub fn link_wire_stats(&self, peer: usize) -> LinkWireStats {
        self.links[peer].stats
    }

    /// Send-side wire telemetry summed over this worker's links.
    #[must_use]
    pub fn wire_stats(&self) -> MeshWireStats {
        let mut total = MeshWireStats::default();
        for link in &self.links {
            total.absorb(MeshWireStats {
                frames: link.stats.frames_sent,
                bytes: link.stats.bytes_sent,
                subs: link.stats.subs_sent,
                rows_sent: link.stats.rows_sent,
                gamma_rows: link.stats.gamma_rows_sent,
                rows_suppressed: link.stats.rows_suppressed,
                resyncs: 0,
            });
        }
        total
    }

    /// The batch this tick produced for `peer` (`None` for `peer ==
    /// region`). Valid after the worker's tick until its next one.
    #[must_use]
    pub fn outgoing(&self, peer: usize) -> Option<&[u8]> {
        self.outbox[peer].bytes()
    }

    fn capture_scratch(&mut self) {
        self.scratch.capture_state(
            &self.routing,
            &self.state,
            &self.marginals,
            self.round as usize,
            self.epsilon,
            self.eta,
            self.epoch,
        );
    }

    /// Appends a reliable control sub-frame (recovery handshake) to
    /// `to`'s batch and enrolls it in the retransmit stream.
    fn send_reliable_control(&mut self, tick: u64, to: usize, payload: &Payload) {
        let round = self.round;
        let link = &mut self.links[to];
        let batch = &mut self.outbox[to];
        let seq = link.next_seq;
        link.next_seq += 1;
        batch.begin_sub(payload.kind(), seq, round);
        batch.put_payload(payload);
        batch.end_sub();
        let mut bytes = link.spare.pop().unwrap_or_default();
        bytes.clear();
        bytes.extend_from_slice(batch.last_sub());
        link.in_flight.push_back(Flight {
            seq,
            bytes,
            attempts: 0,
            due: tick + RETRY_GRACE,
        });
    }

    /// Drives one transport tick — one iteration: opens this tick's
    /// per-link batches (every one a heartbeat, shipped even empty),
    /// drains the inbox (peers' Γ rows, acks, recovery frames), applies
    /// the staged own rows, sweeps flows, retransmits and checks
    /// suspects, advances the round, sweeps marginals, and stages and
    /// ships the owned deciders' next Γ rows. The runtime then ships
    /// each batch via [`RegionWorker::outgoing`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_phase(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
        suspect_after: u64,
        backoff_cap: u64,
        tick: u64,
        inbox: &Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        let (region, round) = (self.region as u16, self.round);
        for peer in 0..self.regions {
            if peer != self.region {
                self.outbox[peer].begin(region, peer as u16, round);
            }
        }
        self.process_inbox(ext, tick, inbox, log);
        self.flush_acks();
        self.apply_staged();
        self.sweeps.flows_into(ext, &self.routing, &mut self.state);
        #[cfg(test)]
        self.assert_flows_match_dense(ext);
        self.retransmit(tick, backoff_cap, log);
        self.check_suspects(tick, suspect_after, log);
        self.round += 1;
        self.sweeps
            .marginals_into(ext, cost, &self.routing, &self.state, &mut self.marginals);
        #[cfg(test)]
        self.assert_marginals_match_dense(ext, cost);
        self.phase_gamma(ext, cost, gradient, tick);
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let batch = &mut self.outbox[peer];
            batch.finish();
            let s = &mut self.links[peer].stats;
            s.frames_sent += 1;
            s.bytes_sent += batch.frame_len() as u64;
            s.subs_sent += u64::from(batch.sub_count());
        }
    }

    /// One cumulative ack per link whose inbox drain took up a reliable
    /// sub.
    fn flush_acks(&mut self) {
        let round = self.round;
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let link = &mut self.links[peer];
            if link.ack_pending {
                link.ack_pending = false;
                let batch = &mut self.outbox[peer];
                batch.begin_sub(FrameKind::Ack, 0, round);
                batch.put_u64(link.recv_next - 1);
                batch.end_sub();
            }
        }
    }

    /// Writes the staged own rows into the mirror — the rows of the
    /// same round as the peers' rows the inbox drain just applied — and
    /// makes their statistics the tick's.
    fn apply_staged(&mut self) {
        self.applied_gamma = self.staged_gamma;
        if !self.gamma_rows.is_empty() {
            write_gamma_rows(
                &mut self.routing,
                &mut self.sweeps,
                &self.gamma_rows,
                |_, _, _| true,
            );
            self.gamma_rows.clear();
        }
    }

    /// Γ over the listed deciders (`self.owned`) against the mirror,
    /// nothing written: each row whose bits differ from its last
    /// shipped fingerprint — every row when `full` — is fingerprinted
    /// and appended to the staged payload. Returns the pass's
    /// statistics, `rows` counting every owned router, and the number
    /// of rows appended.
    fn stage_gamma(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
        full: bool,
    ) -> (GammaStats, u32) {
        let edge_count = self.edge_count;
        let (sent, staged) = (&mut self.gamma_sent, &mut self.gamma_rows);
        let mut rows = 0u32;
        let mut stats = stage_gamma_deciders(
            ext,
            cost,
            &mut self.routing,
            &self.state,
            &self.marginals,
            gradient.eta,
            gradient.traffic_floor,
            gradient.opening_fraction,
            gradient.shift_cap,
            &self.owned,
            &mut self.gamma_scratch,
            |j, p, row| {
                let sent = &mut sent[j.index() * edge_count..][..edge_count];
                if full || row.iter().any(|&(l, phi)| sent[l.index()] != phi.to_bits()) {
                    for &(l, phi) in row {
                        sent[l.index()] = phi.to_bits();
                    }
                    put_gamma_row(staged, j, ext.members(j).node(p), row);
                    rows += 1;
                }
            },
        );
        stats.rows = self.owned_routers;
        (stats, rows)
    }

    /// End of the tick: Γ over the owned deciders, staged; the owned
    /// rows whose fraction bits changed since last shipped (every owned
    /// row on a refresh round — the backstop that bounds post-recovery
    /// divergence) go to every peer on the reliable stream. The rows
    /// are found and encoded once; each peer's sub gets its own seq and
    /// flight copy. Pass-through rows are `[(l, 1.0)]` on every mirror
    /// and never travel.
    fn phase_gamma(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
        tick: u64,
    ) {
        let round = self.round;
        let refresh = round.is_multiple_of(self.refresh_every);
        let base = if refresh { round } else { self.gamma_round };
        self.gamma_rows.clear();
        self.gamma_rows.extend_from_slice(&base.to_le_bytes());
        self.gamma_rows.extend_from_slice(&0u32.to_le_bytes());
        let (stats, n) = self.stage_gamma(ext, cost, gradient, refresh);
        self.staged_gamma = stats;
        self.gamma_rows[8..GAMMA_HEADER].copy_from_slice(&n.to_le_bytes());
        let suppressed = (self.owned.len() as u64).saturating_sub(u64::from(n));
        if n > 0 {
            self.gamma_round = round;
        }
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let link = &mut self.links[peer];
            link.stats.rows_suppressed += suppressed;
            if n == 0 {
                continue;
            }
            let batch = &mut self.outbox[peer];
            let seq = link.next_seq;
            link.next_seq += 1;
            batch.begin_sub(FrameKind::GammaRows, seq, round);
            batch.put_bytes(&self.gamma_rows);
            batch.end_sub();
            link.stats.rows_sent += u64::from(n);
            link.stats.gamma_rows_sent += u64::from(n);
            // pooled flight copy for the retransmit stream
            let mut bytes = link.spare.pop().unwrap_or_default();
            bytes.clear();
            bytes.extend_from_slice(batch.last_sub());
            link.in_flight.push_back(Flight {
                seq,
                bytes,
                attempts: 0,
                due: tick + RETRY_GRACE,
            });
        }
    }

    /// The discard incident for a frame or sub-frame this worker
    /// refuses to apply.
    fn malformed(&self, tick: u64, error: impl std::fmt::Display) -> MeshIncident {
        MeshIncident::MalformedFrameDiscarded {
            tick,
            region: self.region,
            error: error.to_string(),
        }
    }

    /// A control payload's parse result, or `None` after logging the
    /// discard.
    fn parsed<T>(
        &self,
        tick: u64,
        parsed: Result<T, WireError>,
        log: &mut Vec<MeshIncident>,
    ) -> Option<T> {
        parsed.map_err(|e| log.push(self.malformed(tick, e))).ok()
    }

    /// Member position of wire pair `(j, v)` if it is a routing row of
    /// region `from` — `v` a router of commodity `j` that `from` owns.
    /// Anything else would write outside the subgraph the live-arc
    /// sweeps maintain (or outside the buffers altogether).
    fn router_of(&self, ext: &ExtendedNetwork, from: usize, j: u32, v: u32) -> Option<usize> {
        let (ji, vi) = (j as usize, v as usize);
        if ji >= ext.num_commodities() || self.owner.get(vi).map(|&o| usize::from(o)) != Some(from)
        {
            return None;
        }
        let p = self.router_pos[ji * self.v_count + vi];
        (p != NOT_A_ROUTER).then_some(p as usize)
    }

    /// Verdict of a validation walk over a Γ payload of `round`: it must
    /// have decoded, every index must have checked out (`valid`), and
    /// its `base` must name a predecessor round. Logs the discard and
    /// answers `false` otherwise.
    fn accepted(
        &self,
        tick: u64,
        round: u64,
        walked: Result<u64, WireError>,
        valid: bool,
        log: &mut Vec<MeshIncident>,
    ) -> bool {
        match walked {
            Ok(base) if valid && base <= round => return true,
            Ok(_) => log.push(self.malformed(tick, "row index or base round out of range")),
            Err(e) => log.push(self.malformed(tick, e)),
        }
        false
    }

    fn process_inbox(
        &mut self,
        ext: &ExtendedNetwork,
        tick: u64,
        inbox: &Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        for bytes in inbox.iter() {
            // frames normally originate from sibling workers, but over a
            // real socket a desync or corruption must not take the node
            // down: discard the frame, log the incident, keep iterating
            // (the reliable layer retransmits, deltas re-anchor via the
            // periodic refresh)
            let mut reader = match BatchReader::parse(bytes) {
                Ok(reader) => reader,
                Err(e) => {
                    log.push(self.malformed(tick, e));
                    continue;
                }
            };
            let from = reader.from() as usize;
            if from >= self.regions || from == self.region {
                log.push(self.malformed(tick, format_args!("frame from region {from}")));
                continue;
            }
            let to = reader.to() as usize;
            if to != self.region {
                log.push(self.malformed(tick, format_args!("frame addressed to region {to}")));
                continue;
            }
            {
                let s = &mut self.links[from].stats;
                s.frames_received += 1;
                s.bytes_received += bytes.len() as u64;
            }
            self.note_heard(tick, from, log);
            while let Some(sub) = reader.next_sub() {
                let sub = match sub {
                    Ok(sub) => sub,
                    Err(e) => {
                        log.push(self.malformed(tick, e));
                        break;
                    }
                };
                if sub.round == u64::MAX {
                    // every guard stores `round + 1`
                    log.push(self.malformed(tick, "sub-frame round out of range"));
                } else if sub.kind.is_reliable() {
                    self.receive_reliable(ext, tick, from, &sub, inbox.budget(), log);
                } else if let Some(cum) = self.parsed(tick, parse_ack(sub.payload), log) {
                    // an ack, the one unreliable kind
                    let link = &mut self.links[from];
                    while matches!(link.in_flight.front(), Some(f) if f.seq <= cum) {
                        let flight = link.in_flight.pop_front().expect("front checked");
                        link.spare.push(flight.bytes);
                    }
                }
            }
        }
    }

    /// Any frame from a peer proves liveness; hearing from the first
    /// peer after total isolation starts the recovery handshake.
    fn note_heard(&mut self, tick: u64, from: usize, log: &mut Vec<MeshIncident>) {
        self.last_heard[from] = tick;
        if !self.suspect[from] {
            return;
        }
        let was_isolated = self.is_isolated();
        self.suspect[from] = false;
        log.push(MeshIncident::PeerRecovered {
            tick,
            region: self.region,
            peer: from,
        });
        if was_isolated && self.recovering.is_none() {
            let token = tick * self.regions as u64 + self.region as u64;
            self.recovering = Some(token);
            log.push(MeshIncident::RecoveryRequested {
                tick,
                region: self.region,
                survivor: from,
                token,
            });
            self.send_reliable_control(tick, from, &Payload::RecoveryRequest { token });
        }
    }

    /// Takes up one reliable sub-frame: applies it in order (then
    /// whatever it unblocks), drops a duplicate, or holds it ahead until
    /// its gap fills — while the link's held payloads stay within
    /// `budget` bytes (the inbox budget). A sub past that is refused
    /// unsequenced, as one [`MeshIncident::InboxOverflow`]: a corrupted
    /// or hostile far-future `seq` cannot grow memory without bound, and
    /// the genuine sub still arrives by retransmit.
    #[allow(clippy::too_many_arguments)]
    fn receive_reliable(
        &mut self,
        ext: &ExtendedNetwork,
        tick: u64,
        from: usize,
        sub: &SubView<'_>,
        budget: usize,
        log: &mut Vec<MeshIncident>,
    ) {
        let link = &mut self.links[from];
        link.ack_pending = true;
        if sub.seq < link.recv_next {
            log.push(MeshIncident::DuplicateFrameDiscarded {
                tick,
                region: self.region,
                from,
                kind: sub.kind,
            });
        } else if sub.seq == link.recv_next {
            // a malformed sub is refused unsequenced: it does not take
            // its seq from the genuine one (or the sender's retransmit)
            if !self.apply_reliable(ext, tick, from, sub.kind, sub.round, sub.payload, log) {
                return;
            }
            self.links[from].recv_next += 1;
            loop {
                let link = &mut self.links[from];
                let next_seq = link.recv_next;
                let Some(next) = link.ahead.remove(&next_seq) else {
                    break;
                };
                link.ahead_bytes -= next.payload.len();
                if !self.apply_reliable(ext, tick, from, next.kind, next.round, &next.payload, log)
                {
                    break;
                }
                self.links[from].recv_next += 1;
            }
        } else if link.ahead.contains_key(&sub.seq) {
            log.push(MeshIncident::DuplicateFrameDiscarded {
                tick,
                region: self.region,
                from,
                kind: sub.kind,
            });
        } else if link.ahead_bytes + sub.payload.len() > budget {
            log.push(MeshIncident::InboxOverflow {
                tick,
                region: self.region,
                from,
                dropped: sub.payload.len() as u64,
            });
        } else {
            link.ahead_bytes += sub.payload.len();
            let held = AheadSub {
                kind: sub.kind,
                round: sub.round,
                payload: sub.payload.to_vec(),
            };
            link.ahead.insert(sub.seq, held);
        }
    }

    /// Applies one in-order reliable sub-frame; `false` when it is
    /// malformed (logged, nothing written, and its seq left unconsumed).
    #[allow(clippy::too_many_arguments)]
    fn apply_reliable(
        &mut self,
        ext: &ExtendedNetwork,
        tick: u64,
        from: usize,
        kind: FrameKind,
        round: u64,
        payload: &[u8],
        log: &mut Vec<MeshIncident>,
    ) -> bool {
        match kind {
            FrameKind::GammaRows => {
                // validation pass, no writes: every row must be one of
                // `from`'s deciders — a pass-through row never travels,
                // whatever it holds — and must be the *whole* row as the
                // sender ships it: every out-edge once, in
                // `commodity_out_slice` order, non-negative fractions
                // meeting `row_mass_ok` (edges of a refused row are not
                // looked at). Anything else would break the φ-simplex
                // in the mirror until the next refresh.
                let (mut rows_ok, mut edges_ok) = (true, true);
                // the accepted row being walked: its out-edges, the
                // position in it and the mass so far
                let out = Cell::new(&[][..]);
                let (mut k, mut sum) = (0usize, 0.0f64);
                let walked = walk_gamma_rows(
                    payload,
                    |j, v, e| {
                        let ok = self.router_of(ext, from, j, v).is_some_and(|p| {
                            let j = CommodityId::from_index(j as usize);
                            out.set(ext.members(j).out_arcs(p).0);
                            out.get().len() == e && e >= 2
                        });
                        rows_ok &= ok;
                        ok
                    },
                    |_, _, l, phi| {
                        let out = out.get();
                        edges_ok &= phi >= 0.0 && out[k].index() == l as usize;
                        sum += phi;
                        k += 1;
                        if k == out.len() {
                            edges_ok &= row_mass_ok(k, sum);
                            (k, sum) = (0, 0.0);
                        }
                    },
                );
                if !self.accepted(tick, round, walked, rows_ok && edges_ok, log) {
                    return false;
                }
                let v_count = self.v_count;
                let row_round = &mut self.row_round;
                let mut stale = 0u64;
                write_gamma_rows(&mut self.routing, &mut self.sweeps, payload, |j, v, _| {
                    let idx = j as usize * v_count + v as usize;
                    // per-row guard: only strictly newer rounds apply
                    if round + 1 > row_round[idx] {
                        row_round[idx] = round + 1;
                        true
                    } else {
                        stale += 1;
                        false
                    }
                });
                for _ in 0..stale {
                    log.push(MeshIncident::StaleFrameDiscarded {
                        tick,
                        region: self.region,
                        from,
                        kind: FrameKind::GammaRows,
                        round,
                    });
                }
            }
            FrameKind::RecoveryRequest => {
                let Some(token) = self.parsed(tick, parse_recovery_request(payload), log) else {
                    return false;
                };
                self.capture_scratch();
                let digest = state_digest(self.scratch.phi());
                let snapshot = snapshot_to_payload(&self.scratch, token);
                log.push(MeshIncident::RecoveryServed {
                    tick,
                    region: self.region,
                    peer: from,
                    token,
                    digest,
                });
                self.send_reliable_control(tick, from, &Payload::RecoveryState(Box::new(snapshot)));
            }
            FrameKind::RecoveryState => {
                let Some(payload) = self.parsed(tick, parse_recovery_state(payload), log) else {
                    return false;
                };
                // Γ preserves a row's mass: a row off the simplex would
                // stay off it in the restored mirror for good
                if !snapshot_rows_ok(ext, &payload.phi) {
                    log.push(self.malformed(tick, "recovery snapshot row off the φ-simplex"));
                    return false;
                }
                if self.recovering != Some(payload.token) {
                    log.push(MeshIncident::StaleFrameDiscarded {
                        tick,
                        region: self.region,
                        from,
                        kind: FrameKind::RecoveryState,
                        round,
                    });
                    return true;
                }
                let snapshot = payload_to_snapshot(&payload);
                match snapshot.apply_state(
                    &mut self.routing,
                    &mut self.state,
                    &mut self.marginals,
                    self.epoch,
                ) {
                    Ok(_) => {
                        // fence out every in-flight row at or before the
                        // snapshot round; strictly newer rounds re-apply
                        self.row_round.fill(round + 1);
                        self.recovering = None;
                        self.sweeps.mark_all_stale();
                        // the staged own rows were computed from the
                        // mirror just replaced, and the restored one
                        // invalidates every delta chain this worker
                        // maintains as a *sender*: drop them, and ship
                        // every owned row next time
                        self.gamma_rows.clear();
                        self.staged_gamma = GammaStats::default();
                        self.gamma_sent.fill(NEVER_SENT);
                        self.capture_scratch();
                        let digest = state_digest(self.scratch.phi());
                        log.push(MeshIncident::RecoveryCompleted {
                            tick,
                            region: self.region,
                            epoch: snapshot.epoch(),
                            digest,
                        });
                    }
                    Err(_) => log.push(MeshIncident::StaleFrameDiscarded {
                        tick,
                        region: self.region,
                        from,
                        kind: FrameKind::RecoveryState,
                        round,
                    }),
                }
            }
            _ => unreachable!("unreliable payload on the reliable path"),
        }
        true
    }

    /// Retransmits overdue unacked reliable sub-frames under capped
    /// exponential backoff, into this tick's batches.
    fn retransmit(&mut self, tick: u64, backoff_cap: u64, log: &mut Vec<MeshIncident>) {
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let link = &mut self.links[peer];
            let batch = &mut self.outbox[peer];
            for flight in &mut link.in_flight {
                if flight.due > tick {
                    continue;
                }
                flight.attempts += 1;
                let backoff = 1u64
                    .checked_shl(flight.attempts)
                    .unwrap_or(backoff_cap)
                    .min(backoff_cap);
                flight.due = tick + RETRY_GRACE + backoff;
                log.push(MeshIncident::Retransmitted {
                    tick,
                    from: self.region,
                    to: peer,
                    seq: flight.seq,
                    attempt: flight.attempts,
                });
                batch.push_raw_sub(&flight.bytes);
            }
        }
    }

    /// Degrades peers silent beyond the suspect window; iteration
    /// continues on their last-known Γ rows rather than stalling.
    fn check_suspects(&mut self, tick: u64, suspect_after: u64, log: &mut Vec<MeshIncident>) {
        for peer in 0..self.regions {
            if peer == self.region || self.suspect[peer] {
                continue;
            }
            if tick.saturating_sub(self.last_heard[peer]) > suspect_after {
                self.suspect[peer] = true;
                log.push(MeshIncident::PeerSuspect {
                    tick,
                    region: self.region,
                    peer,
                });
            }
        }
    }
}

/// The mirror oracle: in this crate's unit tests every sweep phase of
/// every worker re-derives its output with the dense full-mirror
/// functions and compares every node and edge entry bit for bit, the structural
/// zeros outside a commodity's subgraph included — so any mesh unit
/// test, fault-free or faulty, also pins the live-arc sweeps to the dense
/// reference.
#[cfg(test)]
impl RegionWorker {
    fn assert_marginals_match_dense(&self, ext: &ExtendedNetwork, cost: &CostModel) {
        let mut dense = Marginals::zeros(ext);
        compute_marginals_into(ext, cost, &self.routing, &self.state, &mut dense, None);
        for j in ext.commodity_ids() {
            for v in ext.graph().nodes() {
                assert_eq!(
                    dense.node(ext, j, v).to_bits(),
                    self.marginals.node(ext, j, v).to_bits(),
                    "region {} round {}: marginal ({j}, {v}) left the dense reference",
                    self.region,
                    self.round
                );
            }
        }
    }

    fn assert_flows_match_dense(&self, ext: &ExtendedNetwork) {
        let dense = compute_flows(ext, &self.routing);
        let ctx = format!("region {} round {}", self.region, self.round);
        for j in ext.commodity_ids() {
            for v in ext.graph().nodes() {
                assert_eq!(
                    dense.traffic(ext, j, v).to_bits(),
                    self.state.traffic(ext, j, v).to_bits(),
                    "{ctx}: traffic ({j}, {v}) left the dense reference"
                );
            }
            for l in ext.graph().edges() {
                assert_eq!(
                    dense.edge_flow(j, l).to_bits(),
                    self.state.edge_flow(j, l).to_bits(),
                    "{ctx}: edge flow ({j}, {l}) left the dense reference"
                );
            }
        }
        for l in ext.graph().edges() {
            assert_eq!(
                dense.edge_usage(l).to_bits(),
                self.state.edge_usage(l).to_bits(),
                "{ctx}: usage of edge {l} left the dense reference"
            );
        }
        for v in ext.graph().nodes() {
            assert_eq!(
                dense.node_usage(v).to_bits(),
                self.state.node_usage(v).to_bits(),
                "{ctx}: usage of node {v} left the dense reference"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{MeshFaultConfig, PartitionSpec};
    use crate::runtime::{MeshConfig, MeshRuntime};
    use crate::socket::{SocketKind, SocketOptions};
    use proptest::prelude::*;
    use spn_graph::NodeId;
    use spn_model::random::RandomInstance;
    use spn_sim::draws::unit_hash;

    fn instance(nodes: usize, commodities: usize, seed: u64) -> ExtendedNetwork {
        let instance = RandomInstance::builder()
            .nodes(nodes)
            .commodities(commodities)
            .seed(seed)
            .build()
            .expect("valid instance");
        ExtendedNetwork::build(&instance.problem)
    }

    fn cost_of(gradient: &GradientConfig) -> CostModel {
        CostModel {
            penalty: gradient.penalty,
            epsilon: gradient.epsilon,
            wall_threshold: gradient.wall_threshold,
            wall_strength: gradient.wall_strength,
        }
    }

    /// The mirror oracle over a grid: every sweep phase of every worker is
    /// checked against the dense reference (the `#[cfg(test)]` asserts
    /// inside the phases), fault-free and under three fault seeds with
    /// a partition deep enough to drive the recovery restore.
    #[test]
    fn live_arc_phases_match_the_dense_mirror_sweeps() {
        for &(nodes, commodities, seed) in &[(16usize, 2usize, 4u64), (24, 3, 7), (30, 4, 11)] {
            for regions in [1usize, 2, 4] {
                let config = MeshConfig {
                    regions,
                    gradient: GradientConfig::default(),
                    ..MeshConfig::default()
                };
                let ext = instance(nodes, commodities, seed);
                let mut lossless =
                    MeshRuntime::lossless(ext.clone(), config.clone()).expect("valid config");
                lossless.run(60);
                assert!(lossless.incidents().is_empty());
                for fault_seed in [0x4D45_5348u64, 0xFEED, 77] {
                    let faults = MeshFaultConfig {
                        seed: fault_seed,
                        loss: 0.05,
                        duplicate: 0.03,
                        delay_prob: 0.1,
                        max_delay: 2,
                        partitions: vec![PartitionSpec {
                            region: regions - 1,
                            at: 30,
                            duration: 45,
                            heal_stagger: 4,
                        }],
                    };
                    let options = SocketOptions {
                        kind: SocketKind::Memory,
                        faults: Some(faults),
                        split_seed: None,
                    };
                    let mut faulty = MeshRuntime::socket(ext.clone(), config.clone(), &options)
                        .expect("valid config");
                    faulty.run(60);
                    assert!(regions == 1 || !faulty.incidents().is_empty());
                }
            }
        }
    }

    /// A region-1 → region-0 batch holding one reliable sub-frame.
    fn reliable_frame(
        kind: FrameKind,
        seq: u64,
        round: u64,
        body: impl FnOnce(&mut FrameBuf),
    ) -> Vec<u8> {
        let mut buf = FrameBuf::new();
        buf.begin(1, 0, round);
        buf.begin_sub(kind, seq, round);
        body(&mut buf);
        buf.end_sub();
        buf.finish();
        buf.bytes().expect("finished").to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Staleness: whatever a tick's inbox holds — nothing, fresh
        /// peer Γ rows (support-changing: all mass on one out-edge, or
        /// spread over every out-edge), value-only peer rows (new
        /// weights on the support the mirror already has), the same
        /// frame again, rows of an old round, rows outside the sender's
        /// deciders, rows that are not rows (mass 2, an edge listed
        /// twice), a recovery snapshot — every non-stale live-arc row is
        /// the `φ ≠ 0` filter of its routing row afterwards, and the
        /// sweeps that follow (each rebuilds, debug-asserts, and is
        /// compared with the dense reference) see an exact table.
        ///
        /// The relaxed contract is checked from both sides on every tick:
        /// a `shadow` copy of the table, brought up to date before the
        /// tick and never marked, is still consistent afterwards exactly
        /// when no write — a peer's row or an own staged one — moved a
        /// fraction across zero: value-only writes need no `mark_stale`,
        /// a zero crossing needs one. (Dropping the zero-crossing mark in
        /// `write_gamma_rows` fails this test.) A refused frame writes
        /// none of the sender's rows.
        #[test]
        fn live_arcs_track_every_routing_write(
            ops in proptest::collection::vec(0u8..10, 6..40),
            seed in 0u64..1_000,
        ) {
            let ext = instance(20, 3, 9);
            let gradient = GradientConfig::default();
            let cost = cost_of(&gradient);
            let owner = owner_table(&ext, 2);
            let mut a = RegionWorker::new(&ext, &cost, &gradient, &owner, 0, 2, 16);
            // the snapshot donor: region 1 a few lonely iterations in
            let mut b = RegionWorker::new(&ext, &cost, &gradient, &owner, 1, 2, 16);
            let mut log = Vec::new();
            let empty = Inbox::default();
            for tick in 0..4 * TICKS_PER_ITERATION {
                b.run_phase(&ext, &cost, &gradient, 9, 32, tick, &empty, &mut log);
            }
            let theirs: Vec<(CommodityId, NodeId)> = ext
                .commodity_ids()
                .flat_map(|j| {
                    // region 1's deciders: a pass-through row never travels
                    let ext = &ext;
                    ext.commodity_routers(j)
                        .iter()
                        .filter(|&&v| b.owner(v) == 1)
                        .filter(move |&&v| ext.commodity_out_slice(j, v).len() >= 2)
                        .map(move |&v| (j, v))
                })
                .collect();
            prop_assume!(!theirs.is_empty());
            // the next seq `a` expects: only well-formed subs take one
            let mut seq = 1u64;
            let mut last: Option<Vec<u8>> = None;
            for (tick, &op) in ops.iter().enumerate() {
                let round = a.round;
                let mut inbox = Inbox::default();
                // seeded rows over region 1's deciders, by `shape`: 0 all
                // mass on one out-edge, so supports really move; 1 that
                // mass doubled; 2 the first out-edge listed twice at 0.5
                // (in place of its neighbour, or as an extra entry when
                // it has none); 3 spread evenly over every out-edge; 4 the
                // support `current` holds, reweighted 1 : 2 : 3 …
                let rows = |buf: &mut FrameBuf, base: u64, shift: usize, shape: u8, current: &RoutingTable| {
                    buf.put_u64(base);
                    let picks: Vec<_> = theirs
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| unit_hash(seed, tick, i, 0) < 0.5)
                        .map(|(_, &row)| row)
                        .collect();
                    buf.put_u32(picks.len() as u32);
                    for (j, v) in picks {
                        let out = ext.commodity_out_slice(j, v);
                        let hot = (unit_hash(seed, tick, v.index(), 1) * out.len() as f64) as usize;
                        let hot = hot.min(out.len() - 1);
                        buf.put_u32(j.index() as u32);
                        buf.put_u32((v.index() + shift) as u32);
                        if shape == 2 {
                            let e = out.len().max(2);
                            buf.put_u32(e as u32);
                            for k in 0..e {
                                buf.put_u32(out[if k < 2 { 0 } else { k }].index() as u32);
                                buf.put_f64(if k < 2 { 0.5 } else { 0.0 });
                            }
                            continue;
                        }
                        let live: Vec<bool> = out.iter().map(|&l| current.fraction(j, l) != 0.0).collect();
                        let weight = |k: usize| match shape {
                            0 | 1 => if k == hot { f64::from(1 + shape) } else { 0.0 },
                            3 => 1.0,
                            _ => if live[k] { (k + 1) as f64 } else { 0.0 },
                        };
                        let mass: f64 = (0..out.len()).map(weight).sum();
                        let scale = if shape == 1 { 1.0 } else { mass };
                        buf.put_u32(out.len() as u32);
                        for (k, &l) in out.iter().enumerate() {
                            buf.put_u32(l.index() as u32);
                            buf.put_f64(weight(k) / scale);
                        }
                    }
                };
                let before = a.routing.clone();
                // a never-marked copy of the live-arc table, every row
                // brought up to date against the pre-tick routing
                let mut shadow = a.sweeps.clone();
                shadow.marginals_into(&ext, &cost, &before, &a.state, &mut a.marginals.clone());
                let mut must_not_write = false;
                match op {
                    // fresh peer rows: one hot edge, spread, reweighted
                    1 | 8 | 9 => {
                        let shape = [0, 3, 4][usize::from(op.saturating_sub(7))];
                        let frame = reliable_frame(FrameKind::GammaRows, seq, round, |buf| {
                            rows(buf, round, 0, shape, &before);
                        });
                        seq += 1;
                        prop_assert!(inbox.push(&frame));
                        last = Some(frame);
                    }
                    // the same frame again (duplicate seq)
                    2 => {
                        if let Some(frame) = &last {
                            prop_assert!(inbox.push(frame));
                        }
                    }
                    // a new frame whose rows are of an already-applied round
                    3 if round > 0 => {
                        let frame = reliable_frame(FrameKind::GammaRows, seq, 0, |buf| rows(buf, 0, 0, 0, &before));
                        seq += 1;
                        prop_assert!(inbox.push(&frame));
                    }
                    // rows shifted out of the sender's routers
                    4 => {
                        let frame = reliable_frame(FrameKind::GammaRows, seq, round, |buf| {
                            rows(buf, round, ext.graph().node_count(), 0, &before);
                        });
                        prop_assert!(inbox.push(&frame));
                        // (tick 0 applies the first pass, every decider's row)
                        must_not_write = tick > 0;
                    }
                    // well-addressed rows that are not rows: mass 2, or
                    // an edge listed twice
                    6 | 7 => {
                        let frame = reliable_frame(FrameKind::GammaRows, seq, round, |buf| {
                            rows(buf, round, 0, op - 5, &before);
                        });
                        prop_assert!(inbox.push(&frame));
                        must_not_write = tick > 0;
                    }
                    // a recovery snapshot of the donor's mirror
                    5 => {
                        let token = 1_000 + tick as u64;
                        a.recovering = Some(token);
                        b.capture_scratch();
                        let snapshot = snapshot_to_payload(&b.scratch, token);
                        let frame = reliable_frame(FrameKind::RecoveryState, seq, round, |buf| {
                            buf.put_payload(&Payload::RecoveryState(Box::new(snapshot)));
                        });
                        seq += 1;
                        prop_assert!(inbox.push(&frame));
                    }
                    // nothing: the tick's own phase only
                    _ => {}
                }
                a.run_phase(&ext, &cost, &gradient, 9, 32, tick as u64, &inbox, &mut log);
                prop_assert!(
                    a.sweeps.is_consistent(&ext, &a.routing),
                    "op {op} at tick {tick} left a live-arc row out of date"
                );
                if must_not_write {
                    // the sender's rows are untouched (the tick's own
                    // staged rows are region 0's)
                    let theirs_unchanged = ext.commodity_ids().all(|j| {
                        ext.commodity_edges(j).iter().all(|&l| {
                            a.owner(ext.graph().source(l)) != 1
                                || before.fraction(j, l).to_bits() == a.routing.fraction(j, l).to_bits()
                        })
                    });
                    prop_assert!(theirs_unchanged, "refused rows reached the routing mirror");
                }
                let crossed = ext.commodity_ids().any(|j| {
                    ext.commodity_edges(j)
                        .iter()
                        .any(|&l| (before.fraction(j, l) != 0.0) != (a.routing.fraction(j, l) != 0.0))
                });
                prop_assert_eq!(
                    shadow.is_consistent(&ext, &a.routing),
                    !crossed,
                    "op {} at tick {}: an unmarked table must survive exactly the writes \
                     that move no fraction across zero",
                    op,
                    tick
                );
            }
            prop_assert!(log
                .iter()
                .any(|i| matches!(i, MeshIncident::MalformedFrameDiscarded { .. }))
                || !ops.iter().any(|op| matches!(op, 4 | 6 | 7)));
        }
    }

    /// The ownership table, by brute force on paper-family instances
    /// and a wide one: it partitions the nodes (one owner below
    /// `regions` each), every region owns at least one server, the
    /// servers split into contiguous id ranges, and every bandwidth
    /// node `n_ik` and dummy source `s̄_j` goes with its tail server `i`
    /// and source `s_j`.
    #[test]
    fn the_owner_table_partitions_the_nodes_by_tail_server() {
        for &(nodes, commodities, seed) in &[(40usize, 3usize, 1u64), (40, 3, 7), (160, 16, 1)] {
            let ext = instance(nodes, commodities, seed);
            let servers = ext.physical_nodes();
            for regions in [1usize, 2, 3, 4, 7, servers] {
                let owner = owner_table(&ext, regions);
                assert_eq!(owner.len(), ext.graph().node_count());
                assert!(owner.iter().all(|&o| usize::from(o) < regions));
                let server_owners = &owner[..servers];
                assert!(
                    server_owners
                        .windows(2)
                        .all(|w| w[1] == w[0] || w[1] == w[0] + 1),
                    "servers not in contiguous ranges at {regions} regions"
                );
                assert_eq!(usize::from(server_owners[0]), 0);
                assert_eq!(usize::from(server_owners[servers - 1]), regions - 1);
                for v in ext.graph().nodes() {
                    let tail = match ext.node_kind(v) {
                        NodeKind::Processing(s) => s,
                        NodeKind::Bandwidth(e) => {
                            ext.graph().source(EdgeId::from_index(2 * e.index()))
                        }
                        NodeKind::DummySource(j) => ext.commodity(j).source(),
                    };
                    assert!(tail.index() < servers);
                    assert_eq!(owner[v.index()], owner[tail.index()], "node {v}");
                }
            }
        }
    }

    /// The fact that lets the marginal frame go: on paper-family seeds
    /// 1–32 split 2, 3 and 4 ways, no decider has an out-arc head owned
    /// by another region unless the head is no router of its commodity
    /// — the sink, whose marginal every mirror holds at exactly `0.0`.
    /// So every marginal a region's Γ reads is one its own sweep wrote.
    #[test]
    fn no_decider_reads_a_marginal_owned_elsewhere() {
        let gradient = GradientConfig::default();
        let cost = cost_of(&gradient);
        for seed in 1..=32u64 {
            let ext = instance(40, 3, seed);
            let state = RoutingTable::initial(&ext);
            let flows = compute_flows(&ext, &state);
            let mut marginals = Marginals::zeros(&ext);
            compute_marginals_into(&ext, &cost, &state, &flows, &mut marginals, None);
            for regions in 2..=4 {
                let owner = owner_table(&ext, regions);
                for j in ext.commodity_ids() {
                    let members = ext.members(j);
                    for &(p, _) in members.deciders() {
                        let u = members.node(p as usize);
                        for &h in members.out_arcs(p as usize).1 {
                            let v = members.node(h as usize);
                            if owner[v.index()] == owner[u.index()] {
                                continue;
                            }
                            assert_eq!(
                                v,
                                ext.commodity(j).sink(),
                                "seed {seed}, {regions} regions: decider {u} of {j} reads the \
                                 marginal of {v}, owned elsewhere"
                            );
                            assert!(!ext.commodity_routers(j).contains(&v));
                            assert_eq!(marginals.node(&ext, j, v).to_bits(), 0.0f64.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// On a lossless mesh the wire carries only Γ rows, within the
    /// decider lists: past the construction-time first pass, an
    /// iteration ships at most one Γ row per owned decider per peer,
    /// never a pass-through row, and no row of any other kind.
    #[test]
    fn lossless_rows_per_round_stay_within_the_lists() {
        let ext = instance(30, 4, 11);
        let config = MeshConfig {
            regions: 4,
            gradient: GradientConfig::default(),
            ..MeshConfig::default()
        };
        let mut mesh = MeshRuntime::lossless(ext.clone(), config.clone()).expect("valid config");
        let rounds = 40u64;
        mesh.run(rounds as usize);
        let deciders: u64 = (0..config.regions)
            .map(|r| mesh.worker(r).owned.len() as u64 * (config.regions as u64 - 1))
            .sum();
        let wire = mesh.wire_stats();
        assert!(wire.gamma_rows > 0);
        assert_eq!(
            wire.rows_sent, wire.gamma_rows,
            "a row kind other than Γ travels"
        );
        assert!(
            wire.gamma_rows <= rounds * deciders,
            "{wire:?} vs {deciders} decider rows"
        );
        let all: u64 = ext
            .commodity_ids()
            .map(|j| ext.members(j).deciders().len() as u64)
            .sum();
        assert_eq!(
            deciders,
            all * (config.regions as u64 - 1),
            "a decider owned twice or never"
        );
    }
}
