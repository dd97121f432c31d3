//! One region's share of the mesh: a full state mirror, the sweep
//! phases over it, and the reliability machinery that keeps the mirror
//! honest under a faulty transport.
//!
//! Every worker mirrors the complete `(routing, flows, marginals)`
//! state but *owns* only its node range: Γ updates for owned deciders
//! are computed locally and shipped as serialized rows; peer rows
//! arrive over the wire and are merged in. Under a lossless transport
//! each worker's redundant mirror sweeps are bit-identical to every
//! peer's, so the merged trajectory is bit-identical to the monolithic
//! `GradientAlgorithm` (ARCHITECTURE invariant 19).
//!
//! **Rows travel only to the regions that read them** (§5: a marginal
//! goes upstream, to the nodes that route into it). Only Γ reads a
//! received marginal, and Γ runs over deciders alone, so region `q`
//! reads marginal `(j, v)` iff it owns a *decider* of `j` (a router
//! with at least two out-arcs) with an arc into `v`;
//! each worker ships an owned router's marginal to exactly those peers,
//! from a per-peer list built at construction, and accepts a received
//! one only if the sender owns the router and this worker reads it. An
//! entry a region does not read is rewritten by its own next sweep
//! before anything reads it, so not sending it changes no bit of a
//! lossless run (invariant 20). Γ rows travel only for deciders: a
//! pass-through router's row is `[(l, 1.0)]` on every mirror from
//! construction on, so Γ runs over the owned deciders alone
//! ([`apply_gamma_deciders`]) and a received pass-through row is
//! malformed whatever it holds (invariant 24).
//!
//! An iteration is [`TICKS_PER_ITERATION`] ticks: *decide* (peers'
//! marginals in, owned Γ out) and *forward* (peers' Γ rows in,
//! flows, then the next round's marginals on the completed mirror).
//!
//! The two sweeps walk each commodity's **live arcs** (`φ ≠ 0`)
//! through [`LiveArcSweeps`] — the sparse engine's kernels with
//! every commodity run every iteration — so a region's work scales with
//! commodity membership, not with `J·(V + L)`. The live-arc table is
//! derived from the routing mirror's *support* (which fractions are
//! nonzero), so a write marks its commodity stale — and the next sweep
//! rebuilds it — exactly when it changes which fractions are zero: own
//! Γ rows report that through [`GammaScratch::support_changed`], an
//! applied peer Γ row through a zero-crossing check per fraction, and a
//! recovery restore marks everything. A write that only moves values
//! (most Γ rows) leaves the table as it is.
//! Entries outside a commodity's
//! subgraph are structurally zero and no sweep rewrites them, which is
//! why every index a frame carries is validated against the subgraph
//! and the sender's ownership before anything is written.
//!
//! The send path is **delta-encoded, coalesced, and pooled**
//! (ARCHITECTURE invariant 20): the worker fingerprints the exact bit
//! pattern of every row it last shipped (per link for marginals, once
//! for the Γ rows every peer gets) and sends only rows
//! whose bits changed, inside exactly one [`FrameBuf`] batch per
//! (link, tick), with every buffer (batches, flights, scratch) owned
//! by the worker and reused across ticks — the converged steady state
//! sends one empty heartbeat batch per link per iteration and allocates
//! nothing.
//! A periodic full refresh (`refresh_every` rounds) re-anchors every
//! delta chain, and a receiver that detects a marginals round gap asks
//! the sender for a full marginals frame ([`Payload::Resend`]).
//! Suppression never changes what a receiver ends up holding — only whether the bytes
//! travel: a suppressed row is bitwise what the receiver already has.
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
//! * **Watermarked marginals**: a round watermark accepts only
//!   strictly newer rounds; duplicates and stale frames are logged and
//!   discarded, never applied twice. Each marginals frame names its
//!   predecessor's round (`base`), so a receiver spots link-local loss
//!   and requests a resync.
//! * **Per-row round guards**: a Γ row is applied only if its round is
//!   newer than the row's last applied round, so late retransmits
//!   flushed after a recovery cannot regress restored state.
//! * **Heartbeats & suspicion**: a peer silent for longer than the
//!   suspect window is degraded to suspect — its rows simply stop
//!   updating (last-known Γ) and iteration continues. When *all*
//!   peers are suspect the worker is isolated; the first peer heard
//!   from again triggers the epoch-fenced recovery handshake.

use crate::incident::MeshIncident;
use crate::recovery::{payload_to_snapshot, snapshot_to_payload, state_digest};
use crate::transport::Inbox;
use crate::wire::{
    parse_ack, parse_recovery_request, parse_recovery_state, parse_resend, walk_gamma_rows,
    walk_marginals, BatchReader, FrameBuf, FrameKind, Payload, SubView, WireError,
};
use spn_core::flows::compute_flows;
use spn_core::gamma::{apply_gamma_deciders, GammaScratch, GammaStats};
use spn_core::marginals::compute_marginals_into;
use spn_core::routing::FRACTION_TOLERANCE;
use spn_core::{
    Checkpoint, CostModel, FlowState, GradientConfig, LiveArcSweeps, Marginals, RoutingTable,
};
use spn_graph::EdgeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Which region owns extended node `v` of `v_count`, splitting the node
/// index space into `regions` contiguous ranges.
#[must_use]
pub fn owner_of(v_index: usize, v_count: usize, regions: usize) -> usize {
    debug_assert!(regions >= 1 && v_index < v_count);
    (v_index * regions / v_count).min(regions - 1)
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

/// Transport ticks per iteration: decide (even), forward (odd).
pub const TICKS_PER_ITERATION: u64 = 2;

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
    /// Marginal entries + Γ rows shipped.
    pub rows_sent: u64,
    /// The marginal entries among `rows_sent`.
    pub marginal_rows_sent: u64,
    /// The Γ rows among `rows_sent`.
    pub gamma_rows_sent: u64,
    /// Rows whose bits matched the link fingerprint and were *not*
    /// shipped (the delta win).
    pub rows_suppressed: u64,
    /// Batch frames received from this peer.
    pub frames_received: u64,
    /// Frame bytes received from this peer.
    pub bytes_received: u64,
    /// Marginals round gaps detected on this link (resend requests
    /// issued to the peer).
    pub resyncs_requested: u64,
}

/// Wire telemetry aggregated over links (see
/// [`RegionWorker::wire_stats`]) or over a whole mesh
/// (`MeshReport::wire`). Send-side counters plus the resync count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshWireStats {
    /// Batch frames shipped.
    pub frames: u64,
    /// Total frame bytes shipped.
    pub bytes: u64,
    /// Sub-frames shipped.
    pub subs: u64,
    /// Rows shipped.
    pub rows_sent: u64,
    /// Marginal entries shipped (part of `rows_sent`).
    pub marginal_rows: u64,
    /// Γ rows shipped (part of `rows_sent`).
    pub gamma_rows: u64,
    /// Rows suppressed by delta fingerprints.
    pub rows_suppressed: u64,
    /// Marginals round gaps detected (resend requests issued).
    pub resyncs: u64,
}

impl MeshWireStats {
    /// Accumulates `other` into `self`.
    pub(crate) fn absorb(&mut self, other: MeshWireStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.subs += other.subs;
        self.rows_sent += other.rows_sent;
        self.marginal_rows += other.marginal_rows;
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

/// Per-peer link state: the reliable stream in both directions, the
/// marginals watermark, and the delta fingerprints of the marginals last
/// shipped to that peer (Γ's are the worker's: every peer gets the same
/// Γ rows).
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
    /// Marginals round watermark: next acceptable round.
    wm_marginals: u64,
    /// The owned router marginals this peer reads, as `(j, v, member
    /// position)`, commodity-major in router order: the rows
    /// [`RegionWorker::phase_marginals`] ships on this link.
    marg_rows: Vec<(u32, u32, u32)>,
    /// Bit fingerprint of the last marginal shipped per `marg_rows`
    /// entry.
    marg_sent: Vec<u64>,
    /// Round of the last marginals frame shipped (the next delta's
    /// `base`).
    marg_round: u64,
    /// Ship the next marginals frame full (a [`Payload::Resend`], or
    /// none yet).
    force_marginals: bool,
    /// Ship this peer a [`Payload::Resend`] this tick (a gap detected
    /// while draining the inbox).
    want_resend: bool,
    /// A reliable sub arrived this tick; emit one cumulative ack.
    ack_pending: bool,
    stats: LinkWireStats,
}

impl Link {
    fn new(marg_rows: Vec<(u32, u32, u32)>) -> Self {
        Link {
            next_seq: 1,
            in_flight: VecDeque::new(),
            spare: Vec::new(),
            recv_next: 1,
            ahead: BTreeMap::new(),
            ahead_bytes: 0,
            wm_marginals: 0,
            marg_sent: vec![NEVER_SENT; marg_rows.len()],
            marg_rows,
            marg_round: 0,
            force_marginals: true,
            want_resend: false,
            ack_pending: false,
            stats: LinkWireStats::default(),
        }
    }
}

/// One region worker: full mirror, owned node range, link states.
pub struct RegionWorker {
    region: usize,
    regions: usize,
    v_count: usize,
    edge_count: usize,
    /// Region `r` owns nodes `region_lo[r]..region_lo[r + 1]`
    /// (ownership is contiguous by construction of [`owner_of`]).
    region_lo: Vec<usize>,
    /// Per commodity, the sub-range of `commodity_routers(j)` (ascending
    /// node order) this worker owns — the routers its Γ runs over.
    owned_routers: Vec<Range<usize>>,
    /// Per commodity, the sub-range of `members(j).deciders()` inside
    /// `owned_routers[j]` — the rows the Γ stream ships.
    owned_deciders: Vec<Range<usize>>,
    /// `reads[member_range(j).start + p]`: this worker owns a decider
    /// with an arc into member `p` of commodity `j`, so its Γ reads that
    /// marginal — the only marginal entries a peer may ship it.
    reads: Vec<bool>,
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
    /// Iteration counter (advances after the flow phase).
    round: u64,
    /// Commodity-set epoch (the checkpoint fence; constant here — the
    /// mesh does not reshape commodities mid-run).
    epoch: u64,
    /// `ε` and `η` as constructed (both constant over a mesh run, so
    /// these are the values every snapshot carries).
    epsilon: f64,
    eta: f64,
    /// Γ statistics of the worker's own rows, last iteration.
    last_gamma: GammaStats,
    /// Per-peer link state (`links[region]` is unused).
    links: Vec<Link>,
    /// Bit fingerprint of the last Γ fraction shipped per (j, edge).
    /// One slab serves every link: Γ has no per-link resend, every link
    /// is visited every round, and a recovery resets all links alike.
    gamma_sent: Vec<u64>,
    /// Round of the last Γ frame shipped (the next delta's `base`).
    gamma_round: u64,
    /// The decide tick's changed owned decider rows, encoded once and
    /// copied into every peer's Γ sub-frame; reused across ticks.
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
    /// as `GradientAlgorithm::from_extended`: fully-rejecting routing,
    /// its flows, and its marginals (round 0's, so they never travel).
    #[must_use]
    pub fn new(
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
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
        let mut region_lo: Vec<usize> = (0..regions)
            .map(|r| {
                (0..v_count)
                    .find(|&v| owner_of(v, v_count, regions) == r)
                    .expect("every region owns at least one node")
            })
            .collect();
        region_lo.push(v_count);
        let owned = region_lo[region]..region_lo[region + 1];
        let owned_routers: Vec<Range<usize>> = ext
            .commodity_ids()
            .map(|j| {
                let routers = ext.commodity_routers(j);
                routers.partition_point(|v| v.index() < owned.start)
                    ..routers.partition_point(|v| v.index() < owned.end)
            })
            .collect();
        let owned_deciders = ext
            .commodity_ids()
            .map(|j| {
                let (deciders, span) = (ext.members(j).deciders(), &owned_routers[j.index()]);
                deciders.partition_point(|&(_, r)| (r as usize) < span.start)
                    ..deciders.partition_point(|&(_, r)| (r as usize) < span.end)
            })
            .collect();
        let mut router_pos = vec![NOT_A_ROUTER; j_count * v_count];
        for j in ext.commodity_ids() {
            let positions = ext.members(j).routers();
            for (v, &p) in ext.commodity_routers(j).iter().zip(positions) {
                router_pos[j.index() * v_count + v.index()] = p;
            }
        }
        // The readers relation: region `q` reads marginal `(j, v)` iff it
        // owns a decider of `j` with an arc into `v` (only Γ reads a
        // received marginal, and Γ runs over deciders alone). Each owned
        // router's entry goes on the list of every other region that
        // reads it (once per row); `reads` is this region's own side of
        // it.
        let mut marg_rows: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); regions];
        let mut reads = vec![false; ext.member_total()];
        let mut tail_owners = Vec::new();
        for j in ext.commodity_ids() {
            let members = ext.members(j);
            let decider_owner = |t: u32| {
                (members.out_arcs(t as usize).0.len() >= 2)
                    .then(|| owner_of(members.node(t as usize).index(), v_count, regions))
            };
            for (p, read) in reads[ext.member_range(j)].iter_mut().enumerate() {
                *read = members
                    .in_arcs(p)
                    .1
                    .iter()
                    .any(|&t| decider_owner(t) == Some(region));
            }
            let span = owned_routers[j.index()].clone();
            let routers = ext.commodity_routers(j)[span.clone()].iter();
            for (&v, &p) in routers.zip(&members.routers()[span]) {
                tail_owners.clear();
                tail_owners.extend(
                    members
                        .in_arcs(p as usize)
                        .1
                        .iter()
                        .filter_map(|&t| decider_owner(t)),
                );
                tail_owners.sort_unstable();
                tail_owners.dedup();
                for &q in &tail_owners {
                    if q != region {
                        marg_rows[q].push((j.index() as u32, v.index() as u32, p));
                    }
                }
            }
        }
        RegionWorker {
            region,
            regions,
            v_count,
            edge_count,
            region_lo,
            owned_routers,
            owned_deciders,
            reads,
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
            last_gamma: GammaStats::default(),
            links: marg_rows.into_iter().map(Link::new).collect(),
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
        }
    }

    /// The node range region `r` owns.
    fn owned_nodes(&self, r: usize) -> Range<usize> {
        self.region_lo[r]..self.region_lo[r + 1]
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

    /// Γ statistics of this worker's own rows, last iteration.
    #[must_use]
    pub(crate) fn gamma_stats(&self) -> GammaStats {
        self.last_gamma
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
                marginal_rows: link.stats.marginal_rows_sent,
                gamma_rows: link.stats.gamma_rows_sent,
                rows_suppressed: link.stats.rows_suppressed,
                resyncs: link.stats.resyncs_requested,
            });
        }
        total
    }

    /// The batch this tick produced for `peer`, if non-empty. Valid
    /// after the worker's phase of the tick until its next phase.
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

    /// Drives one transport tick: opens this tick's per-link batches,
    /// drains the inbox, and runs the decide or forward phase the tick
    /// selects (the forward tick also retransmits, checks suspects and
    /// advances the round before its marginal sweep). The runtime then
    /// ships each non-empty batch via [`RegionWorker::outgoing`].
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
        self.flush_control();
        match tick % TICKS_PER_ITERATION {
            0 => self.phase_gamma(ext, cost, gradient, tick),
            _ => {
                self.phase_flows(ext);
                self.retransmit(tick, backoff_cap, log);
                self.check_suspects(tick, suspect_after, log);
                self.round += 1;
                self.phase_marginals(ext, cost);
            }
        }
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            if self.outbox[peer].finish() {
                let s = &mut self.links[peer].stats;
                s.frames_sent += 1;
                s.bytes_sent += self.outbox[peer].frame_len() as u64;
                s.subs_sent += u64::from(self.outbox[peer].sub_count());
            }
        }
    }

    /// One cumulative ack and/or resend request per link, from flags
    /// the inbox drain raised.
    fn flush_control(&mut self) {
        let round = self.round;
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let link = &mut self.links[peer];
            let batch = &mut self.outbox[peer];
            if link.ack_pending {
                link.ack_pending = false;
                batch.begin_sub(FrameKind::Ack, 0, round);
                batch.put_u64(link.recv_next - 1);
                batch.end_sub();
            }
            if link.want_resend {
                batch.begin_sub(FrameKind::Resend, 0, round);
                batch.end_sub();
                link.want_resend = false;
            }
        }
    }

    /// End of the forward tick, in the new round: the live-arc marginal
    /// sweep over the mirror, then ship each peer the entries on its
    /// readers list whose bits changed since last shipped on that link
    /// (the whole list on a refresh or forced-full round). No other entry
    /// travels: a non-router marginal is structurally `0.0` on every
    /// mirror, and one the peer does not read is rewritten by the peer's
    /// own sweep before anything reads it.
    fn phase_marginals(&mut self, ext: &ExtendedNetwork, cost: &CostModel) {
        self.sweeps
            .marginals_into(ext, cost, &self.routing, &self.state, &mut self.marginals);
        #[cfg(test)]
        self.assert_marginals_match_dense(ext, cost);
        if self.regions == 1 {
            return;
        }
        let refresh = self.round.is_multiple_of(self.refresh_every);
        let round = self.round;
        for peer in 0..self.regions {
            if peer == self.region {
                continue;
            }
            let link = &mut self.links[peer];
            let batch = &mut self.outbox[peer];
            let full = refresh || link.force_marginals;
            let mut opened = false;
            let mut count_at = 0usize;
            let mut n = 0u32;
            let mut suppressed = 0u64;
            for (&(j, v, p), sent) in link.marg_rows.iter().zip(&mut link.marg_sent) {
                let d = self.marginals.row(ext, CommodityId::from_index(j as usize))[p as usize];
                let bits = d.to_bits();
                if full || *sent != bits {
                    *sent = bits;
                    if !opened {
                        batch.begin_sub(FrameKind::Marginals, 0, round);
                        batch.put_u64(if full { round } else { link.marg_round });
                        count_at = batch.mark_u32();
                        opened = true;
                    }
                    batch.put_u32(j);
                    batch.put_u32(v);
                    batch.put_f64(d);
                    n += 1;
                } else {
                    suppressed += 1;
                }
            }
            if opened {
                batch.patch_u32(count_at, n);
                batch.end_sub();
                link.marg_round = round;
                link.force_marginals = false;
                link.stats.rows_sent += u64::from(n);
                link.stats.marginal_rows_sent += u64::from(n);
            }
            link.stats.rows_suppressed += suppressed;
        }
    }

    /// The decide tick: Γ over the owned deciders (which stale-marks
    /// every commodity whose support it moved); ship every peer the owned
    /// decider rows whose fraction bits changed, on the reliable stream
    /// (every owned decider row on a refresh round — the backstop that
    /// bounds post-recovery divergence). The rows are found and encoded
    /// once; each peer's sub gets its own seq and flight copy.
    /// Pass-through rows are `[(l, 1.0)]` on every mirror and never
    /// travel.
    fn phase_gamma(
        &mut self,
        ext: &ExtendedNetwork,
        cost: &CostModel,
        gradient: &GradientConfig,
        tick: u64,
    ) {
        self.last_gamma = apply_gamma_deciders(
            ext,
            cost,
            &mut self.routing,
            &self.state,
            &self.marginals,
            gradient.eta,
            gradient.traffic_floor,
            gradient.opening_fraction,
            gradient.shift_cap,
            &self.owned_routers,
            &mut self.gamma_scratch,
        );
        let (edge_count, round) = (self.edge_count, self.round);
        // a commodity's live arcs are out of date only where Γ moved a
        // fraction across zero
        for j in ext.commodity_ids() {
            if self.gamma_scratch.support_changed(j) {
                self.sweeps.mark_stale(j);
            }
        }
        if self.regions == 1 {
            return;
        }
        let refresh = round % self.refresh_every == 0;
        self.gamma_rows.clear();
        let (mut n, mut suppressed) = (0u32, 0u64);
        for j in ext.commodity_ids() {
            let members = ext.members(j);
            let sent = &mut self.gamma_sent[j.index() * edge_count..][..edge_count];
            let deciders = &members.deciders()[self.owned_deciders[j.index()].clone()];
            for &(p, _) in deciders {
                let out = members.out_arcs(p as usize).0;
                let changed = refresh
                    || out
                        .iter()
                        .any(|&l| sent[l.index()] != self.routing.fraction(j, l).to_bits());
                if !changed {
                    suppressed += 1;
                    continue;
                }
                let rows = &mut self.gamma_rows;
                for word in [j.index(), members.node(p as usize).index(), out.len()] {
                    rows.extend_from_slice(&(word as u32).to_le_bytes());
                }
                for &l in out {
                    let phi = self.routing.fraction(j, l);
                    sent[l.index()] = phi.to_bits();
                    rows.extend_from_slice(&(l.index() as u32).to_le_bytes());
                    rows.extend_from_slice(&phi.to_bits().to_le_bytes());
                }
                n += 1;
            }
        }
        let base = if refresh { round } else { self.gamma_round };
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
            batch.put_u64(base);
            batch.put_u32(n);
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

    /// Start of the forward tick: the live-arc flow sweep (§5's flow
    /// forecast, eqs. (3)–(5)) for the merged routing decision,
    /// rebuilding the live arcs of every commodity the decide tick and
    /// the inbox wrote; then every peer's batch is marked a heartbeat,
    /// so it ships even empty and liveness never depends on data
    /// changing (a receiver notes liveness per batch, so an empty one
    /// is the whole heartbeat).
    fn phase_flows(&mut self, ext: &ExtendedNetwork) {
        self.sweeps.flows_into(ext, &self.routing, &mut self.state);
        #[cfg(test)]
        self.assert_flows_match_dense(ext);
        for peer in 0..self.regions {
            if peer != self.region {
                self.outbox[peer].mark_heartbeat();
            }
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

    /// Verdict of a validation walk over a row payload of `round`: it
    /// must have decoded, every index must have checked out (`valid`),
    /// and its `base` must name a predecessor round. Logs the discard
    /// and answers `false` otherwise.
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

    /// Member position of wire pair `(j, v)` if it is a routing row of
    /// region `from` — `v` a router of commodity `j` inside `from`'s
    /// node range. Anything else would write outside the subgraph the
    /// live-arc sweeps maintain (or outside the buffers altogether).
    fn router_of(&self, ext: &ExtendedNetwork, from: usize, j: u32, v: u32) -> Option<usize> {
        let (ji, vi) = (j as usize, v as usize);
        if ji >= ext.num_commodities() || !self.owned_nodes(from).contains(&vi) {
            return None;
        }
        let p = self.router_pos[ji * self.v_count + vi];
        (p != NOT_A_ROUTER).then_some(p as usize)
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
            // periodic refresh / resync request)
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
                } else {
                    self.receive_unreliable(ext, tick, from, &sub, log);
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
                let routing = &mut self.routing;
                let sweeps = &mut self.sweeps;
                let mut stale = 0u64;
                walk_gamma_rows(
                    payload,
                    |j, v, _| {
                        let idx = j as usize * v_count + v as usize;
                        // per-row guard: only strictly newer rounds apply
                        if round + 1 > row_round[idx] {
                            row_round[idx] = round + 1;
                            true
                        } else {
                            stale += 1;
                            false
                        }
                    },
                    |j, _v, l, phi| {
                        let (j, l) = (
                            CommodityId::from_index(j as usize),
                            EdgeId::from_index(l as usize),
                        );
                        // the live arcs are the nonzero fractions: only
                        // a zero crossing puts them out of date
                        if (routing.fraction(j, l) != 0.0) != (phi != 0.0) {
                            sweeps.mark_stale(j);
                        }
                        routing.set_fraction(j, l, phi);
                    },
                )
                .expect("payload walked cleanly in the validation pass");
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
                        // the restored mirror invalidates every delta
                        // chain this worker maintains as a *sender*:
                        // ship full frames next time on every link
                        for link in &mut self.links {
                            link.force_marginals = true;
                        }
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

    fn receive_unreliable(
        &mut self,
        ext: &ExtendedNetwork,
        tick: u64,
        from: usize,
        sub: &SubView<'_>,
        log: &mut Vec<MeshIncident>,
    ) {
        match sub.kind {
            FrameKind::Heartbeat => {}
            FrameKind::Ack => {
                let Some(cum) = self.parsed(tick, parse_ack(sub.payload), log) else {
                    return;
                };
                let link = &mut self.links[from];
                while matches!(link.in_flight.front(), Some(f) if f.seq <= cum) {
                    let flight = link.in_flight.pop_front().expect("front checked");
                    link.spare.push(flight.bytes);
                }
            }
            FrameKind::Resend => {
                if self.parsed(tick, parse_resend(sub.payload), log).is_some() {
                    self.links[from].force_marginals = true;
                }
            }
            FrameKind::Marginals => {
                let wm = self.links[from].wm_marginals;
                if sub.round >= wm {
                    // validation pass, no writes: only `from`'s router
                    // entries are ever nonzero, and only those this
                    // worker reads are shipped to it
                    let mut valid = true;
                    let walked = walk_marginals(sub.payload, |e| {
                        valid &= self.router_of(ext, from, e.j, e.v).is_some_and(|p| {
                            let j = CommodityId::from_index(e.j as usize);
                            self.reads[ext.member_range(j).start + p]
                        });
                    });
                    if !self.accepted(tick, sub.round, walked, valid, log) {
                        return;
                    }
                    let marginals = &mut self.marginals;
                    let (router_pos, v_count) = (&self.router_pos, self.v_count);
                    let base = walk_marginals(sub.payload, |e| {
                        let (ji, vi) = (e.j as usize, e.v as usize);
                        let p = router_pos[ji * v_count + vi] as usize;
                        marginals.row_mut(ext, CommodityId::from_index(ji))[p] = e.d;
                    })
                    .expect("payload walked cleanly in the validation pass");
                    let link = &mut self.links[from];
                    link.wm_marginals = sub.round + 1;
                    if base != sub.round && base + 1 != wm {
                        // a delta whose predecessor never arrived —
                        // link-local loss; ask the sender for a full frame
                        link.want_resend = true;
                        link.stats.resyncs_requested += 1;
                        log.push(MeshIncident::ResyncRequested {
                            tick,
                            region: self.region,
                            peer: from,
                            kind: FrameKind::Marginals,
                        });
                    }
                } else {
                    log.push(Self::discard_incident(
                        tick,
                        self.region,
                        from,
                        FrameKind::Marginals,
                        sub.round,
                        wm,
                    ));
                }
            }
            _ => unreachable!("reliable sub on the unreliable path"),
        }
    }

    /// A below-watermark broadcast is a *duplicate* if it is exactly the
    /// last accepted round and *stale* if older still.
    fn discard_incident(
        tick: u64,
        region: usize,
        from: usize,
        kind: FrameKind,
        round: u64,
        wm: u64,
    ) -> MeshIncident {
        if round + 1 == wm {
            MeshIncident::DuplicateFrameDiscarded {
                tick,
                region,
                from,
                kind,
            }
        } else {
            MeshIncident::StaleFrameDiscarded {
                tick,
                region,
                from,
                kind,
                round,
            }
        }
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
        assert!(buf.finish());
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
        /// The relaxed contract is checked from both sides on every tick
        /// without an own Γ write: a `shadow` copy of the table, brought
        /// up to date before the tick and never marked, is still
        /// consistent afterwards exactly when no write moved a fraction
        /// across zero — value-only writes need no `mark_stale`, a zero
        /// crossing needs one. (Dropping the zero-crossing mark in
        /// `apply_reliable` fails this test.)
        #[test]
        fn live_arcs_track_every_routing_write(
            ops in proptest::collection::vec(0u8..10, 6..40),
            seed in 0u64..1_000,
        ) {
            let ext = instance(20, 3, 9);
            let gradient = GradientConfig::default();
            let cost = cost_of(&gradient);
            let mut a = RegionWorker::new(&ext, &cost, &gradient, 0, 2, 16);
            // the snapshot donor: region 1 a few lonely iterations in
            let mut b = RegionWorker::new(&ext, &cost, &gradient, 1, 2, 16);
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
                        .filter(|v| b.owned_nodes(1).contains(&v.index()))
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
                // only the decide tick writes own Γ rows; on the forward
                // tick every routing write comes from the inbox
                let forward = !(tick as u64).is_multiple_of(TICKS_PER_ITERATION);
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
                        must_not_write = forward;
                    }
                    // well-addressed rows that are not rows: mass 2, or
                    // an edge listed twice
                    6 | 7 => {
                        let frame = reliable_frame(FrameKind::GammaRows, seq, round, |buf| {
                            rows(buf, round, 0, op - 5, &before);
                        });
                        prop_assert!(inbox.push(&frame));
                        must_not_write = forward;
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
                    prop_assert!(before == a.routing, "refused rows reached the routing mirror");
                }
                if forward {
                    // no own Γ write this tick: only the inbox wrote
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
            }
            prop_assert!(log
                .iter()
                .any(|i| matches!(i, MeshIncident::MalformedFrameDiscarded { .. }))
                || !ops.iter().any(|op| matches!(op, 4 | 6 | 7)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The readers relation, by brute force: on every worker, the
        /// list of marginals shipped to peer `q` is exactly the owned
        /// routers `v` of each commodity `j` (commodity-major, router
        /// order) such that `q` owns a decider `u` of `j` (a router with
        /// at least two out-arcs) with an arc `u → v`; the receive-side
        /// `reads` table is that relation
        /// seen from the worker itself; and the head of every owned
        /// decider's out-arc that is a router owned elsewhere is on its
        /// owner's list for this worker — every marginal a Γ row reads
        /// arrives.
        #[test]
        fn marginal_lists_are_the_readers_relation(
            nodes in 12usize..48,
            commodities in 1usize..6,
            seed in 0u64..1_000,
            regions in 2usize..=4,
        ) {
            let ext = instance(nodes, commodities, seed);
            let v_count = ext.graph().node_count();
            let gradient = GradientConfig::default();
            let cost = cost_of(&gradient);
            let owner = |v: NodeId| owner_of(v.index(), v_count, regions);
            let workers: Vec<RegionWorker> = (0..regions)
                .map(|r| RegionWorker::new(&ext, &cost, &gradient, r, regions, 16))
                .collect();
            let arc = |j: CommodityId, u: NodeId, v: NodeId| {
                ext.commodity_out_slice(j, u).iter().any(|&l| ext.graph().target(l) == v)
            };
            let decider = |j: CommodityId, u: NodeId| ext.commodity_out_slice(j, u).len() >= 2;
            let reads = |q: usize, j: CommodityId, v: NodeId| {
                ext.commodity_routers(j)
                    .iter()
                    .any(|&u| owner(u) == q && decider(j, u) && arc(j, u, v))
            };
            for (s, worker) in workers.iter().enumerate() {
                for q in (0..regions).filter(|&q| q != s) {
                    let mut want = Vec::new();
                    for j in ext.commodity_ids() {
                        for &v in ext.commodity_routers(j).iter().filter(|&&v| owner(v) == s) {
                            if reads(q, j, v) {
                                let p = ext.member_pos(j, v).expect("a router is a member");
                                want.push((j.index() as u32, v.index() as u32, p as u32));
                            }
                        }
                    }
                    prop_assert_eq!(&worker.links[q].marg_rows, &want, "list {} -> {}", s, q);
                    prop_assert_eq!(worker.links[q].marg_sent.len(), want.len());
                }
                for j in ext.commodity_ids() {
                    let members = ext.members(j);
                    let base = ext.member_range(j).start;
                    for (p, &v) in members.nodes().iter().enumerate() {
                        prop_assert_eq!(worker.reads[base + p], reads(s, j, v), "reads ({}, {})", j, v);
                    }
                    for &(p, _) in members.deciders() {
                        if owner(members.node(p as usize)) != s {
                            continue;
                        }
                        for &h in members.out_arcs(p as usize).1 {
                            let v = members.node(h as usize);
                            let o = owner(v);
                            if o == s || !ext.commodity_routers(j).contains(&v) {
                                continue;
                            }
                            let entry = (j.index() as u32, v.index() as u32, h);
                            prop_assert!(
                                workers[o].links[s].marg_rows.contains(&entry),
                                "decider head {:?} missing from list {} -> {}", entry, o, s
                            );
                        }
                    }
                }
            }
        }
    }

    /// On a lossless mesh the wire carries only what the readers
    /// relation and the decider lists allow: past the full round 0 and
    /// the refresh rounds, a round ships at most one marginal per list
    /// entry and one Γ row per owned decider per peer, never a
    /// pass-through row, and no row of any other kind.
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
        let (mut listed, mut deciders) = (0u64, 0u64);
        for r in 0..config.regions {
            let w = mesh.worker(r);
            listed += w
                .links
                .iter()
                .map(|l| l.marg_rows.len() as u64)
                .sum::<u64>();
            deciders += w.owned_deciders.iter().map(|d| d.len() as u64).sum::<u64>()
                * (config.regions as u64 - 1);
        }
        let wire = mesh.wire_stats();
        assert!(wire.marginal_rows > 0 && wire.gamma_rows > 0);
        assert_eq!(
            wire.rows_sent,
            wire.marginal_rows + wire.gamma_rows,
            "a row kind other than marginals and Γ travels"
        );
        assert!(
            wire.marginal_rows <= rounds * listed,
            "{wire:?} vs {listed} listed"
        );
        assert!(
            wire.gamma_rows <= rounds * deciders,
            "{wire:?} vs {deciders} decider rows"
        );
        let routers: u64 = ext
            .commodity_ids()
            .map(|j| ext.commodity_routers(j).len() as u64)
            .sum();
        assert!(
            listed < routers * (config.regions as u64 - 1),
            "the readers lists are no smaller than a broadcast"
        );
    }

    #[test]
    fn owner_ranges_are_contiguous_and_cover() {
        for regions in 1..=5 {
            for v_count in [1usize, 2, 7, 16, 33] {
                if regions > v_count {
                    continue;
                }
                let owners: Vec<usize> = (0..v_count)
                    .map(|v| owner_of(v, v_count, regions))
                    .collect();
                assert_eq!(owners[0], 0);
                assert_eq!(owners[v_count - 1], regions - 1);
                for w in owners.windows(2) {
                    assert!(
                        w[1] == w[0] || w[1] == w[0] + 1,
                        "non-contiguous: {owners:?}"
                    );
                }
                for r in 0..regions {
                    assert!(owners.contains(&r), "region {r} owns nothing: {owners:?}");
                }
            }
        }
    }
}
