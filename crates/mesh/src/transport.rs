//! The in-process mesh: how encoded frames travel between regions.
//!
//! A [`Transport`] carries opaque byte frames (already encoded in the
//! [`crate::wire`] format) from sender to destination inbox. Frames
//! sent at tick `T` become deliverable at tick `T + 1` — a synchronous
//! barrier per tick — and are handed out in deterministic order:
//! send order, which the runtime fixes by driving workers in region
//! order. Two implementations:
//!
//! * [`Lossless`] — every frame arrives exactly once, next tick, in
//!   order. Under this transport the mesh trajectory is bit-identical
//!   to `GradientAlgorithm` (the tentpole oracle).
//! * [`Chaotic`] — consults a seeded [`MeshFaultPlan`] per frame:
//!   loss, duplication, bounded delay, and region partitions with
//!   staggered heal. Every injected fault is logged as a
//!   [`MeshIncident`], and two runs from the same seed inject — and
//!   log — exactly the same faults.
//!
//! Since the wire v2 coalescing layer, a worker ships **one batch
//! frame per (link, tick)**, so each fault draw applies to the whole
//! batch (`kind = "batch"` in incidents) — exactly one draw per link
//! per tick, same as the v1 per-payload schedule at one frame per
//! link. Senders pass borrowed bytes and receivers drain into a
//! caller-owned [`Inbox`] arena; both transports recycle their
//! internal frame buffers through spare pools, so the steady-state
//! transport path allocates nothing.

use crate::fault::MeshFaultPlan;
use crate::incident::MeshIncident;
use crate::wire::Frame;
use std::collections::VecDeque;

/// A flat arena of received frames: one contiguous byte buffer plus
/// frame spans, reused across ticks so delivery never allocates once
/// warm.
///
/// Growth is **budgeted**: the arena is cleared at every delivery, so
/// [`Inbox::budget`] caps how many bytes one (tick, region) delivery
/// may hold. A peer flooding duplicates used to grow `bytes` without
/// bound within a tick; now [`Inbox::push`] refuses the frame once the
/// budget is reached (the transport logs a
/// [`MeshIncident::InboxOverflow`]) and the arena never allocates past
/// its high-water mark. The refusal path performs no allocation, so
/// the warm-path zero-alloc gates are preserved.
#[derive(Debug)]
pub struct Inbox {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
    budget: usize,
}

impl Default for Inbox {
    fn default() -> Self {
        Inbox {
            bytes: Vec::new(),
            spans: Vec::new(),
            budget: usize::MAX,
        }
    }
}

impl Inbox {
    /// An empty inbox with an unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        Inbox::default()
    }

    /// An empty inbox refusing frames past `budget` held bytes.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        Inbox {
            budget,
            ..Inbox::default()
        }
    }

    /// Sets the per-delivery byte budget (the cap on `bytes` held at
    /// once; the arena is cleared per delivery, so this bounds per-tick
    /// growth).
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// The per-delivery byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Forgets all frames, keeping capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    /// Appends one frame. Returns `false` — refusing the frame without
    /// allocating — if holding it would exceed the byte budget.
    #[must_use]
    pub fn push(&mut self, frame: &[u8]) -> bool {
        let start = self.bytes.len();
        if start + frame.len() > self.budget {
            return false;
        }
        self.bytes.extend_from_slice(frame);
        self.spans.push((start, self.bytes.len()));
        true
    }

    /// The frames, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.spans.iter().map(move |&(s, e)| &self.bytes[s..e])
    }

    /// Number of frames held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Is the inbox empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Sender region of a trusted, well-formed frame (header bytes 5..7).
fn frame_from(bytes: &[u8]) -> usize {
    usize::from(u16::from_le_bytes([bytes[5], bytes[6]]))
}

/// Pushes `bytes` into `inbox`, logging a
/// [`MeshIncident::InboxOverflow`] if the budget refuses the frame.
/// Returns whether the frame was accepted.
pub(crate) fn push_or_log(
    inbox: &mut Inbox,
    tick: u64,
    to: usize,
    bytes: &[u8],
    log: &mut Vec<MeshIncident>,
) -> bool {
    if inbox.push(bytes) {
        return true;
    }
    log.push(MeshIncident::InboxOverflow {
        tick,
        region: to,
        from: frame_from(bytes),
        dropped: bytes.len() as u64,
    });
    false
}

/// A frame conduit between region workers. All methods take the
/// current transport tick; implementations must be deterministic
/// functions of (construction arguments, call sequence).
pub trait Transport {
    /// Called once per tick before any send or deliver, so the
    /// transport can log scheduled events (partition cuts and heals).
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>);

    /// Pumps the transport and reports whether everything deliverable
    /// to `to` at `tick` is known to have arrived. In-process
    /// transports hold frames behind a synchronous barrier, so they are
    /// always ready; the socket transport tracks per-peer tick markers
    /// and reports readiness only once every live peer's sends through
    /// `tick - 1` are in hand. The runtime's deadline driver polls this
    /// and advances the phase anyway once the phase deadline expires
    /// (logging [`MeshIncident::PhaseDeadlineExpired`]).
    fn ready(&mut self, tick: u64, to: usize) -> bool {
        let _ = (tick, to);
        true
    }

    /// Queues an encoded frame from `from` to `to`. The transport
    /// copies the bytes it keeps; the caller retains the buffer.
    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    );

    /// Drains every frame deliverable to `to` at `tick` (frames sent
    /// strictly earlier, plus any delayed frames now due) into
    /// `inbox`, in deterministic order. Clears the inbox first.
    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    );
}

/// Synchronous-barrier delivery: every frame arrives exactly once at
/// the tick after it was sent, in send order. Per-destination queues
/// hold frames back until their barrier tick; drained frame buffers
/// are recycled through a spare pool.
pub struct Lossless {
    /// Per destination: `(sent_tick, bytes)` in send order.
    lanes: Vec<VecDeque<(u64, Vec<u8>)>>,
    /// Recycled frame buffers.
    spare: Vec<Vec<u8>>,
}

impl Lossless {
    /// A lossless mesh between `regions` workers.
    #[must_use]
    pub fn new(regions: usize) -> Self {
        Lossless {
            lanes: (0..regions).map(|_| VecDeque::new()).collect(),
            spare: Vec::new(),
        }
    }

    fn buffer(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }
}

impl Transport for Lossless {
    fn begin_tick(&mut self, _tick: u64, _log: &mut Vec<MeshIncident>) {}

    fn send(
        &mut self,
        tick: u64,
        _from: usize,
        to: usize,
        bytes: &[u8],
        _log: &mut Vec<MeshIncident>,
    ) {
        let buf = self.buffer(bytes);
        self.lanes[to].push_back((tick, buf));
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        inbox.clear();
        let lane = &mut self.lanes[to];
        // barrier: only frames sent strictly before this tick
        while matches!(lane.front(), Some(&(sent, _)) if sent < tick) {
            let (_, bytes) = lane.pop_front().expect("front checked");
            push_or_log(inbox, tick, to, &bytes, log);
            self.spare.push(bytes);
        }
    }
}

/// Fault-injecting delivery driven by a seeded [`MeshFaultPlan`]:
/// per-frame loss, duplication, and bounded delay draws plus region
/// partitions with staggered heal. Deterministic: the same plan and the
/// same call sequence inject the same faults and log the same
/// incidents.
pub struct Chaotic {
    plan: MeshFaultPlan,
    /// Pending frames per destination: `(deliver_tick, order, bytes)`,
    /// kept sorted by `(deliver_tick, order)`.
    pending: Vec<Vec<(u64, u64, Vec<u8>)>>,
    /// Monotone insertion counter — the deterministic tiebreak.
    order: u64,
    /// Recycled frame buffers.
    spare: Vec<Vec<u8>>,
}

impl Chaotic {
    /// A chaotic mesh between `regions` workers under `plan`.
    #[must_use]
    pub fn new(plan: MeshFaultPlan, regions: usize) -> Self {
        Chaotic {
            plan,
            pending: (0..regions).map(|_| Vec::new()).collect(),
            order: 0,
            spare: Vec::new(),
        }
    }

    fn enqueue(&mut self, to: usize, deliver_tick: u64, bytes: &[u8]) {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        let order = self.order;
        self.order += 1;
        let queue = &mut self.pending[to];
        let at = queue.partition_point(|&(dt, o, _)| (dt, o) <= (deliver_tick, order));
        queue.insert(at, (deliver_tick, order, buf));
    }

    fn frame_kind(bytes: &[u8]) -> crate::wire::FrameKind {
        // frames come from our own workers; peeking cannot fail
        Frame::peek_kind(bytes).expect("well-formed frame")
    }
}

impl Transport for Chaotic {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        for p in self.plan.partitions() {
            if p.at == tick {
                log.push(MeshIncident::PartitionStarted {
                    tick,
                    region: p.region,
                });
            }
            for (peer, &heal) in p.heal.iter().enumerate() {
                if peer != p.region && heal == tick {
                    log.push(MeshIncident::LinkHealed {
                        tick,
                        region: p.region,
                        peer,
                    });
                }
            }
            if p.healed_at == tick && p.at < tick {
                log.push(MeshIncident::PartitionHealed {
                    tick,
                    region: p.region,
                });
            }
        }
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
        let kind = Self::frame_kind(bytes);
        if self.plan.link_blocked(tick, from, to) || self.plan.drops_frame(tick, from, to) {
            log.push(MeshIncident::FrameLost {
                tick,
                from,
                to,
                kind,
            });
            return;
        }
        let delay = self.plan.delay_ticks(tick, from, to);
        let deliver_tick = tick + 1 + delay;
        if delay > 0 {
            log.push(MeshIncident::FrameDelayed {
                tick,
                from,
                to,
                kind,
                until: deliver_tick,
            });
        }
        if self.plan.duplicates_frame(tick, from, to) {
            log.push(MeshIncident::FrameDuplicated {
                tick,
                from,
                to,
                kind,
            });
            self.enqueue(to, deliver_tick, bytes);
        }
        self.enqueue(to, deliver_tick, bytes);
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        inbox.clear();
        let queue = &mut self.pending[to];
        let due = queue.partition_point(|&(dt, _, _)| dt <= tick);
        for (_, _, bytes) in queue.drain(..due) {
            push_or_log(inbox, tick, to, &bytes, log);
            self.spare.push(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{MeshFaultConfig, PartitionSpec};
    use crate::wire::Payload;

    fn hb(from: u16, to: u16, round: u64) -> Vec<u8> {
        Frame {
            from,
            to,
            seq: 0,
            round,
            payload: Payload::Heartbeat,
        }
        .encode()
    }

    fn drain(
        t: &mut impl Transport,
        tick: u64,
        to: usize,
        log: &mut Vec<MeshIncident>,
    ) -> Vec<Vec<u8>> {
        let mut inbox = Inbox::new();
        t.deliver_into(tick, to, &mut inbox, log);
        inbox.iter().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn lossless_delivers_next_tick_in_order() {
        let mut t = Lossless::new(2);
        let mut log = Vec::new();
        t.send(5, 0, 1, &hb(0, 1, 1), &mut log);
        t.send(5, 0, 1, &hb(0, 1, 2), &mut log);
        // same tick: barrier holds them back
        assert!(drain(&mut t, 5, 1, &mut log).is_empty());
        let got = drain(&mut t, 6, 1, &mut log);
        assert_eq!(got.len(), 2);
        assert_eq!(Frame::decode(&got[0]).unwrap().round, 1);
        assert_eq!(Frame::decode(&got[1]).unwrap().round, 2);
        // drained: nothing left
        assert!(drain(&mut t, 7, 1, &mut log).is_empty());
        assert!(log.is_empty());
    }

    #[test]
    fn inbox_reuse_does_not_leak_frames() {
        let mut t = Lossless::new(2);
        let mut log = Vec::new();
        let mut inbox = Inbox::new();
        t.send(0, 0, 1, &hb(0, 1, 7), &mut log);
        t.deliver_into(1, 1, &mut inbox, &mut log);
        assert_eq!(inbox.len(), 1);
        // next delivery with nothing pending clears the previous content
        t.deliver_into(2, 1, &mut inbox, &mut log);
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }

    #[test]
    fn inbox_budget_refuses_floods_and_logs() {
        let frame = hb(0, 1, 1);
        let mut inbox = Inbox::with_budget(frame.len() + 1);
        assert!(inbox.push(&frame));
        assert!(!inbox.push(&frame));
        assert_eq!(inbox.len(), 1);
        inbox.clear();
        // the budget caps bytes held at once — per delivery, not forever
        assert!(inbox.push(&frame));

        // a transport logs each refusal as an incident and keeps going
        let mut t = Lossless::new(2);
        let mut log = Vec::new();
        t.send(0, 0, 1, &frame, &mut log);
        t.send(0, 0, 1, &frame, &mut log);
        let mut small = Inbox::with_budget(frame.len());
        t.deliver_into(1, 1, &mut small, &mut log);
        assert_eq!(small.len(), 1);
        assert_eq!(
            log,
            vec![MeshIncident::InboxOverflow {
                tick: 1,
                region: 1,
                from: 0,
                dropped: frame.len() as u64,
            }]
        );
    }

    #[test]
    fn chaotic_same_seed_same_incidents() {
        let cfg = MeshFaultConfig {
            seed: 5,
            loss: 0.3,
            duplicate: 0.2,
            delay_prob: 0.3,
            max_delay: 2,
            partitions: vec![PartitionSpec {
                region: 1,
                at: 4,
                duration: 3,
                heal_stagger: 2,
            }],
        };
        let run = || {
            let mut t = Chaotic::new(MeshFaultPlan::compile(&cfg, 3), 3);
            let mut log = Vec::new();
            let mut delivered = Vec::new();
            for tick in 0..20u64 {
                t.begin_tick(tick, &mut log);
                for from in 0..3u16 {
                    for to in 0..3u16 {
                        if from != to {
                            t.send(
                                tick,
                                from as usize,
                                to as usize,
                                &hb(from, to, tick),
                                &mut log,
                            );
                        }
                    }
                }
                for to in 0..3usize {
                    delivered.push((tick, to, drain(&mut t, tick, to, &mut log).len()));
                }
            }
            (log, delivered)
        };
        let (log_a, del_a) = run();
        let (log_b, del_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(del_a, del_b);
        assert!(log_a
            .iter()
            .any(|i| matches!(i, MeshIncident::PartitionStarted { .. })));
        assert!(log_a
            .iter()
            .any(|i| matches!(i, MeshIncident::FrameLost { .. })));
    }

    #[test]
    fn chaotic_with_plan_off_matches_lossless() {
        let mut chaotic = Chaotic::new(MeshFaultPlan::compile(&MeshFaultConfig::off(), 2), 2);
        let mut lossless = Lossless::new(2);
        let mut log = Vec::new();
        for tick in 0..10u64 {
            chaotic.begin_tick(tick, &mut log);
            lossless.begin_tick(tick, &mut log);
            chaotic.send(tick, 0, 1, &hb(0, 1, tick), &mut log);
            lossless.send(tick, 0, 1, &hb(0, 1, tick), &mut log);
            let a = drain(&mut chaotic, tick, 1, &mut log);
            let b = drain(&mut lossless, tick, 1, &mut log);
            assert_eq!(a, b);
        }
        assert!(log.is_empty());
    }
}
