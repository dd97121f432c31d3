//! Real-socket transport: wire-v2 frames over TCP or Unix-domain
//! streams, with marker-based readiness instead of a tick barrier.
//!
//! [`SocketTransport`] is the third [`Transport`]: every frame a worker
//! sends crosses a real kernel byte stream — one duplex connection per
//! unordered region pair ([`SocketKind::Unix`] via `socketpair(2)`,
//! [`SocketKind::Tcp`] via a loopback listener with `TCP_NODELAY`) —
//! so the protocol pays partial reads, arbitrary chunk boundaries, and
//! wall-clock skew. The stream carries two record types:
//!
//! ```text
//! frame record: tag 0u8, deliver_tick u64, order u64, wire-v2 frame
//! tick marker:  tag 1u8, tick u64
//! ```
//!
//! The wire frame is **self-delimiting** (its header carries the
//! payload length), so the receive side reframes with
//! [`crate::wire::frame_len`] — the same incremental length-prefix
//! logic [`crate::wire::FrameAssembler`] pins down at every split
//! offset — and never needs a redundant length field.
//!
//! **Why the envelope.** The in-process transports deliver in a
//! deterministic order (the driver's region order, refined by
//! `Chaotic`'s `(deliver_tick, order)` sort). The sender stamps each
//! record with exactly that key, and every receiver merges its peers'
//! streams by it — so a loopback socket run replays the *identical*
//! frame sequence the in-process transport would deliver, and the
//! `Lossless` bit-identity oracle (ARCHITECTURE invariant 21) survives
//! the kernel. A distributed deployment would stamp
//! `(deliver_tick, sender, per-sender seq)` instead; the merge logic is
//! unchanged.
//!
//! **Readiness without a barrier — the marker gates the I/O.** A batch
//! is only sent when a worker has something to say, so "nothing arrived
//! from peer `p`" is ambiguous — not sent, or not *yet* arrived? Nothing
//! sent at tick `T − 1` is deliverable before `T`, so a send only
//! appends to its link's backlog; `begin_tick(T)` appends marker `T − 1`
//! ("all my sends at ticks ≤ T − 1 precede this") and issues the link's
//! single `write(2)`. Streams are FIFO, so a receiver holding a peer's
//! marker `T − 1` holds every record from it with `deliver_tick ≤ T` and
//! needs no further I/O on that link this tick: [`Transport::ready`]
//! reads only `to`'s inbound links whose watermark is still short, each
//! until a short read (fewer bytes than asked = drained), and
//! `deliver_into` reads only if the runtime's phase deadline expired
//! first, collecting what the lagging links have. A healthy loopback
//! pays `2·R·(R−1)` syscalls per tick ([`SocketTransport::io_stats`]).
//!
//! **Never-blocking sends.** Every socket is nonblocking; bytes the
//! kernel refuses stay in the backlog and mark the link *stalled*. Every
//! `ready`/`deliver_into` first re-flushes exactly the stalled links, so
//! the single-threaded loopback driver cannot deadlock on a full socket
//! buffer: each poll drains the receive side, the next refills it.
//!
//! [`FaultyStream`] is the netem-style shim: each directed link applies
//! the same seeded [`MeshFaultPlan`] draws `Chaotic` uses — loss,
//! duplication, bounded delay, partitions with staggered heal — *before
//! bytes reach the kernel*, and logs the same [`MeshIncident`]s keyed
//! on the same `(tick, from, to)`, so existing `MeshFaultConfig`
//! scripts, chaos soaks, and incident-log oracles transfer to the
//! socket layer unchanged: a same-seed faulty socket run is
//! record-for-record and incident-for-incident equal to `Chaotic`.
//! Markers are never faulted — the clock always advances, exactly as
//! `Chaotic::begin_tick` always runs. A seeded read-chunking knob
//! ([`SocketOptions::split_seed`]) additionally caps every read at a
//! drawn 1..=31 bytes, forcing the reframer through mid-header and
//! mid-payload states on real traffic.

use crate::fault::{MeshFaultConfig, MeshFaultPlan};
use crate::incident::MeshIncident;
use crate::transport::{push_or_log, Inbox, Transport};
use crate::wire::{frame_len, Frame};
use spn_sim::draws::{salts, unit_hash};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;

/// Frame-record tag byte.
const REC_FRAME: u8 = 0;
/// Tick-marker tag byte.
const REC_MARKER: u8 = 1;
/// Frame-record envelope: tag + deliver_tick + order.
const FRAME_ENVELOPE: usize = 1 + 8 + 8;
/// Marker record length: tag + tick.
const MARKER_LEN: usize = 1 + 8;
/// Read size per `read(2)` when seeded chunking is off.
const READ_CHUNK: usize = 16 * 1024;

/// Which kernel stream family carries the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain stream sockets (`socketpair(2)` — no filesystem
    /// paths to manage).
    Unix,
    /// Loopback TCP (`127.0.0.1`, ephemeral ports, `TCP_NODELAY`).
    Tcp,
}

/// Socket transport tunables.
#[derive(Clone, Debug, PartialEq)]
pub struct SocketOptions {
    /// Stream family.
    pub kind: SocketKind,
    /// Sender-side netem-style fault plan applied by every link's
    /// [`FaultyStream`] (`None` = faithful delivery, the `Lossless`
    /// analogue).
    pub faults: Option<MeshFaultConfig>,
    /// When set, every `read(2)` is capped at a seeded 1..=31 bytes
    /// (drawn through [`spn_sim::draws`] under `SALT_SPLIT`), forcing
    /// the receive-side reframer through split headers and split
    /// payloads on real traffic. Parsing is split-invariant, so this
    /// changes nothing observable — which is exactly what the
    /// equivalence oracles pin.
    pub split_seed: Option<u64>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            kind: SocketKind::Unix,
            faults: None,
            split_seed: None,
        }
    }
}

/// Kernel I/O counters, summed over every link of one
/// [`SocketTransport`] (see [`SocketTransport::io_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketIoStats {
    /// `read(2)` calls issued.
    pub reads: u64,
    /// `write(2)` calls issued.
    pub writes: u64,
    /// Calls of either kind the kernel refused with `EAGAIN`.
    pub would_block: u64,
    /// Bytes the kernel accepted.
    pub bytes_written: u64,
}

/// One nonblocking duplex kernel stream.
#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// A netem-style shim around one **directed** link's stream: applies
/// the shared seeded [`MeshFaultPlan`] to every frame record before its
/// bytes reach the kernel (loss, duplication, bounded delay, partition
/// windows — the same draws, salts, and incident schema as `Chaotic`),
/// coalesces each tick's records in a userland send backlog (one write
/// per tick, never blocking), and caps reads at seeded chunk sizes when
/// split exercising is on.
///
/// Tick markers pass through unfaulted: the clock always advances.
#[derive(Debug)]
pub struct FaultyStream {
    io: Stream,
    plan: Option<MeshFaultPlan>,
    split_seed: Option<u64>,
    /// Userland send backlog: bytes the kernel has not yet taken.
    tx: Vec<u8>,
    tx_at: usize,
    /// The last flush hit `WouldBlock`; re-flushed at the next poll.
    stalled: bool,
    /// This link's counters; `reads` also keys the chunk-cap draws.
    stats: SocketIoStats,
}

impl FaultyStream {
    fn new(io: Stream, plan: Option<MeshFaultPlan>, split_seed: Option<u64>) -> Self {
        FaultyStream {
            io,
            plan,
            split_seed,
            tx: Vec::new(),
            tx_at: 0,
            stalled: false,
            stats: SocketIoStats::default(),
        }
    }

    /// Applies the plan's draws for `(tick, from, to)` and queues the
    /// surviving record(s) behind the next marker. `order` is the
    /// transport's shared monotone insertion counter; a duplicate
    /// consumes its slot *before* the original, exactly like
    /// `Chaotic::send`, so same-seed delivery order is identical.
    fn send_frame(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        frame: &[u8],
        order: &mut u64,
        log: &mut Vec<MeshIncident>,
    ) {
        let mut deliver_tick = tick + 1;
        if let Some(plan) = &self.plan {
            // frames come from our own workers; peeking cannot fail
            let kind = Frame::peek_kind(frame).expect("well-formed frame");
            if plan.link_blocked(tick, from, to) || plan.drops_frame(tick, from, to) {
                log.push(MeshIncident::FrameLost {
                    tick,
                    from,
                    to,
                    kind,
                });
                return;
            }
            let delay = plan.delay_ticks(tick, from, to);
            deliver_tick += delay;
            if delay > 0 {
                log.push(MeshIncident::FrameDelayed {
                    tick,
                    from,
                    to,
                    kind,
                    until: deliver_tick,
                });
            }
            if plan.duplicates_frame(tick, from, to) {
                log.push(MeshIncident::FrameDuplicated {
                    tick,
                    from,
                    to,
                    kind,
                });
                self.push_record(deliver_tick, *order, frame);
                *order += 1;
            }
        }
        self.push_record(deliver_tick, *order, frame);
        *order += 1;
    }

    /// Appends one frame record to the send backlog.
    fn push_record(&mut self, deliver_tick: u64, order: u64, frame: &[u8]) {
        self.tx.push(REC_FRAME);
        self.tx.extend_from_slice(&deliver_tick.to_le_bytes());
        self.tx.extend_from_slice(&order.to_le_bytes());
        self.tx.extend_from_slice(frame);
    }

    /// Appends a tick marker ("all my sends through `tick` precede
    /// this") and hands the tick's whole backlog to the kernel.
    fn push_marker(&mut self, tick: u64) {
        self.tx.push(REC_MARKER);
        self.tx.extend_from_slice(&tick.to_le_bytes());
        self.flush();
    }

    /// Writes as much backlog as the kernel will take right now.
    /// Never blocks; leftover bytes stay queued and stall the link.
    fn flush(&mut self) {
        let from = self.tx_at;
        while self.tx_at < self.tx.len() {
            self.stats.writes += 1;
            match self.io.write(&self.tx[self.tx_at..]) {
                Ok(0) => panic!("mesh socket peer closed mid-write"),
                Ok(n) => self.tx_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("mesh socket write failed: {e}"),
            }
        }
        self.stats.bytes_written += (self.tx_at - from) as u64;
        // bytes are only ever left behind by the `WouldBlock` break
        self.stalled = self.tx_at < self.tx.len();
        self.stats.would_block += u64::from(self.stalled);
        if !self.stalled {
            self.tx.clear();
            self.tx_at = 0;
        }
    }

    /// Reads one chunk into `rx` at the fill cursor `end` (`rx` keeps
    /// its high-water length: a warm read zero-fills nothing). Returns
    /// `false` once drained — a read short of its cap left nothing.
    fn read_chunk(&mut self, rx: &mut Vec<u8>, end: &mut usize, owner: usize, peer: usize) -> bool {
        let cap = match self.split_seed {
            // seeded tiny reads: force the reframer through every
            // mid-record state on real traffic
            Some(seed) => {
                let key = self.stats.reads as usize;
                1 + (unit_hash(seed ^ salts::SALT_SPLIT, key, owner, peer) * 31.0) as usize
            }
            None => READ_CHUNK,
        };
        rx.resize(rx.len().max(*end + cap), 0);
        self.stats.reads += 1;
        match self.io.read(&mut rx[*end..*end + cap]) {
            Ok(n) => {
                *end += n;
                n == cap
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.stats.would_block += 1;
                false
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => true,
            Err(e) => panic!("mesh socket read failed: {e}"),
        }
    }
}

/// One region's end of one pair's duplex stream: the owning region
/// writes its frames to the peer here and reads the peer's records
/// back out of it.
#[derive(Debug)]
struct Endpoint {
    link: FaultyStream,
    owner: usize,
    peer: usize,
    /// Inbound buffer, kept at its high-water length; `rx[..rx_end]`
    /// is the partial record (if any) the last pump left unparsed.
    rx: Vec<u8>,
    rx_end: usize,
    /// Highest "sends complete through tick" marker received.
    marker: Option<u64>,
}

impl Endpoint {
    fn new(link: FaultyStream, owner: usize, peer: usize) -> Self {
        Endpoint {
            link,
            owner,
            peer,
            rx: Vec::new(),
            rx_end: 0,
            marker: None,
        }
    }

    /// Drains the kernel receive buffer and parses complete records:
    /// markers update the watermark, frame records land in `pending`
    /// sorted by `(deliver_tick, order)` — the same order `Chaotic`
    /// enqueues in.
    fn pump(&mut self, pending: &mut Vec<(u64, u64, Vec<u8>)>, spare: &mut Vec<Vec<u8>>) {
        let link = &mut self.link;
        while link.read_chunk(&mut self.rx, &mut self.rx_end, self.owner, self.peer) {}
        let mut at = 0;
        loop {
            let buf = &self.rx[at..self.rx_end];
            if buf.is_empty() {
                break;
            }
            match buf[0] {
                REC_MARKER => {
                    if buf.len() < MARKER_LEN {
                        break;
                    }
                    let tick = u64::from_le_bytes(buf[1..MARKER_LEN].try_into().expect("8 bytes"));
                    self.marker = Some(self.marker.map_or(tick, |m| m.max(tick)));
                    at += MARKER_LEN;
                }
                REC_FRAME => {
                    if buf.len() < FRAME_ENVELOPE {
                        break;
                    }
                    let total = match frame_len(&buf[FRAME_ENVELOPE..]) {
                        Ok(Some(len)) => len,
                        Ok(None) => break,
                        // the peer is our own worker over a connected
                        // stream; garbage here is a protocol bug
                        Err(e) => panic!("desynced mesh socket stream: {e}"),
                    };
                    if buf.len() < FRAME_ENVELOPE + total {
                        break;
                    }
                    let deliver = u64::from_le_bytes(buf[1..9].try_into().expect("8 bytes"));
                    let order = u64::from_le_bytes(buf[9..17].try_into().expect("8 bytes"));
                    let mut owned = spare.pop().unwrap_or_default();
                    owned.clear();
                    owned.extend_from_slice(&buf[FRAME_ENVELOPE..FRAME_ENVELOPE + total]);
                    let slot = pending.partition_point(|&(dt, o, _)| (dt, o) <= (deliver, order));
                    pending.insert(slot, (deliver, order, owned));
                    at += FRAME_ENVELOPE + total;
                }
                other => panic!("desynced mesh socket stream: unknown record tag {other}"),
            }
        }
        // a trailing partial record moves to the front
        self.rx.copy_within(at..self.rx_end, 0);
        self.rx_end -= at;
    }
}

/// The real-socket [`Transport`]: one duplex stream per unordered
/// region pair, frame records merged back into the in-process delivery
/// order by their `(deliver_tick, order)` envelope, readiness tracked
/// through per-peer tick markers. See the module docs for the protocol
/// and the equivalence argument.
#[derive(Debug)]
pub struct SocketTransport {
    regions: usize,
    /// `endpoints[owner * regions + peer]`; `None` on the diagonal.
    endpoints: Vec<Option<Endpoint>>,
    /// Per destination: `(deliver_tick, order, frame)`, sorted.
    pending: Vec<Vec<(u64, u64, Vec<u8>)>>,
    /// Shared monotone insertion counter (the deterministic tiebreak).
    order: u64,
    /// Recycled frame buffers.
    spare: Vec<Vec<u8>>,
    /// The compiled fault plan, kept for `begin_tick`'s partition
    /// schedule incidents (each link's [`FaultyStream`] holds its own
    /// clone for the per-frame draws — draws are pure, so clones answer
    /// identically).
    plan: Option<MeshFaultPlan>,
}

impl SocketTransport {
    /// Builds the full mesh of streams for `regions` workers: one
    /// connected nonblocking duplex stream per unordered pair.
    ///
    /// # Errors
    ///
    /// Any socket-layer failure (`socketpair`, `bind`, `connect`,
    /// `accept`, or option setting) is returned as the raw
    /// [`io::Error`].
    pub fn connect(regions: usize, options: &SocketOptions) -> io::Result<Self> {
        let plan = options
            .faults
            .as_ref()
            .map(|f| MeshFaultPlan::compile(f, regions));
        let mut endpoints: Vec<Option<Endpoint>> = (0..regions * regions).map(|_| None).collect();
        for a in 0..regions {
            for b in (a + 1)..regions {
                let (end_a, end_b) = match options.kind {
                    SocketKind::Unix => {
                        let (x, y) = UnixStream::pair()?;
                        x.set_nonblocking(true)?;
                        y.set_nonblocking(true)?;
                        (Stream::Unix(x), Stream::Unix(y))
                    }
                    SocketKind::Tcp => {
                        let listener = TcpListener::bind(("127.0.0.1", 0))?;
                        let addr = listener.local_addr()?;
                        let client = TcpStream::connect(addr)?;
                        let (server, _) = listener.accept()?;
                        for s in [&client, &server] {
                            s.set_nodelay(true)?;
                            s.set_nonblocking(true)?;
                        }
                        (Stream::Tcp(client), Stream::Tcp(server))
                    }
                };
                endpoints[a * regions + b] = Some(Endpoint::new(
                    FaultyStream::new(end_a, plan.clone(), options.split_seed),
                    a,
                    b,
                ));
                endpoints[b * regions + a] = Some(Endpoint::new(
                    FaultyStream::new(end_b, plan.clone(), options.split_seed),
                    b,
                    a,
                ));
            }
        }
        Ok(SocketTransport {
            regions,
            endpoints,
            pending: (0..regions).map(|_| Vec::new()).collect(),
            order: 0,
            spare: Vec::new(),
            plan,
        })
    }

    /// Kernel I/O counters summed over every link.
    #[must_use]
    pub fn io_stats(&self) -> SocketIoStats {
        let mut total = SocketIoStats::default();
        for ep in self.endpoints.iter().flatten() {
            total.reads += ep.link.stats.reads;
            total.writes += ep.link.stats.writes;
            total.would_block += ep.link.stats.would_block;
            total.bytes_written += ep.link.stats.bytes_written;
        }
        total
    }

    /// Re-flushes the stalled links (loopback holds both ends: this is
    /// what keeps never-blocking sends deadlock-free), then reads `to`'s
    /// inbound links still short of marker `tick - 1`; `true` = none is.
    fn pump_inbound(&mut self, tick: u64, to: usize) -> bool {
        for ep in self.endpoints.iter_mut().flatten() {
            if ep.link.stalled {
                ep.link.flush();
            }
        }
        // `None` at tick 0: nothing can be due, every link is ready
        let need = tick.checked_sub(1);
        let mut ready = true;
        let row = to * self.regions;
        for ep in self.endpoints[row..row + self.regions].iter_mut().flatten() {
            if ep.marker < need {
                ep.pump(&mut self.pending[to], &mut self.spare);
                ready &= ep.marker >= need;
            }
        }
        ready
    }
}

impl Transport for SocketTransport {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        // the same partition schedule incidents Chaotic logs
        if let Some(plan) = &self.plan {
            for p in plan.partitions() {
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
        // entering tick T, every send of T-1 has been issued: publish
        // the watermark, and the batch queued behind it, on every link
        // (markers are never faulted — the clock always advances)
        if tick > 0 {
            for ep in self.endpoints.iter_mut().flatten() {
                ep.link.push_marker(tick - 1);
            }
        }
    }

    fn ready(&mut self, tick: u64, to: usize) -> bool {
        self.pump_inbound(tick, to)
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
        let ep = self.endpoints[from * self.regions + to]
            .as_mut()
            .expect("send to self");
        ep.link
            .send_frame(tick, from, to, bytes, &mut self.order, log);
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        inbox.clear();
        // reads only past an expired deadline: markers in hand ⇒ no I/O
        self.pump_inbound(tick, to);
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
    use crate::fault::PartitionSpec;
    use crate::transport::{Chaotic, Lossless};
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

    /// A delivered heartbeat: `(tick, to, from, round)`.
    type Delivery = (u64, usize, u16, u64);

    /// Drives `ticks` of an all-pairs schedule — every region in order
    /// awaits readiness, takes its deliveries, then sends each peer the
    /// frames `frames(tick, from, to)` returns — and returns
    /// `(incidents, deliveries)` in delivery order.
    fn drive_with(
        t: &mut impl Transport,
        regions: usize,
        ticks: u64,
        frames: impl Fn(u64, usize, usize) -> Vec<Vec<u8>>,
    ) -> (Vec<MeshIncident>, Vec<Delivery>) {
        let mut log = Vec::new();
        let mut seen = Vec::new();
        let mut inbox = Inbox::new();
        for tick in 0..ticks {
            t.begin_tick(tick, &mut log);
            for to in 0..regions {
                // TCP loopback delivery is not synchronous with write,
                // and a stalled link drains one socket buffer per poll;
                // spin briefly instead of asserting instant readiness
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while !t.ready(tick, to) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "tick {tick} region {to} never became ready"
                    );
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                t.deliver_into(tick, to, &mut inbox, &mut log);
                for bytes in inbox.iter() {
                    let f = Frame::decode(bytes).expect("well-formed");
                    seen.push((tick, to, f.from, f.round));
                }
                for peer in (0..regions).filter(|&p| p != to) {
                    for frame in frames(tick, to, peer) {
                        t.send(tick, to, peer, &frame, &mut log);
                    }
                }
            }
        }
        (log, seen)
    }

    /// [`drive_with`] one heartbeat per link per tick.
    fn drive(
        t: &mut impl Transport,
        regions: usize,
        ticks: u64,
    ) -> (Vec<MeshIncident>, Vec<Delivery>) {
        drive_with(t, regions, ticks, |tick, from, to| {
            vec![hb(from as u16, to as u16, tick)]
        })
    }

    #[test]
    fn loopback_sockets_match_lossless_delivery() {
        for kind in [SocketKind::Unix, SocketKind::Tcp] {
            let options = SocketOptions {
                kind,
                ..SocketOptions::default()
            };
            let mut socket = SocketTransport::connect(3, &options).expect("sockets");
            let mut lossless = Lossless::new(3);
            let (log_s, seen_s) = drive(&mut socket, 3, 12);
            let (log_l, seen_l) = drive(&mut lossless, 3, 12);
            assert_eq!(seen_s, seen_l, "{kind:?} delivery diverged");
            assert!(log_s.is_empty());
            assert!(log_l.is_empty());
        }
    }

    #[test]
    fn faulty_stream_matches_chaotic_exactly() {
        let faults = MeshFaultConfig {
            seed: 77,
            loss: 0.25,
            duplicate: 0.15,
            delay_prob: 0.25,
            max_delay: 3,
            partitions: vec![PartitionSpec {
                region: 1,
                at: 6,
                duration: 5,
                heal_stagger: 2,
            }],
        };
        let options = SocketOptions {
            kind: SocketKind::Unix,
            faults: Some(faults.clone()),
            split_seed: Some(9),
        };
        let mut socket = SocketTransport::connect(3, &options).expect("sockets");
        let mut chaotic = Chaotic::new(MeshFaultPlan::compile(&faults, 3), 3);
        let (log_s, seen_s) = drive(&mut socket, 3, 24);
        let (log_c, seen_c) = drive(&mut chaotic, 3, 24);
        assert_eq!(
            seen_s, seen_c,
            "faulty socket delivery diverged from Chaotic"
        );
        assert_eq!(
            log_s, log_c,
            "faulty socket incidents diverged from Chaotic"
        );
        assert!(log_s
            .iter()
            .any(|i| matches!(i, MeshIncident::FrameLost { .. })));
    }

    #[test]
    fn seeded_read_chunking_changes_nothing_observable() {
        let options = |seed| SocketOptions {
            kind: SocketKind::Unix,
            faults: None,
            split_seed: seed,
        };
        let mut plain = SocketTransport::connect(2, &options(None)).expect("sockets");
        let mut split = SocketTransport::connect(2, &options(Some(4))).expect("sockets");
        let a = drive(&mut plain, 2, 10);
        let b = drive(&mut split, 2, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn single_region_mesh_is_trivially_ready() {
        let mut t = SocketTransport::connect(1, &SocketOptions::default()).expect("sockets");
        let mut log = Vec::new();
        let mut inbox = Inbox::new();
        for tick in 0..5 {
            t.begin_tick(tick, &mut log);
            assert!(t.ready(tick, 0));
            t.deliver_into(tick, 0, &mut inbox, &mut log);
            assert!(inbox.is_empty());
        }
        assert!(log.is_empty());
    }

    /// The demand-driven schedule: on a healthy loopback every directed
    /// link costs one `write(2)` (the tick's batch plus its marker) and
    /// one `read(2)` (short, so no trailing `EAGAIN`) per tick. Each
    /// tick after 0 needs at least that much to move its markers, so an
    /// exact total pins every tick at `2·R·(R−1)`.
    #[test]
    fn healthy_loopback_pays_two_syscalls_per_link_per_tick() {
        const REGIONS: usize = 4;
        const LINKS: u64 = (REGIONS * (REGIONS - 1)) as u64;
        let connect =
            || SocketTransport::connect(REGIONS, &SocketOptions::default()).expect("sockets");
        // tick 0: nothing is deliverable, and its sends only queue
        let mut t = connect();
        drive(&mut t, REGIONS, 1);
        assert_eq!(t.io_stats(), SocketIoStats::default());
        let mut t = connect();
        let (log, seen) = drive(&mut t, REGIONS, 12);
        assert!(log.is_empty());
        assert_eq!(seen.len() as u64, 11 * LINKS);
        let record = (FRAME_ENVELOPE + hb(0, 1, 0).len() + MARKER_LEN) as u64;
        assert_eq!(
            t.io_stats(),
            SocketIoStats {
                reads: 11 * LINKS,
                writes: 11 * LINKS,
                would_block: 0,
                bytes_written: 11 * LINKS * record,
            }
        );
    }

    /// Back-pressure on the coalesced path: one tick queues several MiB
    /// on a single directed link — far past the UDS send buffer — so the
    /// marker's flush hits `WouldBlock`. The stalled link must drain
    /// through the following `ready` polls (no deadlock: the driver's
    /// readiness spin would time out) and deliver in exactly `Lossless`
    /// order, with and without seeded read chunking.
    #[test]
    fn stalled_link_drains_without_deadlock_in_lossless_order() {
        const FLOOD: u64 = 96;
        let big = Payload::Marginals {
            base: 0,
            entries: (0..2048)
                .map(|v| crate::wire::MarginalEntry {
                    j: 0,
                    v,
                    d: f64::from(v),
                })
                .collect(),
        };
        // tick 0 floods link 0→1 with FLOOD distinct ~32 KiB frames;
        // every other (tick, link) carries one heartbeat
        let schedule = |tick: u64, from: usize, to: usize| -> Vec<Vec<u8>> {
            if (tick, from, to) != (0, 0, 1) {
                return vec![hb(from as u16, to as u16, tick)];
            }
            (0..FLOOD)
                .map(|round| {
                    Frame {
                        from: 0,
                        to: 1,
                        seq: 0,
                        round,
                        payload: big.clone(),
                    }
                    .encode()
                })
                .collect()
        };
        let expected = drive_with(&mut Lossless::new(3), 3, 4, schedule);
        assert_eq!(expected.1.len(), FLOOD as usize - 1 + 3 * 6);
        for split_seed in [None, Some(5)] {
            let options = SocketOptions {
                split_seed,
                ..SocketOptions::default()
            };
            let mut socket = SocketTransport::connect(3, &options).expect("sockets");
            let got = drive_with(&mut socket, 3, 4, schedule);
            assert_eq!(got, expected, "split_seed {split_seed:?}");
            let stats = socket.io_stats();
            assert!(stats.would_block > 0, "the flood never stalled the link");
            assert!(stats.bytes_written > FLOOD * 32 * 1024);
            let stalled = socket.endpoints.iter().flatten().any(|ep| ep.link.stalled);
            assert!(!stalled, "a link is still stalled after the drain");
        }
    }
}
