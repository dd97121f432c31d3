//! The mesh's one transport: wire-v4 frames over ordered byte streams,
//! with marker-based readiness instead of a tick barrier.
//!
//! [`SocketTransport`] carries every frame a worker sends over one
//! duplex byte stream per unordered region pair: an in-process pipe
//! ([`SocketKind::Memory`] — two `VecDeque<u8>` queues, no file
//! descriptor), a Unix-domain socket pair ([`SocketKind::Unix`], via
//! `socketpair(2)`) or a loopback TCP connection ([`SocketKind::Tcp`],
//! with `TCP_NODELAY`). Every kind pays partial reads and arbitrary
//! chunk boundaries. The stream carries two record types:
//!
//! ```text
//! frame record: tag 0u8, deliver_tick u64, sent_tick u64, wire-v4 frame
//! tick marker:  tag 1u8, tick u64
//! ```
//!
//! The wire frame is **self-delimiting** (its header carries the
//! payload length), so [`parse_records`] — the receive side's one
//! reframer — splits the stream with [`crate::wire::frame_len`] and
//! needs no length field of its own.
//!
//! **Why the envelope.** Delivery order must be a function of what was
//! sent, never of when bytes happened to arrive. Every receiver merges
//! its peers' streams by `(deliver_tick, sent_tick, sender)` and keeps
//! FIFO order among equal keys, which only frames of one link share. So
//! at one deliver tick a frame delayed from an earlier tick comes
//! first, then frames in ascending sender order, each link's in send
//! order, and a duplicate sits next to its byte-identical original.
//! [`crate::MeshRuntime::step`] issues a tick's sends in ascending
//! sender order, so this is exactly the order one process-wide send
//! counter would give — but no counter, and no clock beyond each
//! sender's own tick, is shared. Every stream kind and every read split
//! therefore replays the identical frame sequence, and the bit-identity
//! oracles (ARCHITECTURE invariants 19 and 21) hold over all of them.
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
//! buffer: each poll drains the receive side, the next refills it. An
//! in-process pipe takes every write whole and never stalls.
//!
//! [`FaultyStream`] is the one fault injector, netem-style: each
//! directed link applies the seeded draws of the [`MeshFaultConfig`] —
//! loss, duplication, bounded delay, partitions with staggered heal —
//! *before bytes reach the stream*, and logs each fault as a
//! [`MeshIncident`] keyed on `(tick, from, to)`; the transport logs the
//! partition schedule. Markers are never faulted — the clock always
//! advances. A seeded read-chunking knob ([`SocketOptions::split_seed`])
//! additionally caps every read at a drawn 1..=31 bytes, forcing the
//! reframer through mid-header and mid-payload states on real traffic.

use crate::fault::{MeshFaultConfig, MeshFaultPlan};
use crate::incident::MeshIncident;
use crate::transport::{push_or_log, Inbox, Transport};
use crate::wire::{frame_len, Frame};
use spn_sim::draws::{salts, unit_hash};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};

/// Frame-record tag byte.
const REC_FRAME: u8 = 0;
/// Tick-marker tag byte.
const REC_MARKER: u8 = 1;
/// Frame-record envelope: tag + deliver_tick + sent_tick.
const FRAME_ENVELOPE: usize = 1 + 8 + 8;
/// Marker record length: tag + tick.
const MARKER_LEN: usize = 1 + 8;
/// Read size per `read(2)` when seeded chunking is off.
const READ_CHUNK: usize = 16 * 1024;

/// Which byte stream carries the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// In-process pipes: two `VecDeque<u8>` queues per region pair, no
    /// file descriptor and no kernel.
    Memory,
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
    /// [`FaultyStream`] (`None` = faithful delivery).
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

/// I/O counters, summed over every link of one [`SocketTransport`] (see
/// [`SocketTransport::io_stats`]). On [`SocketKind::Memory`] they count
/// pipe calls, not syscalls.
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

/// A queue one pipe end writes and the other reads.
type PipeQueue = Arc<Mutex<VecDeque<u8>>>;

/// One nonblocking duplex byte stream.
#[derive(Debug)]
enum Stream {
    /// An in-process pipe end: reads `rx`, writes `tx`.
    Memory {
        rx: PipeQueue,
        tx: PipeQueue,
    },
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Both ends of a fresh in-process pipe.
    fn pipe() -> (Stream, Stream) {
        let (a, b) = (PipeQueue::default(), PipeQueue::default());
        let near = Stream::Memory {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        };
        (near, Stream::Memory { rx: b, tx: a })
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Memory { rx, .. } => {
                let mut queue = rx.lock().expect("no pipe user panics holding it");
                // `VecDeque::read` stops at the ring's wrap point, but a
                // short read must mean "drained": take both halves
                let n = buf.len().min(queue.len());
                queue.read_exact(&mut buf[..n])?;
                Ok(n)
            }
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Memory { tx, .. } => tx
                .lock()
                .expect("no pipe user panics holding it")
                .write(buf),
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// One record of a link's byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record<'a> {
    /// Tick marker: every send of ticks ≤ this precedes it.
    Marker(u64),
    /// A wire-v4 frame in its envelope.
    Frame {
        /// First tick the frame may be delivered at.
        deliver_tick: u64,
        /// Tick the sender issued it at.
        sent_tick: u64,
        /// The frame bytes.
        frame: &'a [u8],
    },
}

/// The little-endian `u64` at the front of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Parses the complete records at the front of `buf`, handing each to
/// `on` in stream order, and returns the bytes they span. A trailing
/// partial record is left unconsumed for the next read to complete, so
/// any split of a stream into chunks parses to the same records.
///
/// # Panics
///
/// On an unknown record tag, or a frame header [`frame_len`] refuses:
/// the peer is this mesh's own worker over a connected ordered stream,
/// so garbage here is a protocol bug.
pub fn parse_records<'a>(buf: &'a [u8], mut on: impl FnMut(Record<'a>)) -> usize {
    let mut at = 0;
    while let Some(&tag) = buf.get(at) {
        let rest = &buf[at..];
        at += match tag {
            REC_MARKER => {
                if rest.len() < MARKER_LEN {
                    break;
                }
                on(Record::Marker(le_u64(&rest[1..])));
                MARKER_LEN
            }
            REC_FRAME => {
                if rest.len() < FRAME_ENVELOPE {
                    break;
                }
                let end = match frame_len(&rest[FRAME_ENVELOPE..]) {
                    Ok(Some(len)) => FRAME_ENVELOPE + len,
                    Ok(None) => break,
                    Err(e) => panic!("desynced mesh stream: {e}"),
                };
                if rest.len() < end {
                    break;
                }
                on(Record::Frame {
                    deliver_tick: le_u64(&rest[1..]),
                    sent_tick: le_u64(&rest[9..]),
                    frame: &rest[FRAME_ENVELOPE..end],
                });
                end
            }
            other => panic!("desynced mesh stream: unknown record tag {other}"),
        };
    }
    at
}

/// A netem-style shim around one **directed** link's stream: applies
/// the seeded [`MeshFaultConfig`] draws to every frame record before
/// its bytes reach the stream (loss, duplication, bounded delay,
/// partition windows), coalesces each tick's records in a userland
/// send backlog (one write per tick, never blocking), and caps reads at
/// seeded chunk sizes when split exercising is on.
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
    /// surviving record(s) behind the next marker; a duplicate goes
    /// right next to its original.
    fn send_frame(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        frame: &[u8],
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
                self.push_record(deliver_tick, tick, frame);
            }
        }
        self.push_record(deliver_tick, tick, frame);
    }

    /// Appends one frame record to the send backlog.
    fn push_record(&mut self, deliver_tick: u64, sent_tick: u64, frame: &[u8]) {
        self.tx.push(REC_FRAME);
        self.tx.extend_from_slice(&deliver_tick.to_le_bytes());
        self.tx.extend_from_slice(&sent_tick.to_le_bytes());
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

/// Frames awaiting delivery to one region, keyed `(deliver_tick,
/// sent_tick, sender)`: sorted by key, FIFO among equal keys.
type Pending = Vec<((u64, u64, usize), Vec<u8>)>;

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

    /// Drains the inbound stream and parses its complete records:
    /// markers raise the watermark, frames merge into `pending`.
    fn pump(&mut self, pending: &mut Pending, spare: &mut Vec<Vec<u8>>) {
        let link = &mut self.link;
        while link.read_chunk(&mut self.rx, &mut self.rx_end, self.owner, self.peer) {}
        let (peer, marker) = (self.peer, &mut self.marker);
        let at = parse_records(&self.rx[..self.rx_end], |record| match record {
            Record::Marker(tick) => *marker = (*marker).max(Some(tick)),
            Record::Frame {
                deliver_tick,
                sent_tick,
                frame,
            } => {
                let mut owned = spare.pop().unwrap_or_default();
                owned.clear();
                owned.extend_from_slice(frame);
                let key = (deliver_tick, sent_tick, peer);
                let slot = pending.partition_point(|&(k, _)| k <= key);
                pending.insert(slot, (key, owned));
            }
        });
        // a trailing partial record moves to the front
        self.rx.copy_within(at..self.rx_end, 0);
        self.rx_end -= at;
    }
}

/// The mesh's [`Transport`]: one duplex byte stream per unordered
/// region pair, frame records merged into delivery order by their
/// `(deliver_tick, sent_tick)` envelope and sender, readiness tracked
/// through per-peer tick markers. See the module docs for the protocol
/// and the merge-order argument.
#[derive(Debug)]
pub struct SocketTransport {
    regions: usize,
    /// `endpoints[owner * regions + peer]`; `None` on the diagonal.
    endpoints: Vec<Option<Endpoint>>,
    /// Per destination, the frames not yet delivered.
    pending: Vec<Pending>,
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
    /// [`io::Error`]. In-process pipes never fail.
    pub fn connect(regions: usize, options: &SocketOptions) -> io::Result<Self> {
        let plan = options
            .faults
            .as_ref()
            .map(|f| MeshFaultPlan::compile(f, regions));
        let mut endpoints: Vec<Option<Endpoint>> = (0..regions * regions).map(|_| None).collect();
        for a in 0..regions {
            for b in (a + 1)..regions {
                let (end_a, end_b) = match options.kind {
                    SocketKind::Memory => Stream::pipe(),
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
            spare: Vec::new(),
            plan,
        })
    }

    /// I/O counters summed over every link.
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
        // the partition schedule: cuts and (staggered) heals
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
        ep.link.send_frame(tick, from, to, bytes, log);
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
        let due = queue.partition_point(|&((deliver_tick, _, _), _)| deliver_tick <= tick);
        for (_, bytes) in queue.drain(..due) {
            push_or_log(inbox, tick, to, &bytes, log);
            self.spare.push(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PartitionSpec;
    use crate::wire::Payload;

    const KINDS: [SocketKind; 3] = [SocketKind::Memory, SocketKind::Unix, SocketKind::Tcp];

    /// A `from → to` test frame stamped `round`: an ack, the one
    /// unreliable kind.
    fn hb(from: u16, to: u16, round: u64) -> Vec<u8> {
        Frame {
            from,
            to,
            seq: 0,
            round,
            payload: Payload::Ack { cum: round },
        }
        .encode()
    }

    fn connect(regions: usize, kind: SocketKind, split_seed: Option<u64>) -> SocketTransport {
        let options = SocketOptions {
            kind,
            faults: None,
            split_seed,
        };
        SocketTransport::connect(regions, &options).expect("streams")
    }

    /// Spins until `to`'s tick is ready: TCP loopback delivery is not
    /// synchronous with write, and a stalled link drains one socket
    /// buffer per poll.
    fn await_ready(t: &mut SocketTransport, tick: u64, to: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !t.ready(tick, to) {
            assert!(
                std::time::Instant::now() < deadline,
                "tick {tick} region {to} never became ready"
            );
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// A delivered test frame: `(tick, to, from, round)`.
    type Delivery = (u64, usize, u16, u64);

    /// Drives `ticks` of an all-pairs schedule — every region in order
    /// awaits readiness, takes its deliveries, then sends each peer the
    /// frames `frames(tick, from, to)` returns — and returns
    /// `(incidents, deliveries)` in delivery order.
    fn drive_with(
        t: &mut SocketTransport,
        regions: usize,
        ticks: u64,
        frames: impl Fn(u64, usize, usize) -> Vec<Vec<u8>>,
    ) -> (Vec<MeshIncident>, Vec<Delivery>) {
        let mut log = Vec::new();
        let mut seen = Vec::new();
        let mut inbox = Inbox::default();
        for tick in 0..ticks {
            t.begin_tick(tick, &mut log);
            for to in 0..regions {
                await_ready(t, tick, to);
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

    /// [`drive_with`] one test frame per link per tick.
    fn drive(
        t: &mut SocketTransport,
        regions: usize,
        ticks: u64,
    ) -> (Vec<MeshIncident>, Vec<Delivery>) {
        drive_with(t, regions, ticks, |tick, from, to| {
            vec![hb(from as u16, to as u16, tick)]
        })
    }

    /// The merge order, written out by hand. Region 2 receives, and its
    /// peers' records are queued in *descending* sender order, so only
    /// the merge can put them right:
    ///
    /// * tick 0: region 1 sends `10`, delayed one tick; region 0 sends
    ///   `20`;
    /// * tick 1: region 1 sends `11`; region 0 sends `21` then `22`, and
    ///   `23` twice (a duplicate).
    ///
    /// At tick 2 the delayed frame comes first, then the sent-at-1
    /// frames in ascending sender order, each link's in send order, the
    /// duplicate next to its original — on every stream kind, with
    /// reads whole and split.
    #[test]
    fn merge_order_is_delayed_first_then_sender_then_fifo() {
        let record = |t: &mut SocketTransport, from: usize, deliver: u64, sent: u64, round| {
            let ep = t.endpoints[from * 3 + 2].as_mut().expect("link");
            ep.link
                .push_record(deliver, sent, &hb(from as u16, 2, round));
        };
        for kind in KINDS {
            for split_seed in [None, Some(3)] {
                let mut t = connect(3, kind, split_seed);
                let mut log = Vec::new();
                let mut inbox = Inbox::default();
                let mut take = |t: &mut SocketTransport, tick: u64| {
                    t.begin_tick(tick, &mut log);
                    await_ready(t, tick, 2);
                    t.deliver_into(tick, 2, &mut inbox, &mut log);
                    let decoded = inbox.iter().map(|b| Frame::decode(b).expect("frame"));
                    decoded.map(|f| (f.from, f.round)).collect::<Vec<_>>()
                };
                assert!(take(&mut t, 0).is_empty());
                record(&mut t, 1, 2, 0, 10);
                record(&mut t, 0, 1, 0, 20);
                assert_eq!(take(&mut t, 1), [(0, 20)], "{kind:?} split {split_seed:?}");
                record(&mut t, 1, 2, 1, 11);
                for round in [21, 22, 23, 23] {
                    record(&mut t, 0, 2, 1, round);
                }
                assert_eq!(
                    take(&mut t, 2),
                    [(1, 10), (0, 21), (0, 22), (0, 23), (0, 23), (1, 11)],
                    "{kind:?} split {split_seed:?}"
                );
                assert!(take(&mut t, 3).is_empty());
                assert!(log.is_empty());
            }
        }
    }

    /// Under a seeded fault plan every stream kind, with reads whole and
    /// split, delivers the identical sequence and logs the identical
    /// incidents, and every delivery is in merge order: ascending sent
    /// tick (a test frame's round), then ascending sender, a duplicate
    /// next to its original. Fault-free, every frame arrives once, at
    /// the next tick.
    #[test]
    fn every_stream_kind_delivers_in_merge_order() {
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
        for faults in [None, Some(faults)] {
            let mut runs = Vec::new();
            for kind in KINDS {
                for split_seed in [None, Some(9)] {
                    let options = SocketOptions {
                        kind,
                        faults: faults.clone(),
                        split_seed,
                    };
                    let mut t = SocketTransport::connect(3, &options).expect("streams");
                    runs.push(drive(&mut t, 3, 24));
                }
            }
            let (log, seen) = &runs[0];
            assert!(runs.iter().all(|run| run == &runs[0]), "kinds diverged");
            for pair in seen.windows(2) {
                let [(tick, to, from, round), (tick2, to2, from2, round2)] = pair else {
                    unreachable!()
                };
                if (tick, to) == (tick2, to2) {
                    assert!((round, from) <= (round2, from2), "out of order: {pair:?}");
                }
            }
            if faults.is_none() {
                assert!(log.is_empty());
                let next_tick = seen.iter().all(|&(tick, _, _, round)| tick == round + 1);
                assert!(next_tick && seen.len() == 23 * 6);
            } else {
                assert!(log
                    .iter()
                    .any(|i| matches!(i, MeshIncident::FrameLost { .. })));
                assert!(log
                    .iter()
                    .any(|i| matches!(i, MeshIncident::FrameDuplicated { .. })));
                assert!(log
                    .iter()
                    .any(|i| matches!(i, MeshIncident::FrameDelayed { .. })));
            }
        }
    }

    #[test]
    fn single_region_mesh_is_trivially_ready() {
        for kind in KINDS {
            let mut t = connect(1, kind, None);
            let mut log = Vec::new();
            let mut inbox = Inbox::default();
            for tick in 0..5 {
                t.begin_tick(tick, &mut log);
                assert!(t.ready(tick, 0));
                t.deliver_into(tick, 0, &mut inbox, &mut log);
                assert!(inbox.is_empty());
            }
            assert!(log.is_empty());
        }
    }

    /// A pipe read is short only when the pipe is drained, as a socket
    /// read is, even once the queue's ring has wrapped: `read_chunk`
    /// takes a short read for "drained".
    #[test]
    fn a_pipe_read_is_short_only_when_drained() {
        let (mut near, mut far) = Stream::pipe();
        let mut buf = [0u8; 64];
        near.write(&[1; 16]).expect("pipe write");
        assert_eq!(far.read(&mut buf[..10]).expect("pipe read"), 10);
        // the ring's head sits mid-buffer: this write wraps it
        let more = 40;
        near.write(&vec![2; more]).expect("pipe write");
        assert_eq!(far.read(&mut buf).expect("pipe read"), 6 + more);
        assert_eq!(far.read(&mut buf).expect("pipe read"), 0);
    }

    /// An in-process pipe is ready on the first poll of every tick: its
    /// writes land whole before any read. So the runtime never sleeps on
    /// a pipe.
    #[test]
    fn memory_pipes_are_ready_on_the_first_poll() {
        for split_seed in [None, Some(7)] {
            let mut t = connect(3, SocketKind::Memory, split_seed);
            let mut log = Vec::new();
            let mut inbox = Inbox::default();
            for tick in 0..64 {
                t.begin_tick(tick, &mut log);
                for to in 0..3 {
                    assert!(t.ready(tick, to), "tick {tick} region {to} not ready");
                    t.deliver_into(tick, to, &mut inbox, &mut log);
                    for peer in (0..3).filter(|&p| p != to) {
                        for round in 0..tick % 5 {
                            t.send(tick, to, peer, &hb(to as u16, peer as u16, round), &mut log);
                        }
                    }
                }
            }
            assert!(log.is_empty());
        }
    }

    #[test]
    fn inbox_reuse_does_not_leak_frames() {
        let mut t = connect(2, SocketKind::Memory, None);
        let mut log = Vec::new();
        let mut inbox = Inbox::default();
        t.begin_tick(0, &mut log);
        t.send(0, 0, 1, &hb(0, 1, 7), &mut log);
        t.begin_tick(1, &mut log);
        t.deliver_into(1, 1, &mut inbox, &mut log);
        assert_eq!(inbox.len(), 1);
        // next delivery with nothing pending clears the previous content
        t.begin_tick(2, &mut log);
        t.deliver_into(2, 1, &mut inbox, &mut log);
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }

    /// A delivery past the inbox budget is refused and logged, and the
    /// transport keeps going.
    #[test]
    fn inbox_overflow_is_logged_per_refused_frame() {
        let frame = hb(0, 1, 1);
        let mut t = connect(2, SocketKind::Memory, None);
        let mut log = Vec::new();
        t.begin_tick(0, &mut log);
        t.send(0, 0, 1, &frame, &mut log);
        t.send(0, 0, 1, &frame, &mut log);
        t.begin_tick(1, &mut log);
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
    /// readiness spin would time out) and deliver exactly what the
    /// never-stalling in-process pipe delivers, with and without seeded
    /// read chunking.
    #[test]
    fn stalled_link_drains_without_deadlock_in_merge_order() {
        const FLOOD: u64 = 96;
        let big = Payload::GammaRows {
            base: 0,
            rows: (0..1400)
                .map(|v| crate::wire::GammaRow {
                    j: 0,
                    v,
                    edges: vec![(v, 1.0)],
                })
                .collect(),
        };
        // tick 0 floods link 0→1 with FLOOD distinct ~33 KiB frames;
        // every other (tick, link) carries one test frame
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
        let mut memory = connect(3, SocketKind::Memory, None);
        let expected = drive_with(&mut memory, 3, 4, schedule);
        assert_eq!(expected.1.len(), FLOOD as usize - 1 + 3 * 6);
        assert_eq!(memory.io_stats().would_block, 0);
        for split_seed in [None, Some(5)] {
            let mut socket = connect(3, SocketKind::Unix, split_seed);
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
