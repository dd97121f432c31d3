//! The versioned wire format of the mesh.
//!
//! Region workers never share references — every marginal, Γ row, flow
//! forecast, and recovery snapshot crosses the transport as a
//! length-delimited byte frame in the format defined here, so the mesh
//! exercises real serialization boundaries even though the transport is
//! in-process. The format is explicit and versioned:
//!
//! ```text
//! magic   [u8; 2] = b"SM"
//! version u16     = WIRE_VERSION          (little-endian, like all ints)
//! kind    u8                              (FrameKind discriminant)
//! from    u16                             (sender region)
//! to      u16                             (destination region)
//! seq     u64                             (reliable-stream sequence; 0
//!                                          for unreliable kinds)
//! round   u64                             (iteration the frame belongs to)
//! len     u32                             (payload byte length)
//! payload [u8; len]                       (kind-specific, see Payload)
//! ```
//!
//! Version 2 adds two layers on top of the v1 row payloads:
//!
//! * **Coalescing** — workers send exactly one [`FrameKind::Batch`]
//!   frame per (link, tick). Its payload is a count followed by
//!   length-prefixed *sub-frames*, each carrying its own kind, reliable
//!   seq, round, and payload:
//!
//!   ```text
//!   count u32
//!   sub*: kind u8, seq u64, round u64, len u32, payload [u8; len]
//!   ```
//!
//!   A batch inside a batch is refused ([`WireError::NestedBatch`]).
//!
//! * **Deltas** — the three row payloads (`Marginals`, `GammaRows`,
//!   `FlowForecast`) open with a `base` round: the round of the
//!   previous frame of that kind the sender shipped on this link. A
//!   *full* frame is self-referential (`base == round`); a delta names
//!   its predecessor, so frames of one kind form a chain and a receiver
//!   whose watermark does not match `base + 1` knows a link-local gap
//!   occurred and can request a full resend ([`Payload::Resend`], a
//!   bitmask of [`RESEND_MARGINALS`] / [`RESEND_FORECAST`]).
//!
//! Floats travel as their IEEE-754 bit patterns (`f64::to_bits`,
//! little-endian) — encode→decode is *bit-identical*, which is what
//! lets the `Lossless` transport carry the bit-identity oracle. Decoding
//! validates everything it reads: magic, version skew (a structured
//! [`WireError::UnsupportedVersion`], never a panic — v1 bytes are
//! refused, not misparsed), unknown kinds, truncation, trailing bytes,
//! and **non-finite floats** — a NaN or ±Inf anywhere in a payload is
//! refused at the boundary ([`WireError::NonFinite`]) so corruption
//! cannot enter a worker's mirrors through the mesh.
//!
//! The allocation story: [`Frame`]/[`Frame::decode`] are the
//! owned-value API (tests, tooling, traces). The hot path uses
//! [`FrameBuf`] (a reusable batch writer that never reallocates once
//! warm) and [`BatchReader`]/[`SubView`] plus the `walk_*` functions,
//! which parse payload bytes in place with zero allocation. Both sides
//! share the same field order, so `Frame::encode` and `FrameBuf`
//! produce byte-identical frames (pinned by unit tests).
//!
//! **Byte streams** (the socket transport) deliver arbitrary chunk
//! boundaries, so frames must be *reassembled* before any of the above
//! decoders see them: [`frame_len`] classifies a partial header
//! (valid-so-far vs. provably garbage vs. complete, with the total
//! frame length) and [`FrameAssembler`] turns any split schedule —
//! pinned down to one byte at a time — back into whole frames.

use std::fmt;

/// The wire protocol version this build speaks. Decoders refuse frames
/// from any other version with [`WireError::UnsupportedVersion`].
pub const WIRE_VERSION: u16 = 2;

/// Frame magic: the first two bytes of every valid frame.
pub const MAGIC: [u8; 2] = *b"SM";

/// [`Payload::Resend`] bit: resend a full marginals frame.
pub const RESEND_MARGINALS: u8 = 0b01;

/// [`Payload::Resend`] bit: resend a full flow-forecast frame.
pub const RESEND_FORECAST: u8 = 0b10;

/// Frame kinds. The discriminant is the on-wire `kind` byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FrameKind {
    /// Liveness beacon (empty payload, unreliable).
    Heartbeat = 0,
    /// Marginal-cost broadcast for the sender's owned nodes
    /// (unreliable: listeners keep the last value heard).
    Marginals = 1,
    /// Changed Γ routing rows for the sender's owned routers (reliable:
    /// retransmitted until acknowledged).
    GammaRows = 2,
    /// Per-commodity admission/utility forecast from the commodity's
    /// owner region (unreliable).
    FlowForecast = 3,
    /// Cumulative acknowledgement of the reliable stream (unreliable —
    /// a lost ack just means one more retransmit).
    Ack = 4,
    /// A rejoining region asks a survivor for its state (reliable).
    RecoveryRequest = 5,
    /// A survivor's epoch-fenced state snapshot (reliable).
    RecoveryState = 6,
    /// A receiver detected a broadcast round gap and asks the sender
    /// for full (non-delta) frames of the flagged kinds (unreliable —
    /// the periodic refresh cadence backstops a lost request).
    Resend = 7,
    /// The per-(link, tick) container: every other kind travels as a
    /// length-prefixed sub-frame inside one of these.
    Batch = 8,
}

impl FrameKind {
    /// Whether frames of this kind ride the reliable (sequenced,
    /// retransmitted) stream.
    #[must_use]
    pub fn is_reliable(self) -> bool {
        matches!(
            self,
            FrameKind::GammaRows | FrameKind::RecoveryRequest | FrameKind::RecoveryState
        )
    }

    fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            0 => FrameKind::Heartbeat,
            1 => FrameKind::Marginals,
            2 => FrameKind::GammaRows,
            3 => FrameKind::FlowForecast,
            4 => FrameKind::Ack,
            5 => FrameKind::RecoveryRequest,
            6 => FrameKind::RecoveryState,
            7 => FrameKind::Resend,
            8 => FrameKind::Batch,
            _ => return None,
        })
    }

    /// Short name for traces and incident logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Heartbeat => "heartbeat",
            FrameKind::Marginals => "marginals",
            FrameKind::GammaRows => "gamma-rows",
            FrameKind::FlowForecast => "flow-forecast",
            FrameKind::Ack => "ack",
            FrameKind::RecoveryRequest => "recovery-request",
            FrameKind::RecoveryState => "recovery-state",
            FrameKind::Resend => "resend",
            FrameKind::Batch => "batch",
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One marginal-cost entry: node `v`'s commodity-`j` marginal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarginalEntry {
    /// Commodity index.
    pub j: u32,
    /// Extended-node index.
    pub v: u32,
    /// The marginal cost `∂A/∂r_v(j)`.
    pub d: f64,
}

/// One Γ routing row: router `(j, v)`'s outgoing fractions.
#[derive(Clone, Debug, PartialEq)]
pub struct GammaRow {
    /// Commodity index.
    pub j: u32,
    /// Router (extended-node) index.
    pub v: u32,
    /// `(edge index, fraction)` pairs covering the router's out-edges.
    pub edges: Vec<(u32, f64)>,
}

/// One per-commodity forecast from the commodity's owner region.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForecastEntry {
    /// Commodity index.
    pub j: u32,
    /// Admitted rate `a_j` under the owner's current mirror.
    pub admitted: f64,
    /// Utility `U_j(a_j)`.
    pub utility: f64,
}

/// A recovery snapshot: the survivor's full mirror state, epoch-fenced.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryStatePayload {
    /// The request token this snapshot answers.
    pub token: u64,
    /// Commodity-set epoch at capture (the restore fence).
    pub epoch: u64,
    /// Iteration counter at capture.
    pub iterations: u64,
    /// `cost.epsilon` at capture.
    pub epsilon: f64,
    /// `η` at capture.
    pub eta: f64,
    /// Routing fractions, flat row-major.
    pub phi: Vec<f64>,
    /// Node traffic rates, flat row-major.
    pub t: Vec<f64>,
    /// Per-edge commodity flows, flat row-major.
    pub x: Vec<f64>,
    /// Cross-commodity edge usage totals.
    pub f_edge: Vec<f64>,
    /// Cross-commodity node usage totals.
    pub f_node: Vec<f64>,
    /// Marginal costs, flat row-major.
    pub d: Vec<f64>,
}

/// One sub-frame of a [`Payload::Batch`]: its own kind, reliable seq,
/// and round, so every protocol unit keeps its identity inside the
/// per-(link, tick) container.
#[derive(Clone, Debug, PartialEq)]
pub struct SubFrame {
    /// Reliable-stream sequence number (0 for unreliable kinds).
    pub seq: u64,
    /// Iteration the sub-frame belongs to.
    pub round: u64,
    /// The sub-frame's payload (never itself a batch).
    pub payload: Payload,
}

/// A frame's kind-specific payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Empty liveness beacon.
    Heartbeat,
    /// Marginal broadcast entries (possibly a delta — see `base`).
    Marginals {
        /// Round of the sender's previous marginals frame on this link;
        /// `base == round` marks a full (non-delta) frame.
        base: u64,
        /// The entries that changed since `base` (all owned entries
        /// when full).
        entries: Vec<MarginalEntry>,
    },
    /// Changed Γ rows (possibly a delta — see `base`).
    GammaRows {
        /// Round of the sender's previous Γ frame on this link;
        /// `base == round` marks a full frame.
        base: u64,
        /// The rows that changed since `base` (all owned rows when
        /// full).
        rows: Vec<GammaRow>,
    },
    /// Owner forecasts (possibly a delta — see `base`).
    FlowForecast {
        /// Round of the sender's previous forecast frame on this link;
        /// `base == round` marks a full frame.
        base: u64,
        /// The entries that changed since `base`.
        entries: Vec<ForecastEntry>,
    },
    /// Cumulative ack: every reliable seq `<= cum` has been received.
    Ack {
        /// Highest contiguously-received reliable sequence number.
        cum: u64,
    },
    /// Request for full (non-delta) broadcast frames after a detected
    /// round gap.
    Resend {
        /// Bitmask of kinds to refresh ([`RESEND_MARGINALS`] |
        /// [`RESEND_FORECAST`]).
        kinds: u8,
    },
    /// Recovery request with its fencing token.
    RecoveryRequest {
        /// Token echoed by the matching [`Payload::RecoveryState`].
        token: u64,
    },
    /// Recovery snapshot.
    RecoveryState(Box<RecoveryStatePayload>),
    /// The per-(link, tick) container of sub-frames.
    Batch(Vec<SubFrame>),
}

impl Payload {
    /// The wire kind this payload encodes as.
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        match self {
            Payload::Heartbeat => FrameKind::Heartbeat,
            Payload::Marginals { .. } => FrameKind::Marginals,
            Payload::GammaRows { .. } => FrameKind::GammaRows,
            Payload::FlowForecast { .. } => FrameKind::FlowForecast,
            Payload::Ack { .. } => FrameKind::Ack,
            Payload::Resend { .. } => FrameKind::Resend,
            Payload::RecoveryRequest { .. } => FrameKind::RecoveryRequest,
            Payload::RecoveryState(_) => FrameKind::RecoveryState,
            Payload::Batch(_) => FrameKind::Batch,
        }
    }
}

/// One mesh frame: header plus payload. [`Frame::encode`] and
/// [`Frame::decode`] are exact inverses for every valid frame (pinned
/// by round-trip proptests).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Sender region.
    pub from: u16,
    /// Destination region.
    pub to: u16,
    /// Reliable-stream sequence number (0 for unreliable kinds and for
    /// batch containers — subs carry their own).
    pub seq: u64,
    /// Iteration the frame belongs to (the staleness watermark key).
    pub round: u64,
    /// Kind-specific payload.
    pub payload: Payload,
}

/// Structured decode errors. Every malformed input is refused with one
/// of these — decoding never panics on untrusted bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than the field being read required.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found.
        got: [u8; 2],
    },
    /// The frame's protocol version is not spoken by this build.
    UnsupportedVersion {
        /// Version on the wire.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The kind byte maps to no known [`FrameKind`].
    UnknownKind {
        /// The byte found.
        got: u8,
    },
    /// A float field decoded to NaN or ±Inf.
    NonFinite {
        /// Which payload field family.
        what: &'static str,
        /// Index of the offending float within that family.
        index: usize,
    },
    /// Bytes remained after the declared payload length was consumed.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The payload's declared length disagrees with its contents.
    BadLength {
        /// What was being decoded.
        what: &'static str,
    },
    /// A batch sub-frame was itself a batch.
    NestedBatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, {got} remain")
            }
            WireError::BadMagic { got } => write!(f, "bad magic {got:?}"),
            WireError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {supported})"
                )
            }
            WireError::UnknownKind { got } => write!(f, "unknown frame kind {got}"),
            WireError::NonFinite { what, index } => {
                write!(f, "non-finite float in {what} at index {index}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::BadLength { what } => write!(f, "inconsistent length in {what}"),
            WireError::NestedBatch => write!(f, "batch sub-frame is itself a batch"),
        }
    }
}

impl std::error::Error for WireError {}

// --- encoding ---------------------------------------------------------

/// Header byte length: magic(2) version(2) kind(1) from(2) to(2)
/// seq(8) round(8) len(4).
const HEADER_LEN: usize = 29;

/// Sub-frame header byte length: kind(1) seq(8) round(8) len(4).
const SUB_HEADER_LEN: usize = 21;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f64(out, v);
    }
}

fn patch_u32_at(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Appends `payload`'s wire bytes to `out`. Shared by [`Frame::encode`]
/// and [`FrameBuf::put_payload`], so both producers are byte-identical.
///
/// # Panics
///
/// Panics on a nested batch (a batch's sub-payload that is itself a
/// [`Payload::Batch`]) — producing one is a bug, and decoders refuse
/// them with [`WireError::NestedBatch`].
fn encode_payload(payload: &Payload, out: &mut Vec<u8>) {
    match payload {
        Payload::Heartbeat => {}
        Payload::Marginals { base, entries } => {
            put_u64(out, *base);
            put_u32(out, entries.len() as u32);
            for e in entries {
                put_u32(out, e.j);
                put_u32(out, e.v);
                put_f64(out, e.d);
            }
        }
        Payload::GammaRows { base, rows } => {
            put_u64(out, *base);
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_u32(out, row.j);
                put_u32(out, row.v);
                put_u32(out, row.edges.len() as u32);
                for &(l, phi) in &row.edges {
                    put_u32(out, l);
                    put_f64(out, phi);
                }
            }
        }
        Payload::FlowForecast { base, entries } => {
            put_u64(out, *base);
            put_u32(out, entries.len() as u32);
            for e in entries {
                put_u32(out, e.j);
                put_f64(out, e.admitted);
                put_f64(out, e.utility);
            }
        }
        Payload::Ack { cum } => put_u64(out, *cum),
        Payload::Resend { kinds } => out.push(*kinds),
        Payload::RecoveryRequest { token } => put_u64(out, *token),
        Payload::RecoveryState(s) => {
            put_u64(out, s.token);
            put_u64(out, s.epoch);
            put_u64(out, s.iterations);
            put_f64(out, s.epsilon);
            put_f64(out, s.eta);
            put_f64_slice(out, &s.phi);
            put_f64_slice(out, &s.t);
            put_f64_slice(out, &s.x);
            put_f64_slice(out, &s.f_edge);
            put_f64_slice(out, &s.f_node);
            put_f64_slice(out, &s.d);
        }
        Payload::Batch(subs) => {
            put_u32(out, subs.len() as u32);
            for sub in subs {
                let kind = sub.payload.kind();
                assert!(
                    kind != FrameKind::Batch,
                    "nested batch: a batch sub-frame cannot itself be a batch"
                );
                out.push(kind as u8);
                put_u64(out, sub.seq);
                put_u64(out, sub.round);
                let len_at = out.len();
                put_u32(out, 0);
                encode_payload(&sub.payload, out);
                let len = (out.len() - len_at - 4) as u32;
                patch_u32_at(out, len_at, len);
            }
        }
    }
}

impl Frame {
    /// Encodes the frame into its on-wire byte representation.
    ///
    /// # Panics
    ///
    /// Panics on a nested batch — see [`WireError::NestedBatch`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the frame into `out`, clearing it first. Reusing one
    /// buffer across encodes keeps the path allocation-free once the
    /// buffer has grown to its steady-state capacity.
    ///
    /// # Panics
    ///
    /// Panics on a nested batch — see [`WireError::NestedBatch`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&MAGIC);
        put_u16(out, WIRE_VERSION);
        out.push(self.payload.kind() as u8);
        put_u16(out, self.from);
        put_u16(out, self.to);
        put_u64(out, self.seq);
        put_u64(out, self.round);
        let len_at = out.len();
        put_u32(out, 0);
        encode_payload(&self.payload, out);
        let len = (out.len() - len_at - 4) as u32;
        patch_u32_at(out, len_at, len);
    }

    /// Decodes a frame, validating magic, version, kind, lengths, and
    /// float finiteness.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first problem found; malformed
    /// bytes never panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: bytes, at: 0 };
        let (kind, from, to, seq, round, len) = decode_header(&mut r)?;
        let payload_end = r.at + len;
        let payload = decode_payload(kind, &mut r, payload_end, true)?;
        if r.at != payload_end {
            return Err(WireError::BadLength { what: kind.name() });
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(Frame {
            from,
            to,
            seq,
            round,
            payload,
        })
    }

    /// Reads just the kind byte of an encoded frame (transports use it
    /// to label fault incidents without a full decode; worker traffic
    /// always peeks as [`FrameKind::Batch`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::UnknownKind`].
    pub fn peek_kind(bytes: &[u8]) -> Result<FrameKind, WireError> {
        let byte = *bytes.get(4).ok_or(WireError::Truncated {
            needed: 5,
            got: bytes.len(),
        })?;
        FrameKind::from_byte(byte).ok_or(WireError::UnknownKind { got: byte })
    }
}

/// Reads and validates the 27-byte header, returning
/// `(kind, from, to, seq, round, payload_len)` with the payload length
/// already checked against the remaining bytes.
fn decode_header(r: &mut Reader<'_>) -> Result<(FrameKind, u16, u16, u64, u64, usize), WireError> {
    let magic = [r.u8()?, r.u8()?];
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            supported: WIRE_VERSION,
        });
    }
    let kind_byte = r.u8()?;
    let kind = FrameKind::from_byte(kind_byte).ok_or(WireError::UnknownKind { got: kind_byte })?;
    let from = r.u16()?;
    let to = r.u16()?;
    let seq = r.u64()?;
    let round = r.u64()?;
    let len = r.u32()? as usize;
    if r.remaining() < len {
        return Err(WireError::Truncated {
            needed: len,
            got: r.remaining(),
        });
    }
    Ok((kind, from, to, seq, round, len))
}

// --- stream reframing -------------------------------------------------

/// Validates as much of a frame header as `prefix` contains and, once
/// the 29-byte header is complete, returns the **total** frame length
/// (header plus declared payload). `Ok(None)` means the prefix is valid
/// so far but the header is still incomplete — feed more bytes.
///
/// This is the primitive byte-stream transports reframe with: unlike
/// [`Frame::decode`], which assumes it was handed exactly one complete
/// frame and classifies a short buffer as a malformed frame
/// ([`WireError::Truncated`]), `frame_len` distinguishes "not yet
/// arrived" from "provably garbage" — magic, version, and kind are
/// checked as soon as their bytes exist, so a desynced stream is
/// refused at the first wrong byte instead of being misread as a
/// length.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`], or
/// [`WireError::UnknownKind`] as soon as the offending bytes are
/// present. Never panics, never errors on a mere shortage of bytes.
pub fn frame_len(prefix: &[u8]) -> Result<Option<usize>, WireError> {
    if prefix.len() < 2 {
        return Ok(None);
    }
    let magic = [prefix[0], prefix[1]];
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    if prefix.len() < 4 {
        return Ok(None);
    }
    let version = u16::from_le_bytes([prefix[2], prefix[3]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            supported: WIRE_VERSION,
        });
    }
    if prefix.len() < 5 {
        return Ok(None);
    }
    if FrameKind::from_byte(prefix[4]).is_none() {
        return Err(WireError::UnknownKind { got: prefix[4] });
    }
    if prefix.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([
        prefix[HEADER_LEN - 4],
        prefix[HEADER_LEN - 3],
        prefix[HEADER_LEN - 2],
        prefix[HEADER_LEN - 1],
    ]) as usize;
    Ok(Some(HEADER_LEN + len))
}

/// Incremental reframer for wire frames arriving over a byte stream.
///
/// Sockets deliver arbitrary chunk boundaries: a read may end in the
/// middle of a header, a length field, or a payload. Feed whatever
/// bytes arrive with [`FrameAssembler::extend`] and pull complete
/// frames out with [`FrameAssembler::next_frame`] — each returned slice
/// is exactly one wire frame (header plus payload), suitable for
/// [`Frame::decode`] or `BatchReader::parse`. Reassembly is pure
/// length-prefix reframing via [`frame_len`]: header fields are
/// validated as soon as their bytes exist, so garbage is refused at the
/// earliest provable byte and a split header is simply *waited out*,
/// never misclassified (the pre-socket decoders assumed one complete
/// frame per buffer and reported a split header as a truncated frame).
///
/// The internal buffer is reused: consumed bytes are reclaimed whenever
/// the buffer fully drains (the steady state — ticks drain every
/// completed frame), so a warm assembler stops allocating once it has
/// seen its largest frame.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (frames already handed out).
    at: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends a chunk of stream bytes (any length, including zero).
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.at == self.buf.len() {
            // fully drained: reclaim the space before growing
            self.buf.clear();
            self.at = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the first structural error the stream contains.
    ///
    /// # Errors
    ///
    /// The [`WireError`] from [`frame_len`] — the stream is desynced or
    /// speaks a different protocol; no further frame can be trusted.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.buf[self.at..];
        match frame_len(pending)? {
            Some(total) if pending.len() >= total => {
                let start = self.at;
                self.at += total;
                Ok(Some(&self.buf[start..start + total]))
            }
            _ => Ok(None),
        }
    }

    /// Bytes buffered but not yet handed out as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Drops all buffered bytes (capacity kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.at = 0;
    }
}

/// Decodes one payload of `kind` from `r`, consuming up to
/// `payload_end`. `allow_batch` is false inside a batch — nesting is
/// refused structurally.
fn decode_payload(
    kind: FrameKind,
    r: &mut Reader<'_>,
    payload_end: usize,
    allow_batch: bool,
) -> Result<Payload, WireError> {
    Ok(match kind {
        FrameKind::Heartbeat => Payload::Heartbeat,
        FrameKind::Marginals => {
            let base = r.u64()?;
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(r.remaining() / 16));
            for i in 0..n {
                entries.push(MarginalEntry {
                    j: r.u32()?,
                    v: r.u32()?,
                    d: r.finite_f64("marginals", i)?,
                });
            }
            Payload::Marginals { base, entries }
        }
        FrameKind::GammaRows => {
            let base = r.u64()?;
            let n = r.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(r.remaining() / 12));
            let mut floats = 0usize;
            for _ in 0..n {
                let j = r.u32()?;
                let v = r.u32()?;
                let e = r.u32()? as usize;
                let mut edges = Vec::with_capacity(e.min(r.remaining() / 12));
                for _ in 0..e {
                    let l = r.u32()?;
                    let phi = r.finite_f64("gamma-rows", floats)?;
                    floats += 1;
                    edges.push((l, phi));
                }
                rows.push(GammaRow { j, v, edges });
            }
            Payload::GammaRows { base, rows }
        }
        FrameKind::FlowForecast => {
            let base = r.u64()?;
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(r.remaining() / 20));
            for i in 0..n {
                entries.push(ForecastEntry {
                    j: r.u32()?,
                    admitted: r.finite_f64("forecast", 2 * i)?,
                    utility: r.finite_f64("forecast", 2 * i + 1)?,
                });
            }
            Payload::FlowForecast { base, entries }
        }
        FrameKind::Ack => Payload::Ack { cum: r.u64()? },
        FrameKind::Resend => Payload::Resend { kinds: r.u8()? },
        FrameKind::RecoveryRequest => Payload::RecoveryRequest { token: r.u64()? },
        FrameKind::RecoveryState => {
            let token = r.u64()?;
            let epoch = r.u64()?;
            let iterations = r.u64()?;
            let epsilon = r.finite_f64("recovery-epsilon", 0)?;
            let eta = r.finite_f64("recovery-eta", 0)?;
            let phi = r.finite_f64_vec("recovery-phi")?;
            let t = r.finite_f64_vec("recovery-t")?;
            let x = r.finite_f64_vec("recovery-x")?;
            let f_edge = r.finite_f64_vec("recovery-f-edge")?;
            let f_node = r.finite_f64_vec("recovery-f-node")?;
            let d = r.finite_f64_vec("recovery-d")?;
            Payload::RecoveryState(Box::new(RecoveryStatePayload {
                token,
                epoch,
                iterations,
                epsilon,
                eta,
                phi,
                t,
                x,
                f_edge,
                f_node,
                d,
            }))
        }
        FrameKind::Batch => {
            if !allow_batch {
                return Err(WireError::NestedBatch);
            }
            let n = r.u32()? as usize;
            let mut subs = Vec::with_capacity(n.min(r.remaining() / SUB_HEADER_LEN));
            for _ in 0..n {
                let kind_byte = r.u8()?;
                let sub_kind = FrameKind::from_byte(kind_byte)
                    .ok_or(WireError::UnknownKind { got: kind_byte })?;
                let seq = r.u64()?;
                let round = r.u64()?;
                let len = r.u32()? as usize;
                if r.remaining() < len || r.at + len > payload_end {
                    return Err(WireError::Truncated {
                        needed: len,
                        got: r.remaining().min(payload_end - r.at),
                    });
                }
                let sub_end = r.at + len;
                let payload = decode_payload(sub_kind, r, sub_end, false)?;
                if r.at != sub_end {
                    return Err(WireError::BadLength {
                        what: sub_kind.name(),
                    });
                }
                subs.push(SubFrame {
                    seq,
                    round,
                    payload,
                });
            }
            Payload::Batch(subs)
        }
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn finite_f64(&mut self, what: &'static str, index: usize) -> Result<f64, WireError> {
        let v = f64::from_bits(self.u64()?);
        if !v.is_finite() {
            return Err(WireError::NonFinite { what, index });
        }
        Ok(v)
    }

    fn finite_f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 8));
        for i in 0..n {
            out.push(self.finite_f64(what, i)?);
        }
        Ok(out)
    }
}

// --- zero-alloc batch writer ------------------------------------------

/// A reusable writer that assembles one [`FrameKind::Batch`] frame in
/// place. Workers keep one per link: `begin` rewinds the buffer (its
/// capacity survives), sub-frames are appended with `begin_sub` /
/// field puts / `end_sub`, and `finish` patches the outer length and
/// sub count. Once warm the whole cycle performs zero allocations.
///
/// Length fields are patched rather than precomputed, so callers can
/// stream row data without knowing counts up front: `mark_u32`
/// reserves a count slot and `patch_u32` fills it after the rows are
/// written.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Position of the outer payload-length field.
    len_at: usize,
    /// Position of the sub-count field.
    count_at: usize,
    /// Position of the open sub's length field.
    sub_len_at: usize,
    /// Start of the most recent sub (its kind byte).
    sub_start: usize,
    subs: u32,
    open: bool,
    sub_open: bool,
    finished: bool,
}

impl FrameBuf {
    /// An empty writer (no capacity reserved yet).
    #[must_use]
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Rewinds the buffer and writes a batch header for `from → to` at
    /// `round`. The container's seq is 0 — sub-frames carry their own.
    pub fn begin(&mut self, from: u16, to: u16, round: u64) {
        assert!(!self.sub_open, "begin while a sub-frame is open");
        self.buf.clear();
        self.buf.extend_from_slice(&MAGIC);
        put_u16(&mut self.buf, WIRE_VERSION);
        self.buf.push(FrameKind::Batch as u8);
        put_u16(&mut self.buf, from);
        put_u16(&mut self.buf, to);
        put_u64(&mut self.buf, 0);
        put_u64(&mut self.buf, round);
        debug_assert_eq!(self.buf.len() + 4, HEADER_LEN);
        self.len_at = self.buf.len();
        put_u32(&mut self.buf, 0);
        self.count_at = self.buf.len();
        put_u32(&mut self.buf, 0);
        self.subs = 0;
        self.open = true;
        self.finished = false;
    }

    /// Opens a sub-frame of `kind` (never [`FrameKind::Batch`]).
    pub fn begin_sub(&mut self, kind: FrameKind, seq: u64, round: u64) {
        assert!(self.open && !self.sub_open, "begin_sub out of sequence");
        assert!(kind != FrameKind::Batch, "nested batch");
        self.sub_start = self.buf.len();
        self.buf.push(kind as u8);
        put_u64(&mut self.buf, seq);
        put_u64(&mut self.buf, round);
        self.sub_len_at = self.buf.len();
        put_u32(&mut self.buf, 0);
        self.sub_open = true;
    }

    /// Appends a raw byte to the open sub-frame's payload.
    pub fn put_u8(&mut self, v: u8) {
        debug_assert!(self.sub_open);
        self.buf.push(v);
    }

    /// Appends a little-endian `u32` to the open sub-frame's payload.
    pub fn put_u32(&mut self, v: u32) {
        debug_assert!(self.sub_open);
        put_u32(&mut self.buf, v);
    }

    /// Appends a little-endian `u64` to the open sub-frame's payload.
    pub fn put_u64(&mut self, v: u64) {
        debug_assert!(self.sub_open);
        put_u64(&mut self.buf, v);
    }

    /// Appends an `f64` bit pattern to the open sub-frame's payload.
    pub fn put_f64(&mut self, v: f64) {
        debug_assert!(self.sub_open);
        put_f64(&mut self.buf, v);
    }

    /// Reserves a `u32` slot (e.g. a row count not yet known) and
    /// returns its position for a later [`FrameBuf::patch_u32`].
    pub fn mark_u32(&mut self) -> usize {
        debug_assert!(self.sub_open);
        let at = self.buf.len();
        put_u32(&mut self.buf, 0);
        at
    }

    /// Fills a slot reserved by [`FrameBuf::mark_u32`].
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        patch_u32_at(&mut self.buf, at, v);
    }

    /// Appends `payload`'s wire bytes to the open sub-frame (control
    /// payloads — acks, resend requests, recovery frames).
    pub fn put_payload(&mut self, payload: &Payload) {
        debug_assert!(self.sub_open);
        encode_payload(payload, &mut self.buf);
    }

    /// Closes the open sub-frame, patching its length.
    pub fn end_sub(&mut self) {
        assert!(self.sub_open, "end_sub without begin_sub");
        let len = (self.buf.len() - self.sub_len_at - 4) as u32;
        patch_u32_at(&mut self.buf, self.sub_len_at, len);
        self.subs += 1;
        self.sub_open = false;
    }

    /// The bytes of the most recently closed sub-frame (header +
    /// payload) — what the reliable stream copies into a flight buffer
    /// for retransmission.
    #[must_use]
    pub fn last_sub(&self) -> &[u8] {
        debug_assert!(!self.sub_open && self.subs > 0);
        &self.buf[self.sub_start..]
    }

    /// Appends a pre-encoded sub-frame (a retransmitted flight's
    /// bytes).
    pub fn push_raw_sub(&mut self, sub: &[u8]) {
        assert!(self.open && !self.sub_open, "push_raw_sub out of sequence");
        self.sub_start = self.buf.len();
        self.buf.extend_from_slice(sub);
        self.subs += 1;
    }

    /// Closes the batch, patching the outer length and sub count.
    /// Returns `true` if the batch carries at least one sub-frame
    /// (empty batches are never sent).
    pub fn finish(&mut self) -> bool {
        assert!(self.open && !self.sub_open, "finish out of sequence");
        let len = (self.buf.len() - self.len_at - 4) as u32;
        patch_u32_at(&mut self.buf, self.len_at, len);
        let subs = self.subs;
        patch_u32_at(&mut self.buf, self.count_at, subs);
        self.open = false;
        self.finished = true;
        subs > 0
    }

    /// The finished frame's bytes, or `None` if the batch is empty or
    /// not yet finished.
    #[must_use]
    pub fn bytes(&self) -> Option<&[u8]> {
        (self.finished && self.subs > 0).then_some(&self.buf[..])
    }

    /// Sub-frames in the batch so far.
    #[must_use]
    pub fn sub_count(&self) -> u32 {
        self.subs
    }

    /// Total frame bytes so far (header included).
    #[must_use]
    pub fn frame_len(&self) -> usize {
        self.buf.len()
    }
}

// --- zero-copy batch reading ------------------------------------------

/// A view of one sub-frame inside a received batch: parsed header,
/// borrowed payload bytes. Consumers walk the payload in place with
/// [`walk_marginals`] / [`walk_gamma_rows`] / [`walk_forecast`] or the
/// `parse_*` helpers — no allocation on the receive path.
#[derive(Clone, Copy, Debug)]
pub struct SubView<'a> {
    /// The sub-frame's kind (never [`FrameKind::Batch`]).
    pub kind: FrameKind,
    /// Reliable-stream sequence number (0 for unreliable kinds).
    pub seq: u64,
    /// Iteration the sub-frame belongs to.
    pub round: u64,
    /// The raw payload bytes.
    pub payload: &'a [u8],
}

/// An in-place iterator over the sub-frames of an encoded batch. The
/// header is validated up front ([`BatchReader::parse`]); sub-frames
/// are surfaced one at a time as [`SubView`]s without copying.
#[derive(Debug)]
pub struct BatchReader<'a> {
    from: u16,
    to: u16,
    round: u64,
    buf: &'a [u8],
    at: usize,
    end: usize,
    left: u32,
}

impl<'a> BatchReader<'a> {
    /// Validates the outer header of `bytes` (magic, version, kind =
    /// batch, length vs actual bytes) and positions the reader at the
    /// first sub-frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the header validation finds; sub-frame errors
    /// surface later from [`BatchReader::next_sub`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: bytes, at: 0 };
        let (kind, from, to, _seq, round, len) = decode_header(&mut r)?;
        if kind != FrameKind::Batch {
            return Err(WireError::BadLength { what: "batch" });
        }
        let end = r.at + len;
        if bytes.len() > end {
            return Err(WireError::TrailingBytes {
                extra: bytes.len() - end,
            });
        }
        let left = r.u32()?;
        Ok(BatchReader {
            from,
            to,
            round,
            buf: bytes,
            at: r.at,
            end,
            left,
        })
    }

    /// Sender region from the outer header.
    #[must_use]
    pub fn from(&self) -> u16 {
        self.from
    }

    /// Destination region from the outer header.
    #[must_use]
    pub fn to(&self) -> u16 {
        self.to
    }

    /// The sender's round when the batch was assembled.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The next sub-frame, `None` when the batch is exhausted.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` on a malformed sub-frame (truncation, unknown
    /// kind, nesting, or count/length disagreement); iteration stops
    /// after an error.
    #[allow(clippy::should_implement_trait)] // lending-style: views borrow self.buf
    pub fn next_sub(&mut self) -> Option<Result<SubView<'a>, WireError>> {
        if self.left == 0 {
            if self.at != self.end {
                // count said we're done but payload bytes remain
                self.at = self.end;
                return Some(Err(WireError::BadLength { what: "batch" }));
            }
            return None;
        }
        let mut r = Reader {
            buf: &self.buf[..self.end],
            at: self.at,
        };
        let step = (|| {
            let kind_byte = r.u8()?;
            let kind =
                FrameKind::from_byte(kind_byte).ok_or(WireError::UnknownKind { got: kind_byte })?;
            if kind == FrameKind::Batch {
                return Err(WireError::NestedBatch);
            }
            let seq = r.u64()?;
            let round = r.u64()?;
            let len = r.u32()? as usize;
            if r.remaining() < len {
                return Err(WireError::Truncated {
                    needed: len,
                    got: r.remaining(),
                });
            }
            let payload = &self.buf[r.at..r.at + len];
            r.at += len;
            Ok(SubView {
                kind,
                seq,
                round,
                payload,
            })
        })();
        match step {
            Ok(view) => {
                self.at = r.at;
                self.left -= 1;
                Some(Ok(view))
            }
            Err(e) => {
                self.left = 0;
                self.at = self.end;
                Some(Err(e))
            }
        }
    }
}

/// Walks a [`FrameKind::Marginals`] payload in place, calling `f` per
/// entry, and returns the frame's `base` round. Validates lengths and
/// float finiteness exactly like [`Frame::decode`].
///
/// # Errors
///
/// Any [`WireError`] the payload bytes trigger.
pub fn walk_marginals(payload: &[u8], mut f: impl FnMut(MarginalEntry)) -> Result<u64, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let base = r.u64()?;
    let n = r.u32()? as usize;
    for i in 0..n {
        f(MarginalEntry {
            j: r.u32()?,
            v: r.u32()?,
            d: r.finite_f64("marginals", i)?,
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::BadLength { what: "marginals" });
    }
    Ok(base)
}

/// Walks a [`FrameKind::GammaRows`] payload in place and returns the
/// frame's `base` round. Per row, `row(j, v, e)` — `e` the row's edge
/// count — decides whether the row applies; `edge(j, v, l, phi)` fires
/// for each edge of an applied row, in wire order.
/// Skipped rows are still fully validated (including finiteness).
///
/// # Errors
///
/// Any [`WireError`] the payload bytes trigger.
pub fn walk_gamma_rows(
    payload: &[u8],
    mut row: impl FnMut(u32, u32, usize) -> bool,
    mut edge: impl FnMut(u32, u32, u32, f64),
) -> Result<u64, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let base = r.u64()?;
    let n = r.u32()? as usize;
    let mut floats = 0usize;
    for _ in 0..n {
        let j = r.u32()?;
        let v = r.u32()?;
        let e = r.u32()? as usize;
        let apply = row(j, v, e);
        for _ in 0..e {
            let l = r.u32()?;
            let phi = r.finite_f64("gamma-rows", floats)?;
            floats += 1;
            if apply {
                edge(j, v, l, phi);
            }
        }
    }
    if r.remaining() != 0 {
        return Err(WireError::BadLength { what: "gamma-rows" });
    }
    Ok(base)
}

/// Walks a [`FrameKind::FlowForecast`] payload in place, calling `f`
/// per entry, and returns the frame's `base` round.
///
/// # Errors
///
/// Any [`WireError`] the payload bytes trigger.
pub fn walk_forecast(payload: &[u8], mut f: impl FnMut(ForecastEntry)) -> Result<u64, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let base = r.u64()?;
    let n = r.u32()? as usize;
    for i in 0..n {
        f(ForecastEntry {
            j: r.u32()?,
            admitted: r.finite_f64("forecast", 2 * i)?,
            utility: r.finite_f64("forecast", 2 * i + 1)?,
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::BadLength { what: "forecast" });
    }
    Ok(base)
}

fn parse_exact_u64(payload: &[u8], what: &'static str) -> Result<u64, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let v = r.u64()?;
    if r.remaining() != 0 {
        return Err(WireError::BadLength { what });
    }
    Ok(v)
}

/// Parses a [`FrameKind::Ack`] payload: the cumulative seq.
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::BadLength`].
pub fn parse_ack(payload: &[u8]) -> Result<u64, WireError> {
    parse_exact_u64(payload, "ack")
}

/// Parses a [`FrameKind::Resend`] payload: the kind bitmask.
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::BadLength`].
pub fn parse_resend(payload: &[u8]) -> Result<u8, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let kinds = r.u8()?;
    if r.remaining() != 0 {
        return Err(WireError::BadLength { what: "resend" });
    }
    Ok(kinds)
}

/// Parses a [`FrameKind::RecoveryRequest`] payload: the fencing token.
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::BadLength`].
pub fn parse_recovery_request(payload: &[u8]) -> Result<u64, WireError> {
    parse_exact_u64(payload, "recovery-request")
}

/// Parses a [`FrameKind::RecoveryState`] payload. Allocates (recovery
/// is a cold path).
///
/// # Errors
///
/// Any [`WireError`] the payload bytes trigger.
pub fn parse_recovery_state(payload: &[u8]) -> Result<RecoveryStatePayload, WireError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let end = payload.len();
    match decode_payload(FrameKind::RecoveryState, &mut r, end, false)? {
        Payload::RecoveryState(s) => {
            if r.remaining() != 0 {
                return Err(WireError::BadLength {
                    what: "recovery-state",
                });
            }
            Ok(*s)
        }
        _ => unreachable!("decode_payload returned a foreign payload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                from: 0,
                to: 1,
                seq: 0,
                round: 3,
                payload: Payload::Heartbeat,
            },
            Frame {
                from: 2,
                to: 0,
                seq: 0,
                round: 7,
                payload: Payload::Marginals {
                    base: 6,
                    entries: vec![
                        MarginalEntry {
                            j: 0,
                            v: 4,
                            d: 1.25,
                        },
                        MarginalEntry {
                            j: 1,
                            v: 9,
                            d: -3.5e-9,
                        },
                    ],
                },
            },
            Frame {
                from: 1,
                to: 3,
                seq: 42,
                round: 7,
                payload: Payload::GammaRows {
                    base: 7,
                    rows: vec![GammaRow {
                        j: 2,
                        v: 11,
                        edges: vec![(5, 0.25), (9, 0.75)],
                    }],
                },
            },
            Frame {
                from: 3,
                to: 2,
                seq: 0,
                round: 8,
                payload: Payload::FlowForecast {
                    base: 5,
                    entries: vec![ForecastEntry {
                        j: 1,
                        admitted: 4.5,
                        utility: 9.0,
                    }],
                },
            },
            Frame {
                from: 0,
                to: 2,
                seq: 0,
                round: 8,
                payload: Payload::Ack { cum: 41 },
            },
            Frame {
                from: 2,
                to: 1,
                seq: 0,
                round: 9,
                payload: Payload::Resend {
                    kinds: RESEND_MARGINALS | RESEND_FORECAST,
                },
            },
            Frame {
                from: 1,
                to: 0,
                seq: 43,
                round: 9,
                payload: Payload::RecoveryRequest { token: 77 },
            },
            Frame {
                from: 0,
                to: 1,
                seq: 17,
                round: 9,
                payload: Payload::RecoveryState(Box::new(RecoveryStatePayload {
                    token: 77,
                    epoch: 2,
                    iterations: 120,
                    epsilon: 5e-4,
                    eta: 0.04,
                    phi: vec![0.0, 0.5, 0.5],
                    t: vec![1.0, 2.0],
                    x: vec![0.25; 3],
                    f_edge: vec![3.5],
                    f_node: vec![0.75, 1.5],
                    d: vec![0.1, 0.2],
                })),
            },
            Frame {
                from: 1,
                to: 2,
                seq: 0,
                round: 12,
                payload: Payload::Batch(vec![
                    SubFrame {
                        seq: 0,
                        round: 12,
                        payload: Payload::Marginals {
                            base: 12,
                            entries: vec![MarginalEntry { j: 0, v: 1, d: 0.5 }],
                        },
                    },
                    SubFrame {
                        seq: 9,
                        round: 12,
                        payload: Payload::GammaRows {
                            base: 11,
                            rows: vec![GammaRow {
                                j: 0,
                                v: 3,
                                edges: vec![(2, 1.0)],
                            }],
                        },
                    },
                    SubFrame {
                        seq: 0,
                        round: 12,
                        payload: Payload::Ack { cum: 8 },
                    },
                    SubFrame {
                        seq: 0,
                        round: 12,
                        payload: Payload::Heartbeat,
                    },
                ]),
            },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(Frame::peek_kind(&bytes).unwrap(), frame.payload.kind());
            let back = Frame::decode(&bytes).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for frame in &frames {
            frame.encode_into(&mut buf);
            assert_eq!(buf, frame.encode());
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let mut bytes = sample_frames()[0].encode();
        let orig = bytes.clone();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadMagic { .. })
        ));
        bytes = orig.clone();
        bytes[2] = 0xFF; // version low byte
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion {
                got: u16::from_le_bytes([0xFF, 0]),
                supported: WIRE_VERSION
            })
        );
        bytes = orig;
        bytes[4] = 0x7F; // kind
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnknownKind { got: 0x7F })
        );
    }

    #[test]
    fn rejects_v1_frames() {
        // a v1-stamped frame (version bytes 01 00) is refused up front,
        // whatever its payload claims to be
        let mut bytes = sample_frames()[1].encode();
        bytes[2..4].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion {
                got: 1,
                supported: WIRE_VERSION
            })
        );
        assert!(matches!(
            BatchReader::parse(&bytes),
            Err(WireError::UnsupportedVersion { got: 1, .. })
        ));
    }

    #[test]
    fn rejects_non_finite_floats() {
        let frame = Frame {
            from: 0,
            to: 1,
            seq: 0,
            round: 0,
            payload: Payload::Marginals {
                base: 0,
                entries: vec![MarginalEntry { j: 0, v: 0, d: 1.0 }],
            },
        };
        let mut bytes = frame.encode();
        let float_at = bytes.len() - 8;
        bytes[float_at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::NonFinite {
                what: "marginals",
                index: 0
            })
        );
        bytes[float_at..].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::NonFinite { .. })
        ));
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        for frame in [sample_frames()[2].clone(), sample_frames()[8].clone()] {
            let bytes = frame.encode();
            for cut in 1..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} accepted ({})",
                    frame.payload.kind()
                );
            }
            let mut extended = bytes;
            extended.push(0);
            assert!(Frame::decode(&extended).is_err());
        }
    }

    #[test]
    fn frame_len_classifies_prefixes() {
        let bytes = sample_frames()[2].encode();
        // every strict header prefix: valid-so-far, never an error
        for cut in 0..HEADER_LEN {
            assert_eq!(frame_len(&bytes[..cut]), Ok(None), "prefix {cut}");
        }
        // complete header (and anything longer): the exact total length
        for cut in HEADER_LEN..=bytes.len() {
            assert_eq!(frame_len(&bytes[..cut]), Ok(Some(bytes.len())));
        }
        // garbage is refused at the earliest provable byte
        assert!(matches!(
            frame_len(b"XY"),
            Err(WireError::BadMagic { got: [b'X', b'Y'] })
        ));
        let mut skew = bytes.clone();
        skew[2..4].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            frame_len(&skew[..4]),
            Err(WireError::UnsupportedVersion { got: 9, .. })
        ));
        let mut bad_kind = bytes;
        bad_kind[4] = 0x7F;
        assert!(matches!(
            frame_len(&bad_kind[..5]),
            Err(WireError::UnknownKind { got: 0x7F })
        ));
    }

    #[test]
    fn assembler_reframes_arbitrary_chunks() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        // feed the concatenated stream one byte at a time — the
        // harshest split schedule — and expect every frame back intact
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.extend(&[b]);
            while let Some(frame) = asm.next_frame().expect("valid stream") {
                got.push(Frame::decode(frame).expect("whole frame"));
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_refuses_desynced_streams() {
        // a valid frame followed by garbage at the next frame boundary:
        // the frame is handed out intact, then the desync is refused as
        // soon as two bytes of wrong magic exist — never handed out as
        // a frame, never panicked on
        let frame = sample_frames()[0].clone();
        let mut asm = FrameAssembler::new();
        asm.extend(&frame.encode());
        asm.extend(b"garbage");
        {
            let first = asm.next_frame().expect("valid frame").expect("complete");
            assert_eq!(Frame::decode(first), Ok(frame));
        }
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::BadMagic { got: [b'g', b'a'] })
        ));
        asm.clear();
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn rejects_nested_batches() {
        // craft by hand — encode panics on nesting by design, so splice
        // a batch kind byte into a sub-frame header
        let outer = Frame {
            from: 0,
            to: 1,
            seq: 0,
            round: 4,
            payload: Payload::Batch(vec![SubFrame {
                seq: 0,
                round: 4,
                payload: Payload::Heartbeat,
            }]),
        };
        let mut bytes = outer.encode();
        // sub kind byte sits right after the header + count(4)
        bytes[HEADER_LEN + 4] = FrameKind::Batch as u8;
        assert_eq!(Frame::decode(&bytes), Err(WireError::NestedBatch));
        let mut reader = BatchReader::parse(&bytes).unwrap();
        assert!(matches!(
            reader.next_sub(),
            Some(Err(WireError::NestedBatch))
        ));
        assert!(reader.next_sub().is_none());
    }

    #[test]
    fn frame_buf_matches_frame_encode() {
        // the streaming writer and the owned-value encoder must produce
        // byte-identical frames
        let frame = &sample_frames()[8];
        let Payload::Batch(subs) = &frame.payload else {
            unreachable!()
        };
        let mut buf = FrameBuf::new();
        buf.begin(frame.from, frame.to, frame.round);
        for sub in subs {
            buf.begin_sub(sub.payload.kind(), sub.seq, sub.round);
            buf.put_payload(&sub.payload);
            buf.end_sub();
        }
        assert!(buf.finish());
        assert_eq!(buf.bytes().unwrap(), frame.encode().as_slice());
        assert_eq!(buf.sub_count(), subs.len() as u32);

        // an empty batch finishes to None and is never sent
        let mut empty = FrameBuf::new();
        empty.begin(0, 1, 9);
        assert!(!empty.finish());
        assert!(empty.bytes().is_none());
    }

    #[test]
    fn frame_buf_streaming_fields_round_trip() {
        // build a delta marginals sub field-by-field (the worker's hot
        // path) and a raw retransmit copy; decode must see both
        let mut buf = FrameBuf::new();
        buf.begin(2, 0, 31);
        buf.begin_sub(FrameKind::Marginals, 0, 31);
        buf.put_u64(30); // base
        let count_at = buf.mark_u32();
        buf.put_u32(1); // j
        buf.put_u32(7); // v
        buf.put_f64(2.5);
        buf.patch_u32(count_at, 1);
        buf.end_sub();
        let flight: Vec<u8> = buf.last_sub().to_vec();
        buf.push_raw_sub(&flight);
        assert!(buf.finish());
        let frame = Frame::decode(buf.bytes().unwrap()).unwrap();
        let Payload::Batch(subs) = frame.payload else {
            panic!("not a batch")
        };
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], subs[1]);
        assert_eq!(
            subs[0].payload,
            Payload::Marginals {
                base: 30,
                entries: vec![MarginalEntry { j: 1, v: 7, d: 2.5 }]
            }
        );
    }

    #[test]
    fn batch_reader_walks_subs_in_place() {
        let frame = &sample_frames()[8];
        let bytes = frame.encode();
        let mut reader = BatchReader::parse(&bytes).unwrap();
        assert_eq!(reader.from(), 1);
        assert_eq!(reader.to(), 2);
        assert_eq!(reader.round(), 12);

        let sub = reader.next_sub().unwrap().unwrap();
        assert_eq!(sub.kind, FrameKind::Marginals);
        let mut entries = Vec::new();
        let base = walk_marginals(sub.payload, |e| entries.push(e)).unwrap();
        assert_eq!(base, 12);
        assert_eq!(entries, vec![MarginalEntry { j: 0, v: 1, d: 0.5 }]);

        let sub = reader.next_sub().unwrap().unwrap();
        assert_eq!((sub.kind, sub.seq), (FrameKind::GammaRows, 9));
        let mut edges = Vec::new();
        let base = walk_gamma_rows(
            sub.payload,
            |j, v, e| {
                assert_eq!((j, v, e), (0, 3, 1));
                true
            },
            |_, _, l, phi| edges.push((l, phi)),
        )
        .unwrap();
        assert_eq!(base, 11);
        assert_eq!(edges, vec![(2, 1.0)]);

        let sub = reader.next_sub().unwrap().unwrap();
        assert_eq!(sub.kind, FrameKind::Ack);
        assert_eq!(parse_ack(sub.payload).unwrap(), 8);

        let sub = reader.next_sub().unwrap().unwrap();
        assert_eq!(sub.kind, FrameKind::Heartbeat);
        assert!(sub.payload.is_empty());

        assert!(reader.next_sub().is_none());
    }

    #[test]
    fn gamma_walker_validates_skipped_rows() {
        // a row the guard rejects is still length- and
        // finiteness-checked; only the edge callback is suppressed
        let payload_frame = Frame {
            from: 0,
            to: 1,
            seq: 1,
            round: 0,
            payload: Payload::GammaRows {
                base: 0,
                rows: vec![GammaRow {
                    j: 0,
                    v: 0,
                    edges: vec![(0, 0.5)],
                }],
            },
        };
        let bytes = payload_frame.encode();
        let payload = &bytes[HEADER_LEN..];
        let mut fired = false;
        walk_gamma_rows(payload, |_, _, _| false, |_, _, _, _| fired = true).unwrap();
        assert!(!fired);
        // same payload with a NaN fraction: refused even when skipped
        let mut corrupt = payload.to_vec();
        let float_at = corrupt.len() - 8;
        corrupt[float_at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            walk_gamma_rows(&corrupt, |_, _, _| false, |_, _, _, _| ()),
            Err(WireError::NonFinite { .. })
        ));
    }
}
