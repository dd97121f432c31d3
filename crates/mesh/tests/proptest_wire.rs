//! Property tests for the mesh wire format (v4): encode → decode is
//! the identity on every valid frame — including delta payloads with
//! their base rounds and batch frames with length-prefixed sub-frames —
//! and every malformed input — NaN payloads, version skew (v1 to v3
//! frames included), truncation anywhere (mid-sub-payload included), trailing
//! garbage, nested batches — is refused with a structured
//! [`WireError`], never a panic. A stream of tick markers and enveloped
//! frames, cut anywhere, reframes to the same records.

use proptest::prelude::*;
use spn_mesh::socket::{parse_records, Record};
use spn_mesh::wire::{
    frame_len, Frame, GammaRow, Payload, RecoveryStatePayload, SubFrame, WireError, WIRE_VERSION,
};
use spn_sim::draws::unit_hash;

/// A deterministic finite f64 in (-500, 500) drawn from the shared
/// seeded generator.
fn num(seed: u64, clock: usize, a: usize, b: usize) -> f64 {
    1000.0 * (unit_hash(seed, clock, a, b) - 0.5)
}

/// Builds one non-batch payload of the kind selected by `kind`, with
/// seed-derived content of seed-derived size.
fn build_payload(kind: u8, seed: u64, len: usize) -> Payload {
    match kind {
        0 => Payload::GammaRows {
            base: seed % 9_999,
            rows: (0..len)
                .map(|i| GammaRow {
                    j: i as u32,
                    v: (seed % 31) as u32,
                    edges: (0..(1 + (seed as usize + i) % 4))
                        .map(|e| (e as u32, unit_hash(seed, 2, i, e)))
                        .collect(),
                })
                .collect(),
        },
        1 => Payload::Ack { cum: seed },
        2 => Payload::RecoveryRequest {
            token: seed ^ 0xABCD,
        },
        _ => Payload::RecoveryState(Box::new(RecoveryStatePayload {
            token: seed,
            epoch: seed % 5,
            iterations: seed % 1000,
            epsilon: 0.2,
            eta: 0.05,
            phi: (0..len).map(|i| unit_hash(seed, 5, i, 0)).collect(),
            t: (0..len).map(|i| num(seed, 6, i, 0)).collect(),
            x: (0..len).map(|i| num(seed, 7, i, 0)).collect(),
            f_edge: (0..len).map(|i| num(seed, 8, i, 0)).collect(),
            f_node: (0..len).map(|i| num(seed, 9, i, 0)).collect(),
            d: (0..len).map(|i| num(seed, 10, i, 0)).collect(),
        })),
    }
}

/// Builds one frame: kinds 0..=3 map to the single payloads, 4 to a
/// batch coalescing a seed-derived mix of sub-frames (possibly empty —
/// the coalescing layer never ships one, but the format round-trips
/// it).
fn build_frame(kind: u8, seed: u64, len: usize) -> Frame {
    let payload = if kind == 4 {
        Payload::Batch(
            (0..len)
                .map(|i| SubFrame {
                    seq: seed.wrapping_add(i as u64),
                    round: seed % 500 + i as u64,
                    payload: build_payload(
                        ((seed as usize + i) % 4) as u8,
                        seed ^ (i as u64) << 3,
                        1 + (seed as usize + i) % 4,
                    ),
                })
                .collect(),
        )
    } else {
        build_payload(kind, seed, len)
    };
    Frame {
        from: (seed % 5) as u16,
        to: (seed % 3) as u16,
        seq: seed.rotate_left(7),
        round: seed % 10_000,
        payload,
    }
}

/// An owned stream record: a tick marker, or `(deliver_tick,
/// sent_tick, frame)`.
#[derive(Clone, Debug, PartialEq)]
enum Owned {
    Marker(u64),
    Frame(u64, u64, Vec<u8>),
}

impl Owned {
    fn of(record: Record<'_>) -> Self {
        match record {
            Record::Marker(tick) => Owned::Marker(tick),
            Record::Frame {
                deliver_tick,
                sent_tick,
                frame,
            } => Owned::Frame(deliver_tick, sent_tick, frame.to_vec()),
        }
    }

    /// The record's bytes: tag 1 and the tick, or tag 0, both ticks and
    /// the frame, all integers little-endian.
    fn encode(&self) -> Vec<u8> {
        match self {
            Owned::Marker(tick) => [&[1u8][..], &tick.to_le_bytes()].concat(),
            Owned::Frame(deliver, sent, frame) => [
                &[0u8][..],
                &deliver.to_le_bytes(),
                &sent.to_le_bytes(),
                frame,
            ]
            .concat(),
        }
    }
}

/// Feeds `stream` to [`parse_records`] in chunks ending at `cuts` (then
/// the rest), carrying each unconsumed tail into the next chunk as the
/// transport does. Returns the records parsed after each chunk.
fn reframe(stream: &[u8], cuts: &[usize]) -> Vec<Vec<Owned>> {
    let mut buf = Vec::new();
    let mut at = 0;
    let mut out = Vec::new();
    for &cut in cuts.iter().chain(&[stream.len()]) {
        buf.extend_from_slice(&stream[at..cut]);
        at = cut;
        let mut got = Vec::new();
        let used = parse_records(&buf, |record| got.push(Owned::of(record)));
        buf.drain(..used);
        out.push(got);
    }
    assert!(buf.is_empty(), "{} bytes never parsed", buf.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for every kind, content, and
    /// size, including empty payload vectors, exact f64 bits, delta
    /// base rounds, and batches of mixed sub-frames.
    #[test]
    fn encode_decode_round_trips(kind in 0u8..5, seed in 0u64..10_000, len in 0usize..12) {
        let frame = build_frame(kind, seed, len);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes);
        prop_assert_eq!(back, Ok(frame));
    }

    /// Every float lane of the row kind rejects NaN and ±Inf at decode
    /// with a structured error.
    #[test]
    fn non_finite_floats_are_refused(pick in 0u8..2, seed in 0u64..1000, len in 1usize..8) {
        let mut frame = build_frame(0, seed, len);
        let Payload::GammaRows { rows, .. } = &mut frame.payload else { unreachable!() };
        rows[len / 2].edges[0].1 = [f64::NAN, f64::INFINITY][usize::from(pick)];
        let bytes = frame.encode();
        prop_assert!(matches!(Frame::decode(&bytes), Err(WireError::NonFinite { .. })));
    }

    /// A frame from any other wire version — v1 (the pre-delta format),
    /// v2 (which had a flow-summary kind), v3 (which had marginal
    /// kinds) or a future one — is refused with `UnsupportedVersion`
    /// carrying both versions: a structured error, not a panic and not a
    /// garbled decode. Version skew is checked before anything else, so
    /// even a v3 byte stream that happens to parse as v4 structure is
    /// refused.
    #[test]
    fn version_skew_is_refused_structurally(kind in 0u8..5, seed in 0u64..1000, skew in 0u16..6) {
        prop_assume!(skew != WIRE_VERSION);
        let mut bytes = build_frame(kind, seed, 3).encode();
        bytes[2..4].copy_from_slice(&skew.to_le_bytes());
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion { got: skew, supported: WIRE_VERSION })
        );
    }

    /// Every strict prefix of a valid encoding — batch frames included,
    /// so cuts land mid-sub-header and mid-sub-payload — is refused
    /// without panicking, and appending garbage is refused as trailing
    /// bytes.
    #[test]
    fn truncation_and_trailing_bytes_are_refused(kind in 0u8..5, seed in 0u64..1000, len in 0usize..6) {
        let bytes = build_frame(kind, seed, len).encode();
        for cut in 0..bytes.len() {
            prop_assert!(Frame::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut extended = bytes.clone();
        extended.push(0xAA);
        prop_assert_eq!(Frame::decode(&extended), Err(WireError::TrailingBytes { extra: 1 }));
    }

    /// Stream reassembly at **every** split offset: a marker, an
    /// enveloped frame and a marker, cut in two at each possible byte
    /// boundary — envelope splits, header splits, length-field splits,
    /// payload splits — parse to exactly the records that end before
    /// the cut, then the rest, with the frame byte-identical, and never
    /// a panic (the pre-socket decoders reported a header split across
    /// reads as a truncated frame).
    #[test]
    fn reassembly_survives_every_split_offset(kind in 0u8..5, seed in 0u64..10_000, len in 0usize..6) {
        let frame = build_frame(kind, seed, len);
        let records = [
            Owned::Marker(seed),
            Owned::Frame(seed + 2, seed + 1, frame.encode()),
            Owned::Marker(seed + 1),
        ];
        let encoded: Vec<Vec<u8>> = records.iter().map(Owned::encode).collect();
        let stream = encoded.concat();
        for cut in 0..=stream.len() {
            // records wholly inside the prefix, then the rest
            let mut whole = 0;
            let mut end = 0;
            for bytes in &encoded {
                end += bytes.len();
                whole += usize::from(end <= cut);
            }
            let got = reframe(&stream, &[cut]);
            prop_assert_eq!(&got[0][..], &records[..whole], "prefix of split {}", cut);
            prop_assert_eq!(&got[1][..], &records[whole..], "rest of split {}", cut);
        }
        prop_assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    /// [`frame_len`] never errors on a strict prefix of a valid frame
    /// (every cut is "valid so far"), and reports the exact total
    /// length from the complete header onward.
    #[test]
    fn frame_len_is_monotone_on_valid_prefixes(kind in 0u8..5, seed in 0u64..10_000, len in 0usize..6) {
        let bytes = build_frame(kind, seed, len).encode();
        let header = 29usize;
        for cut in 0..bytes.len() {
            let got = frame_len(&bytes[..cut]);
            if cut < header {
                prop_assert_eq!(got, Ok(None), "header prefix {} misclassified", cut);
            } else {
                prop_assert_eq!(got, Ok(Some(bytes.len())));
            }
        }
    }

    /// A stream of enveloped frames between tick markers, re-chunked at
    /// seeded arbitrary boundaries, reframes to exactly the original
    /// record sequence, every frame decoding to the one sent.
    #[test]
    fn reassembly_survives_seeded_chunking(seed in 0u64..10_000, count in 1usize..5) {
        let frames: Vec<Frame> = (0..count)
            .map(|i| build_frame(((seed as usize + i) % 5) as u8, seed ^ (i as u64), 1 + i % 4))
            .collect();
        let records: Vec<Owned> = (0..count as u64)
            .flat_map(|i| {
                let frame = frames[i as usize].encode();
                [Owned::Frame(i + 1 + seed % 3, i, frame), Owned::Marker(i)]
            })
            .collect();
        let stream: Vec<u8> = records.iter().flat_map(Owned::encode).collect();
        // seeded chunk sizes in 1..=31 bytes
        let mut cuts = Vec::new();
        let mut at = 0usize;
        while at < stream.len() {
            at = (at + 1 + (unit_hash(seed, cuts.len(), at, 0) * 31.0) as usize).min(stream.len());
            cuts.push(at);
        }
        let got: Vec<Owned> = reframe(&stream, &cuts).concat();
        prop_assert_eq!(&got, &records);
        for (record, frame) in got.iter().step_by(2).zip(&frames) {
            let Owned::Frame(_, _, bytes) = record else { unreachable!() };
            prop_assert_eq!(&Frame::decode(bytes), &Ok(frame.clone()));
        }
    }

    /// Splicing `Batch` into any sub-frame's kind byte is refused as
    /// `NestedBatch` — nesting is structurally impossible to decode.
    #[test]
    fn nested_batches_are_refused(seed in 0u64..1000, len in 1usize..5, pick in 0usize..4) {
        let frame = build_frame(4, seed, len);
        let Payload::Batch(subs) = &frame.payload else { unreachable!() };
        // locate the picked sub-frame's kind byte by re-walking sizes;
        // a standalone encoding of the same payload reveals its length
        let header = 29usize;
        let payload_len = |p: &Payload| {
            Frame { from: 0, to: 0, seq: 0, round: 0, payload: p.clone() }.encode().len() - header
        };
        let mut at = header + 4; // frame header + sub count
        for sub in subs.iter().take(pick % subs.len()) {
            at += 21 + payload_len(&sub.payload); // sub header + payload
        }
        let mut bytes = frame.encode();
        bytes[at] = 8; // FrameKind::Batch
        prop_assert_eq!(Frame::decode(&bytes), Err(WireError::NestedBatch));
    }
}
