//! The mesh incident log: every fault the transport injected and every
//! protocol reaction a worker took, in one deterministic, serializable
//! stream.
//!
//! Semantics are `ChaosGradient`-compatible (`spn_sim::chaos`): a lost
//! broadcast means listeners act on the last value heard; a duplicate or
//! stale delivery is *detected* and discarded rather than applied twice;
//! a partition degrades peers to suspect instead of stalling the
//! survivors. Like [`spn_sim::ChaosIncident`], every variant is
//! serde-serializable so incident logs can be rendered to JSON and
//! diffed byte-for-byte across CI runs.

use crate::wire::FrameKind;
use serde::Serialize;

/// One entry of the mesh incident log.
///
/// Regions are identified by index; `tick` is the transport wall clock
/// ([`crate::TICKS_PER_ITERATION`] per iteration).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MeshIncident {
    /// A scheduled partition cut every link of `region`.
    PartitionStarted {
        /// Wall-clock tick.
        tick: u64,
        /// The isolated region.
        region: usize,
    },
    /// One link of a partitioned region healed (heals are staggered).
    LinkHealed {
        /// Wall-clock tick.
        tick: u64,
        /// The partitioned region.
        region: usize,
        /// The peer whose link came back.
        peer: usize,
    },
    /// Every link of the partitioned region has healed.
    PartitionHealed {
        /// Wall-clock tick.
        tick: u64,
        /// The formerly isolated region.
        region: usize,
    },
    /// The transport dropped a frame in flight.
    FrameLost {
        /// Wall-clock tick.
        tick: u64,
        /// Sender region.
        from: usize,
        /// Destination region.
        to: usize,
        /// Frame kind.
        kind: FrameKind,
    },
    /// The transport delivered a frame twice.
    FrameDuplicated {
        /// Wall-clock tick.
        tick: u64,
        /// Sender region.
        from: usize,
        /// Destination region.
        to: usize,
        /// Frame kind.
        kind: FrameKind,
    },
    /// The transport held a frame back beyond the next tick.
    FrameDelayed {
        /// Wall-clock tick of the send.
        tick: u64,
        /// Sender region.
        from: usize,
        /// Destination region.
        to: usize,
        /// Frame kind.
        kind: FrameKind,
        /// Tick at which the frame becomes deliverable.
        until: u64,
    },
    /// A receiver discarded a frame older than its round watermark.
    StaleFrameDiscarded {
        /// Wall-clock tick.
        tick: u64,
        /// The discarding region.
        region: usize,
        /// The frame's sender.
        from: usize,
        /// Frame kind.
        kind: FrameKind,
        /// The frame's (stale) round.
        round: u64,
    },
    /// A receiver discarded an already-seen frame (transport duplicate
    /// or redundant retransmit).
    DuplicateFrameDiscarded {
        /// Wall-clock tick.
        tick: u64,
        /// The discarding region.
        region: usize,
        /// The frame's sender.
        from: usize,
        /// Frame kind.
        kind: FrameKind,
    },
    /// An unacknowledged reliable frame was retransmitted (capped
    /// exponential backoff).
    Retransmitted {
        /// Wall-clock tick.
        tick: u64,
        /// Sender region.
        from: usize,
        /// Destination region.
        to: usize,
        /// The frame's reliable sequence number.
        seq: u64,
        /// Retransmit attempt count (1 = first retry).
        attempt: u32,
    },
    /// A region stopped hearing from a peer and degraded it to suspect
    /// (the region keeps iterating on the peer's last-known state).
    PeerSuspect {
        /// Wall-clock tick.
        tick: u64,
        /// The observing region.
        region: usize,
        /// The silent peer.
        peer: usize,
    },
    /// A suspect peer was heard from again.
    PeerRecovered {
        /// Wall-clock tick.
        tick: u64,
        /// The observing region.
        region: usize,
        /// The recovered peer.
        peer: usize,
    },
    /// A formerly isolated region asked a survivor for state.
    RecoveryRequested {
        /// Wall-clock tick.
        tick: u64,
        /// The rejoining region.
        region: usize,
        /// The survivor asked.
        survivor: usize,
        /// The fencing token echoed by the snapshot.
        token: u64,
    },
    /// A survivor captured and sent its state snapshot.
    RecoveryServed {
        /// Wall-clock tick.
        tick: u64,
        /// The serving survivor.
        region: usize,
        /// The rejoining peer served.
        peer: usize,
        /// The fencing token.
        token: u64,
        /// Bit-digest of the routing state captured (compare with the
        /// matching [`MeshIncident::RecoveryCompleted`] digest to pin
        /// bit-for-bit restoration).
        digest: u64,
    },
    /// A rejoining region applied a survivor snapshot through the epoch
    /// fence.
    RecoveryCompleted {
        /// Wall-clock tick.
        tick: u64,
        /// The rejoined region.
        region: usize,
        /// Commodity-set epoch of the applied snapshot.
        epoch: u64,
        /// Bit-digest of the routing state after the restore.
        digest: u64,
    },
    /// A destination's per-tick inbox byte budget was exhausted and a
    /// frame was refused instead of growing the arena past its
    /// high-water mark (duplicate-flood backpressure; the refusal path
    /// itself allocates nothing).
    InboxOverflow {
        /// Wall-clock tick.
        tick: u64,
        /// The destination whose inbox refused the frame.
        region: usize,
        /// The refused frame's sender.
        from: usize,
        /// The refused frame's byte length.
        dropped: u64,
    },
    /// A region's phase deadline expired before every peer's traffic
    /// for the tick was known complete; the region advanced with what
    /// had arrived, degrading to last-known peer state instead of
    /// stalling (kernel sockets only — in-process pipes are ready on
    /// the first poll).
    PhaseDeadlineExpired {
        /// Wall-clock tick.
        tick: u64,
        /// The region that stopped waiting.
        region: usize,
    },
    /// A receiver discarded an undecodable batch instead of panicking.
    /// In-process transports never hand a worker corrupt bytes; a
    /// desynced byte stream could, and the protocol treats it like a
    /// lost frame (retransmission and the periodic refresh re-anchor).
    MalformedFrameDiscarded {
        /// Wall-clock tick.
        tick: u64,
        /// The discarding region.
        region: usize,
        /// The decoder's structured reason, rendered.
        error: String,
    },
}

impl Serialize for MeshIncident {
    fn to_value(&self) -> serde::Value {
        fn tag(kind: &str, fields: &[(&str, u64)]) -> serde::Value {
            let mut entries = vec![("kind".to_owned(), serde::Value::Str(kind.to_owned()))];
            for &(name, v) in fields {
                entries.push((name.to_owned(), v.to_value()));
            }
            serde::Value::Map(entries)
        }
        fn frame_kind(entries: &mut serde::Value, kind: FrameKind) {
            if let serde::Value::Map(map) = entries {
                map.push((
                    "frame".to_owned(),
                    serde::Value::Str(kind.name().to_owned()),
                ));
            }
        }
        match *self {
            MeshIncident::PartitionStarted { tick, region } => tag(
                "PartitionStarted",
                &[("tick", tick), ("region", region as u64)],
            ),
            MeshIncident::LinkHealed { tick, region, peer } => tag(
                "LinkHealed",
                &[
                    ("tick", tick),
                    ("region", region as u64),
                    ("peer", peer as u64),
                ],
            ),
            MeshIncident::PartitionHealed { tick, region } => tag(
                "PartitionHealed",
                &[("tick", tick), ("region", region as u64)],
            ),
            MeshIncident::FrameLost {
                tick,
                from,
                to,
                kind,
            } => {
                let mut v = tag(
                    "FrameLost",
                    &[("tick", tick), ("from", from as u64), ("to", to as u64)],
                );
                frame_kind(&mut v, kind);
                v
            }
            MeshIncident::FrameDuplicated {
                tick,
                from,
                to,
                kind,
            } => {
                let mut v = tag(
                    "FrameDuplicated",
                    &[("tick", tick), ("from", from as u64), ("to", to as u64)],
                );
                frame_kind(&mut v, kind);
                v
            }
            MeshIncident::FrameDelayed {
                tick,
                from,
                to,
                kind,
                until,
            } => {
                let mut v = tag(
                    "FrameDelayed",
                    &[
                        ("tick", tick),
                        ("from", from as u64),
                        ("to", to as u64),
                        ("until", until),
                    ],
                );
                frame_kind(&mut v, kind);
                v
            }
            MeshIncident::StaleFrameDiscarded {
                tick,
                region,
                from,
                kind,
                round,
            } => {
                let mut v = tag(
                    "StaleFrameDiscarded",
                    &[
                        ("tick", tick),
                        ("region", region as u64),
                        ("from", from as u64),
                        ("round", round),
                    ],
                );
                frame_kind(&mut v, kind);
                v
            }
            MeshIncident::DuplicateFrameDiscarded {
                tick,
                region,
                from,
                kind,
            } => {
                let mut v = tag(
                    "DuplicateFrameDiscarded",
                    &[
                        ("tick", tick),
                        ("region", region as u64),
                        ("from", from as u64),
                    ],
                );
                frame_kind(&mut v, kind);
                v
            }
            MeshIncident::Retransmitted {
                tick,
                from,
                to,
                seq,
                attempt,
            } => tag(
                "Retransmitted",
                &[
                    ("tick", tick),
                    ("from", from as u64),
                    ("to", to as u64),
                    ("seq", seq),
                    ("attempt", u64::from(attempt)),
                ],
            ),
            MeshIncident::PeerSuspect { tick, region, peer } => tag(
                "PeerSuspect",
                &[
                    ("tick", tick),
                    ("region", region as u64),
                    ("peer", peer as u64),
                ],
            ),
            MeshIncident::PeerRecovered { tick, region, peer } => tag(
                "PeerRecovered",
                &[
                    ("tick", tick),
                    ("region", region as u64),
                    ("peer", peer as u64),
                ],
            ),
            MeshIncident::RecoveryRequested {
                tick,
                region,
                survivor,
                token,
            } => tag(
                "RecoveryRequested",
                &[
                    ("tick", tick),
                    ("region", region as u64),
                    ("survivor", survivor as u64),
                    ("token", token),
                ],
            ),
            MeshIncident::RecoveryServed {
                tick,
                region,
                peer,
                token,
                digest,
            } => {
                // digests use the full 64-bit range, beyond f64's exact
                // integers — render as hex strings
                let mut v = tag(
                    "RecoveryServed",
                    &[
                        ("tick", tick),
                        ("region", region as u64),
                        ("peer", peer as u64),
                        ("token", token),
                    ],
                );
                if let serde::Value::Map(map) = &mut v {
                    map.push((
                        "digest".to_owned(),
                        serde::Value::Str(format!("{digest:016x}")),
                    ));
                }
                v
            }
            MeshIncident::RecoveryCompleted {
                tick,
                region,
                epoch,
                digest,
            } => {
                let mut v = tag(
                    "RecoveryCompleted",
                    &[("tick", tick), ("region", region as u64), ("epoch", epoch)],
                );
                if let serde::Value::Map(map) = &mut v {
                    map.push((
                        "digest".to_owned(),
                        serde::Value::Str(format!("{digest:016x}")),
                    ));
                }
                v
            }
            MeshIncident::InboxOverflow {
                tick,
                region,
                from,
                dropped,
            } => tag(
                "InboxOverflow",
                &[
                    ("tick", tick),
                    ("region", region as u64),
                    ("from", from as u64),
                    ("dropped", dropped),
                ],
            ),
            MeshIncident::PhaseDeadlineExpired { tick, region } => tag(
                "PhaseDeadlineExpired",
                &[("tick", tick), ("region", region as u64)],
            ),
            MeshIncident::MalformedFrameDiscarded {
                tick,
                region,
                ref error,
            } => {
                let mut v = tag(
                    "MalformedFrameDiscarded",
                    &[("tick", tick), ("region", region as u64)],
                );
                if let serde::Value::Map(map) = &mut v {
                    map.push(("error".to_owned(), serde::Value::Str(error.clone())));
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incidents_render_deterministically() {
        let log = vec![
            MeshIncident::PartitionStarted { tick: 9, region: 2 },
            MeshIncident::FrameLost {
                tick: 10,
                from: 2,
                to: 0,
                kind: FrameKind::GammaRows,
            },
            MeshIncident::RecoveryCompleted {
                tick: 40,
                region: 2,
                epoch: 0,
                digest: 0xDEAD,
            },
        ];
        let a = serde_json::to_string(&log).unwrap();
        let b = serde_json::to_string(&log).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"PartitionStarted\""));
        assert!(a.contains("\"gamma-rows\""));
    }
}
