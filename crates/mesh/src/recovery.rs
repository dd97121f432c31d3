//! Snapshot plumbing between [`spn_core::Checkpoint`] and the wire.
//!
//! A survivor answers a [`crate::wire::Payload::RecoveryRequest`] by
//! capturing its mirror into a checkpoint, lifting the checkpoint into a
//! [`RecoveryStatePayload`], and sending it on the reliable stream. The
//! rejoiner lowers the payload back into a checkpoint and applies it
//! through the epoch fence (`Checkpoint::apply_state`), so a snapshot
//! captured against a different commodity set is refused structurally
//! rather than silently corrupting the mirror.
//!
//! Both ends digest the routing fractions they hold — the survivor at
//! capture, the rejoiner after restore. Equal digests pin the headline
//! guarantee: the rejoined region's state is **bit-for-bit** the
//! survivor's, not merely close.
//!
//! The handshake is transport-agnostic: it rides the reliable frame
//! stream (sequence numbers plus retry-under-backoff), so the same
//! request → snapshot → apply → digest dance runs unchanged over every
//! stream kind of [`crate::socket::SocketTransport`] — the pinned
//! faulty-run digests cover a partition-and-rejoin over in-process
//! pipes and real sockets alike.

use crate::wire::RecoveryStatePayload;
use spn_core::Checkpoint;

/// Order-sensitive FNV-1a fold over the exact bit patterns of a float
/// buffer. Any single-bit difference — value, position, or length —
/// changes the digest.
#[must_use]
pub(crate) fn state_digest(values: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Lifts a captured checkpoint into a wire payload.
///
/// # Panics
///
/// Panics if the checkpoint has never captured state (the survivor
/// always captures immediately before calling this).
#[must_use]
pub(crate) fn snapshot_to_payload(ck: &Checkpoint, token: u64) -> RecoveryStatePayload {
    assert!(ck.is_captured(), "snapshot of an empty checkpoint");
    RecoveryStatePayload {
        token,
        epoch: ck.epoch(),
        iterations: ck.iterations() as u64,
        epsilon: ck.epsilon(),
        eta: ck.eta(),
        phi: ck.phi().to_vec(),
        t: ck.t().to_vec(),
        x: ck.x().to_vec(),
        f_edge: ck.f_edge().to_vec(),
        f_node: ck.f_node().to_vec(),
        d: ck.d().to_vec(),
    }
}

/// Lowers a wire payload back into a checkpoint ready for
/// `Checkpoint::apply_state`.
#[must_use]
pub(crate) fn payload_to_snapshot(p: &RecoveryStatePayload) -> Checkpoint {
    Checkpoint::from_raw(
        p.phi.clone(),
        p.t.clone(),
        p.x.clone(),
        p.f_edge.clone(),
        p.f_node.clone(),
        p.d.clone(),
        p.iterations as usize,
        p.epsilon,
        p.eta,
        p.epoch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_bit_sensitive() {
        let base = vec![0.25f64, -1.5, 3.0];
        let d0 = state_digest(&base);
        assert_eq!(d0, state_digest(&[0.25, -1.5, 3.0]));
        // value flip
        assert_ne!(d0, state_digest(&[0.25, -1.5, 3.000_000_000_000_001]));
        // order flip
        assert_ne!(d0, state_digest(&[-1.5, 0.25, 3.0]));
        // length flip
        assert_ne!(d0, state_digest(&[0.25, -1.5, 3.0, 0.0]));
        // signed zero is a different bit pattern
        assert_ne!(state_digest(&[0.0]), state_digest(&[-0.0]));
    }

    #[test]
    fn payload_round_trips_through_a_checkpoint() {
        let ck = Checkpoint::from_raw(
            vec![0.5, 0.5],
            vec![1.0],
            vec![0.25, 0.25],
            vec![0.5],
            vec![1.5],
            vec![0.1, 0.2],
            7,
            0.2,
            0.05,
            3,
        );
        let payload = snapshot_to_payload(&ck, 99);
        assert_eq!(payload.token, 99);
        assert_eq!(payload.epoch, 3);
        let back = payload_to_snapshot(&payload);
        assert_eq!(back.phi(), ck.phi());
        assert_eq!(back.t(), ck.t());
        assert_eq!(back.x(), ck.x());
        assert_eq!(back.f_edge(), ck.f_edge());
        assert_eq!(back.f_node(), ck.f_node());
        assert_eq!(back.d(), ck.d());
        assert_eq!(back.iterations(), ck.iterations());
        assert_eq!(back.epoch(), ck.epoch());
        assert_eq!(state_digest(back.phi()), state_digest(ck.phi()));
    }
}
