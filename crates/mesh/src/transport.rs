//! The transport seam: how encoded frames travel between regions.
//!
//! A [`Transport`] carries opaque byte frames (already encoded in the
//! [`crate::wire`] format) from sender to destination inbox. Frames
//! sent at tick `T` become deliverable at tick `T + 1` at the earliest,
//! and are handed out in a deterministic order. The mesh has one
//! implementation, [`crate::SocketTransport`]: ordered byte streams
//! (in-process pipes, Unix-domain sockets or loopback TCP) whose
//! [`crate::FaultyStream`] links inject the seeded faults; the trait
//! stays the seam test wrappers and the benchmark's timer hook into.
//!
//! A worker ships **one batch frame per (link, tick)**, so each fault
//! draw applies to the whole batch (`kind = "batch"` in incidents).
//! Senders pass borrowed bytes and receivers drain into a caller-owned
//! [`Inbox`] arena; the transport recycles its frame buffers through a
//! spare pool, so the steady-state transport path allocates nothing.

use crate::incident::MeshIncident;

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
    /// An empty inbox refusing frames past `budget` held bytes.
    #[must_use]
    pub(crate) fn with_budget(budget: usize) -> Self {
        Inbox {
            budget,
            ..Inbox::default()
        }
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
pub(crate) fn push_or_log(
    inbox: &mut Inbox,
    tick: u64,
    to: usize,
    bytes: &[u8],
    log: &mut Vec<MeshIncident>,
) {
    if inbox.push(bytes) {
        return;
    }
    log.push(MeshIncident::InboxOverflow {
        tick,
        region: to,
        from: frame_from(bytes),
        dropped: bytes.len() as u64,
    });
}

/// A frame conduit between region workers. All methods take the
/// current transport tick; implementations must be deterministic
/// functions of (construction arguments, call sequence).
pub trait Transport {
    /// Called once per tick before any send or deliver, so the
    /// transport can log scheduled events (partition cuts and heals).
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>);

    /// Pumps the transport and reports whether everything deliverable
    /// to `to` at `tick` is known to have arrived: the stream transport
    /// answers once every peer's tick marker `tick - 1` is in hand. The
    /// runtime polls this and advances the phase anyway once the phase
    /// deadline expires (logging [`MeshIncident::PhaseDeadlineExpired`]).
    fn ready(&mut self, tick: u64, to: usize) -> bool;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_budget_refuses_floods() {
        let frame = [7u8; 40];
        let mut inbox = Inbox::with_budget(frame.len() + 1);
        assert!(inbox.push(&frame));
        assert!(!inbox.push(&frame));
        assert_eq!(inbox.len(), 1);
        inbox.clear();
        // the budget caps bytes held at once — per delivery, not forever
        assert!(inbox.push(&frame));
    }
}
