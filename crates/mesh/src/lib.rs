//! Region-sharded mesh runtime for the gradient algorithm.
//!
//! Splits a hierarchical instance's nodes across region workers that
//! run local sweeps and exchange **serialized** marginal / Γ /
//! flow-forecast messages over a pluggable transport. Three transports
//! back the oracles:
//!
//! * [`Lossless`] — synchronous barriers; the mesh trajectory is
//!   **bit-identical** to `spn_core::GradientAlgorithm`.
//! * [`Chaotic`] — seeded per-link loss, duplication, bounded delay,
//!   and region partitions with staggered heal; the run emits a
//!   deterministic, serializable [`MeshIncident`] log and still reaches
//!   the same convergence verdict within tier-2 tolerance.
//! * [`SocketTransport`] — real kernel byte streams (TCP or
//!   Unix-domain, per [`SocketKind`]) carrying the same wire-v2 frames
//!   inside `(deliver_tick, order)` stream records, with per-peer tick
//!   markers replacing the barrier. A loopback socket run replays the
//!   in-process delivery order exactly, so both oracles above transfer
//!   across the kernel (ARCHITECTURE invariant 21); its
//!   [`FaultyStream`] links apply the same seeded [`MeshFaultConfig`]
//!   draws netem-style, before bytes hit the socket.
//!
//! Robustness machinery: per-message sequence numbers with
//! retry-under-capped-exponential-backoff for reliable frames,
//! per-region heartbeat timeouts that degrade silent peers to suspect
//! (iteration continues on last-known Γ), and epoch-fenced
//! checkpoint/recovery so a rejoining region restores survivor state
//! bit-for-bit.
//!
//! The wire path (format v2) is **delta-encoded, coalesced, and
//! pooled** — one batch per (link, tick), see [`worker`] — and
//! suppression never changes received values (ARCHITECTURE invariant
//! 20).
//!
//! Module map:
//!
//! * [`wire`] — versioned binary frame format with validating decode
//!   and incremental stream reframing ([`FrameAssembler`]).
//! * [`transport`] — the [`Transport`] trait, [`Lossless`], [`Chaotic`].
//! * [`socket`] — [`SocketTransport`] over TCP / Unix-domain streams.
//! * [`fault`] — seeded fault plan ([`MeshFaultConfig`]).
//! * [`incident`] — the [`MeshIncident`] log entries.
//! * [`worker`] — one region's mirrors, reliability state, and phases.
//! * [`recovery`] — state digests and snapshot encode/apply.
//! * [`runtime`] — [`MeshRuntime`]: configuration, tick loop, report.

pub mod fault;
pub mod incident;
pub mod recovery;
pub mod runtime;
pub mod socket;
pub mod transport;
pub mod wire;
pub mod worker;

pub use fault::{MeshFaultConfig, MeshFaultPlan, PartitionSpec};
pub use incident::MeshIncident;
pub use runtime::{MeshConfig, MeshError, MeshReport, MeshRuntime};
pub use socket::{FaultyStream, SocketIoStats, SocketKind, SocketOptions, SocketTransport};
pub use transport::{Chaotic, Inbox, Lossless, Transport};
pub use wire::{
    frame_len, BatchReader, Frame, FrameAssembler, FrameBuf, FrameKind, Payload, SubFrame, SubView,
    WireError, WIRE_VERSION,
};
pub use worker::{LinkWireStats, MeshWireStats, RegionWorker, TICKS_PER_ITERATION};
