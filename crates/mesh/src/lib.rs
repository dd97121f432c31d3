//! Region-sharded mesh runtime for the gradient algorithm.
//!
//! Splits an instance's nodes across region workers — the servers in
//! contiguous ranges, each bandwidth node and dummy source with the
//! server that runs it — that run local sweeps and exchange
//! **serialized** Γ rows, one tick per iteration, over one transport,
//! [`SocketTransport`]: an ordered duplex byte stream per region pair —
//! an in-process pipe, a Unix-domain socket pair or loopback TCP, per
//! [`SocketKind`] — carrying wire-v4 frames inside `(deliver_tick,
//! sent_tick)` stream records, with per-peer tick markers instead of a
//! barrier. No marginal travels: every marginal a region's Γ reads
//! belongs to a node the region owns and sweeps itself. Two oracles
//! hold on every stream kind (ARCHITECTURE invariants 19 and 21):
//!
//! * fault-free ([`MeshRuntime::lossless`]), the mesh trajectory is
//!   **bit-identical** to `spn_core::GradientAlgorithm`;
//! * under a seeded [`MeshFaultConfig`] — per-link loss, duplication,
//!   bounded delay, and region partitions with staggered heal, applied
//!   by each link's [`FaultyStream`] before bytes reach the stream —
//!   the run emits a deterministic, serializable [`MeshIncident`] log,
//!   identical on every stream kind, and still reaches the same
//!   convergence verdict within tier-2 tolerance.
//!
//! Robustness machinery: per-message sequence numbers with
//! retry-under-capped-exponential-backoff for reliable frames,
//! per-region heartbeat timeouts that degrade silent peers to suspect
//! (iteration continues on last-known Γ), and epoch-fenced
//! checkpoint/recovery so a rejoining region restores survivor state
//! bit-for-bit.
//!
//! The wire path (format v4) is **delta-encoded, coalesced, and
//! pooled** — one batch per (link, tick), see [`worker`] — and
//! suppression never changes received values (ARCHITECTURE invariant
//! 20).
//!
//! Module map:
//!
//! * [`wire`] — versioned binary frame format with validating decode
//!   and the length prefix streams reframe by ([`frame_len`]).
//! * [`transport`] — the [`Transport`] trait and the [`Inbox`] arena.
//! * [`socket`] — [`SocketTransport`] over in-process, Unix-domain and
//!   TCP streams, and its one reframer, [`socket::parse_records`].
//! * [`fault`] — seeded fault plan ([`MeshFaultConfig`]).
//! * [`incident`] — the [`MeshIncident`] log entries.
//! * [`worker`] — the ownership table, and one region's mirrors,
//!   reliability state, and tick.
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

pub use fault::{MeshFaultConfig, PartitionSpec};
pub use incident::MeshIncident;
pub use runtime::{MeshConfig, MeshError, MeshReport, MeshRuntime};
pub use socket::{FaultyStream, SocketIoStats, SocketKind, SocketOptions, SocketTransport};
pub use transport::{Inbox, Transport};
pub use wire::{
    frame_len, BatchReader, Frame, FrameBuf, FrameKind, Payload, SubFrame, SubView, WireError,
    WIRE_VERSION,
};
pub use worker::{LinkWireStats, MeshWireStats, RegionWorker, TICKS_PER_ITERATION};

/// Inert shim: the fault-free in-process transport is now
/// [`SocketTransport`] over [`SocketKind::Memory`]
/// ([`MeshRuntime::lossless`]). Kept only so the frozen `benchmark/`
/// surface compiles; the next `[benchmark]` PR removes it.
#[deprecated(note = "use SocketTransport; the next benchmark PR removes it")]
pub type Lossless = SocketTransport;
