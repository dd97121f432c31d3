//! The mesh runtime: configuration, the tick loop, and reporting.
//!
//! [`MeshRuntime`] owns the region workers and a [`Transport`], and
//! drives each iteration's one tick ([`TICKS_PER_ITERATION`]) in fixed
//! region order — the whole run is a deterministic function of the
//! problem, the config and the transport's fault plan. Construction
//! builds the node ownership table once and hands it to every worker;
//! it opens streams but exchanges nothing (each worker computes the
//! first Γ pass itself). Fault-free
//! ([`MeshRuntime::lossless`], or any [`SocketKind`] without faults)
//! the trajectory is bit-identical to `spn_core::GradientAlgorithm`
//! under every `GradientConfig` the core accepts (ε is a constant of the
//! run, set once from the config); with a fault plan the run
//! additionally produces a deterministic [`MeshIncident`] log (see
//! [`MeshRuntime::incidents`]).
//!
//! The tick loop is allocation-free once warm: deliveries land in one
//! reusable [`Inbox`] arena, each worker writes its per-link batch
//! into a reusable buffer, and the transport borrows those bytes.
//!
//! **Phase advancement is deadline-driven, not barrier-driven.** Before
//! delivering a region's tick, the runtime polls [`Transport::ready`],
//! which answers once every peer's tick markers are in hand — on the
//! first poll over in-process pipes, where writes land synchronously.
//! If readiness does not arrive within [`MeshConfig::phase_deadline`],
//! the runtime logs [`MeshIncident::PhaseDeadlineExpired`] and advances
//! anyway — the worker iterates on last-known peer state (exactly the
//! suspect-degradation path), so one stalled peer bounds tick latency
//! instead of freezing the mesh.

use crate::incident::MeshIncident;
use crate::socket::{SocketKind, SocketOptions, SocketTransport};
use crate::transport::{Inbox, Transport};
use crate::worker::{owner_table, MeshWireStats, RegionWorker, TICKS_PER_ITERATION};
use spn_core::gamma::GammaStats;
use spn_core::{ConfigError, CostModel, GradientConfig, StableOutcome};
use spn_transform::ExtendedNetwork;
use std::time::{Duration, Instant};

/// Mesh tunables on top of the gradient config.
///
/// Every worker runs the live-arc sweeps (`spn_core::LiveArcSweeps`)
/// over its mirror, every commodity every iteration (bit-identical to
/// the monolithic step by ARCHITECTURE invariants 13/15). The mesh runs
/// every [`GradientConfig`] the core accepts; it refuses only
/// mesh-shaped settings (see [`MeshError`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MeshConfig {
    /// Number of region workers the node space is split across.
    pub regions: usize,
    /// The underlying gradient tunables (validated exactly like
    /// `GradientAlgorithm`).
    pub gradient: GradientConfig,
    /// Ticks of silence before a peer is degraded to suspect; ≥ 1. Each
    /// peer's batch ships every tick and is heard the next, and peers
    /// are checked every tick after the inbox drain: a healthy peer is
    /// never silent when checked.
    pub suspect_after: u64,
    /// Cap on the exponential retransmit backoff, in ticks.
    pub retry_backoff_cap: u64,
    /// Rounds between full-frame refreshes of the delta wire
    /// (ARCHITECTURE invariant 20): every `refresh_every`-th round each
    /// worker ships all owned rows instead of only changed ones,
    /// re-anchoring every delta chain. `1` degenerates to the v1
    /// full-broadcast wire (the bench baseline); must be ≥ 1.
    pub refresh_every: u64,
    /// Wall-clock budget for a region's phase to become ready (all
    /// live peers' frames in hand per [`Transport::ready`]). On expiry
    /// the runtime logs [`MeshIncident::PhaseDeadlineExpired`] and
    /// advances on last-known peer state. In-process pipes are ready on
    /// the first poll, so the deadline only ever fires over sockets.
    pub phase_deadline: Duration,
    /// Byte budget of the per-tick delivery [`Inbox`]: deliveries past
    /// the cap are refused without allocating and logged as
    /// [`MeshIncident::InboxOverflow`], bounding memory against a
    /// flooding or runaway peer. Must be at least 1024 bytes (a budget
    /// below one frame would silently drop *all* traffic).
    pub inbox_budget: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            regions: 2,
            gradient: GradientConfig::default(),
            suspect_after: 9,
            retry_backoff_cap: 32,
            refresh_every: 16,
            phase_deadline: Duration::from_secs(5),
            inbox_budget: 64 << 20,
        }
    }
}

/// Mesh construction errors.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MeshError {
    /// `regions` must be at least 1.
    NoRegions,
    /// More regions than physical servers (regions split the servers,
    /// so some worker would own none) or than the wire's 16-bit region
    /// id can address.
    TooManyRegions {
        /// Requested region count.
        regions: usize,
        /// Physical server count (the upper bound).
        servers: usize,
    },
    /// `refresh_every` must be at least 1: a zero cadence would never
    /// re-anchor a delta chain, so a receiver that missed one delta
    /// could stay stale forever.
    ZeroRefreshCadence,
    /// `suspect_after` must be at least 1: a zero window suspects every
    /// healthy peer after each tick that brought no frame from it.
    ZeroSuspectWindow,
    /// `inbox_budget` must be at least 1024 bytes — smaller than one
    /// frame means every delivery is refused and the mesh runs deaf.
    InboxBudgetTooSmall {
        /// The offending budget.
        budget: usize,
    },
    /// The socket layer failed while building the mesh (`socketpair`,
    /// `bind`, `connect`, `accept`, or socket-option setting).
    Socket(String),
    /// The underlying gradient config is invalid.
    Config(ConfigError),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::NoRegions => write!(f, "mesh needs at least one region"),
            MeshError::TooManyRegions { regions, servers } => write!(
                f,
                "{regions} regions cannot split {servers} servers (at least one server per \
                 region, and region ids must fit u16)"
            ),
            MeshError::ZeroRefreshCadence => {
                write!(
                    f,
                    "refresh_every must be at least 1 (1 = full broadcast every round)"
                )
            }
            MeshError::ZeroSuspectWindow => write!(f, "suspect_after must be at least 1 tick"),
            MeshError::InboxBudgetTooSmall { budget } => write!(
                f,
                "inbox_budget of {budget} bytes is below the 1024-byte floor (one frame would \
                 not fit; every delivery would be refused)"
            ),
            MeshError::Socket(e) => write!(f, "mesh socket setup: {e}"),
            MeshError::Config(e) => write!(f, "gradient config: {e}"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<ConfigError> for MeshError {
    fn from(e: ConfigError) -> Self {
        MeshError::Config(e)
    }
}

/// A mesh run's outcome, comparable across runs: two same-seed faulty
/// runs must produce equal reports (pinned by `tests/mesh_equivalence`).
#[derive(Clone, Debug, PartialEq)]
pub struct MeshReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Overall utility `Σ_j U_j(a_j)`, each commodity read from its
    /// owner's mirror in commodity order.
    pub utility: f64,
    /// Admitted rate per commodity, from each owner's mirror.
    pub admitted: Vec<f64>,
    /// Summed per-region total routing shift of the final iteration.
    pub total_shift: f64,
    /// Wire telemetry summed over all workers' links (send side).
    /// Deterministic, so it participates in the same-seed
    /// report-equality oracle.
    pub wire: MeshWireStats,
}

/// The region-sharded mesh: workers, transport, incident log.
pub struct MeshRuntime<T: Transport> {
    ext: ExtendedNetwork,
    cost: CostModel,
    config: MeshConfig,
    workers: Vec<RegionWorker>,
    transport: T,
    tick: u64,
    incidents: Vec<MeshIncident>,
    /// Reusable delivery arena (one region's frames at a time).
    inbox: Inbox,
}

impl MeshRuntime<SocketTransport> {
    /// A fault-free mesh over in-process pipes: the bit-identity
    /// configuration (ARCHITECTURE invariant 19).
    ///
    /// # Errors
    ///
    /// See [`MeshRuntime::with_transport`].
    pub fn lossless(ext: ExtendedNetwork, config: MeshConfig) -> Result<Self, MeshError> {
        let options = SocketOptions {
            kind: SocketKind::Memory,
            ..SocketOptions::default()
        };
        MeshRuntime::socket(ext, config, &options)
    }

    /// A mesh over one duplex stream per region pair — an in-process
    /// pipe, a Unix-domain socket pair or loopback TCP per
    /// [`SocketOptions::kind`] — optionally fault-injected by a seeded
    /// plan (applied netem-style in each link's `FaultyStream`).
    ///
    /// # Errors
    ///
    /// A config error as in [`MeshRuntime::with_transport`], checked
    /// before any stream is opened, or [`MeshError::Socket`] if opening
    /// the streams fails.
    pub fn socket(
        ext: ExtendedNetwork,
        config: MeshConfig,
        options: &SocketOptions,
    ) -> Result<Self, MeshError> {
        validate(&ext, &config)?;
        let transport = SocketTransport::connect(config.regions, options)
            .map_err(|e| MeshError::Socket(e.to_string()))?;
        Ok(MeshRuntime::build(ext, config, transport))
    }
}

/// The rules [`MeshRuntime::with_transport`] documents.
fn validate(ext: &ExtendedNetwork, config: &MeshConfig) -> Result<(), MeshError> {
    if config.regions == 0 {
        return Err(MeshError::NoRegions);
    }
    let servers = ext.physical_nodes();
    if config.regions > servers || config.regions > usize::from(u16::MAX) {
        return Err(MeshError::TooManyRegions {
            regions: config.regions,
            servers,
        });
    }
    config.gradient.validate()?;
    if config.refresh_every == 0 {
        return Err(MeshError::ZeroRefreshCadence);
    }
    if config.suspect_after == 0 {
        return Err(MeshError::ZeroSuspectWindow);
    }
    if config.inbox_budget < 1024 {
        return Err(MeshError::InboxBudgetTooSmall {
            budget: config.inbox_budget,
        });
    }
    Ok(())
}

impl<T: Transport> MeshRuntime<T> {
    /// Builds the mesh: validates the config (rejecting region counts
    /// the servers or the wire cannot carry, any gradient tunable
    /// [`GradientConfig::validate`] refuses, a zero refresh cadence or
    /// suspect window, and an inbox budget below one frame) and
    /// initializes every worker with the same fully-rejecting mirror and
    /// the first Γ pass staged.
    ///
    /// # Errors
    ///
    /// Returns a [`MeshError`] describing the first violated rule.
    pub fn with_transport(
        ext: ExtendedNetwork,
        config: MeshConfig,
        transport: T,
    ) -> Result<Self, MeshError> {
        validate(&ext, &config)?;
        Ok(MeshRuntime::build(ext, config, transport))
    }

    /// [`MeshRuntime::with_transport`] for a config already validated.
    fn build(ext: ExtendedNetwork, config: MeshConfig, transport: T) -> Self {
        let cost = CostModel {
            penalty: config.gradient.penalty,
            epsilon: config.gradient.epsilon,
            wall_threshold: config.gradient.wall_threshold,
            wall_strength: config.gradient.wall_strength,
        };
        let owner = owner_table(&ext, config.regions);
        let workers = (0..config.regions)
            .map(|r| {
                RegionWorker::new(
                    &ext,
                    &cost,
                    &config.gradient,
                    &owner,
                    r,
                    config.regions,
                    config.refresh_every,
                )
            })
            .collect();
        let inbox = Inbox::with_budget(config.inbox_budget);
        MeshRuntime {
            ext,
            cost,
            config,
            workers,
            transport,
            tick: 0,
            incidents: Vec::new(),
            inbox,
        }
    }

    /// Blocks until `region`'s tick is ready to deliver or the phase
    /// deadline expires (logging the incident and advancing anyway).
    /// A ready first poll (always, over in-process pipes) reads no
    /// clock and allocates nothing.
    fn await_phase(&mut self, tick: u64, region: usize) {
        if self.transport.ready(tick, region) {
            return;
        }
        let deadline = Instant::now() + self.config.phase_deadline;
        loop {
            std::thread::sleep(Duration::from_micros(200));
            if self.transport.ready(tick, region) {
                return;
            }
            if Instant::now() >= deadline {
                self.incidents
                    .push(MeshIncident::PhaseDeadlineExpired { tick, region });
                return;
            }
        }
    }

    /// Performs one protocol iteration — one transport tick, every
    /// worker driven in region order — and returns the Γ statistics of
    /// the rows it applied, summed across regions (max of maxima,
    /// region-ordered sums). After `k` calls every lossless mirror is
    /// `GradientAlgorithm` after `k` steps, bit for bit.
    pub fn step(&mut self) -> GammaStats {
        let tick = self.tick;
        self.transport.begin_tick(tick, &mut self.incidents);
        for r in 0..self.config.regions {
            self.await_phase(tick, r);
            self.transport
                .deliver_into(tick, r, &mut self.inbox, &mut self.incidents);
            self.workers[r].run_phase(
                &self.ext,
                &self.cost,
                &self.config.gradient,
                self.config.suspect_after,
                self.config.retry_backoff_cap,
                tick,
                &self.inbox,
                &mut self.incidents,
            );
            let worker = &self.workers[r];
            for to in 0..self.config.regions {
                if to == r {
                    continue;
                }
                if let Some(bytes) = worker.outgoing(to) {
                    self.transport.send(tick, r, to, bytes, &mut self.incidents);
                }
            }
        }
        self.tick += TICKS_PER_ITERATION;
        let mut total = GammaStats::default();
        for w in &self.workers {
            let g = w.gamma_stats();
            total.max_shift = total.max_shift.max(g.max_shift);
            total.total_shift += g.total_shift;
            total.rows += g.rows;
        }
        total
    }

    /// Runs `iterations` steps and reports.
    pub fn run(&mut self, iterations: usize) -> MeshReport {
        let mut last = GammaStats::default();
        for _ in 0..iterations {
            last = self.step();
        }
        self.report(last)
    }

    /// Runs until the summed per-step routing shift drops below
    /// `shift_tolerance` or `max_iterations` is hit — the mesh analogue
    /// of `GradientAlgorithm::run_until_stable`, judging convergence on
    /// the same statistic.
    pub fn run_until_stable(
        &mut self,
        shift_tolerance: f64,
        max_iterations: usize,
    ) -> (MeshReport, StableOutcome) {
        let mut last = GammaStats::default();
        for done in 0..max_iterations {
            last = self.step();
            if last.total_shift < shift_tolerance {
                return (
                    self.report(last),
                    StableOutcome {
                        iterations: done + 1,
                        converged: true,
                    },
                );
            }
        }
        (
            self.report(last),
            StableOutcome {
                iterations: max_iterations,
                converged: false,
            },
        )
    }

    fn report(&self, last: GammaStats) -> MeshReport {
        let admitted: Vec<f64> = self
            .ext
            .commodity_ids()
            .map(|j| self.owner_worker(j).admitted(&self.ext, j))
            .collect();
        MeshReport {
            iterations: (self.tick / TICKS_PER_ITERATION) as usize,
            utility: self.utility(),
            admitted,
            total_shift: last.total_shift,
            wire: self.wire_stats(),
        }
    }

    /// Overall utility `Σ_j U_j(a_j)`, each commodity read from its
    /// owner region's mirror, summed in commodity order — bit-identical
    /// to `GradientAlgorithm::utility` on a fault-free mesh.
    #[must_use]
    pub fn utility(&self) -> f64 {
        self.ext
            .commodity_ids()
            .map(|j| {
                let w = self.owner_worker(j);
                self.ext
                    .commodity(j)
                    .utility
                    .value(w.admitted(&self.ext, j))
            })
            .sum()
    }

    /// Wire telemetry summed over all workers' links so far (send
    /// side).
    #[must_use]
    pub fn wire_stats(&self) -> MeshWireStats {
        let mut total = MeshWireStats::default();
        for w in &self.workers {
            total.absorb(w.wire_stats());
        }
        total
    }

    /// The worker owning commodity `j`'s dummy source — the router
    /// whose row decides `j`'s admission.
    fn owner_worker(&self, j: spn_model::CommodityId) -> &RegionWorker {
        let w = &self.workers[0];
        &self.workers[w.owner(self.ext.dummy_source(j))]
    }

    /// The incident log so far.
    ///
    /// **Stable ordering guarantee.** The log is append-only and totally
    /// ordered by the deterministic schedule: ticks ascend, and within a
    /// tick incidents appear in a fixed sequence — transport schedule
    /// events (partition cuts and heals) first, then each region in
    /// index order (its deliveries, its protocol reactions, its sends).
    /// Two runs with the same problem, config, and fault seed produce
    /// **identical** logs, so serialized logs can be diffed
    /// byte-for-byte across CI runs. A lossless run's log is empty.
    #[must_use]
    pub fn incidents(&self) -> &[MeshIncident] {
        &self.incidents
    }

    /// The transport the mesh runs over (read-only: its telemetry,
    /// e.g. [`SocketTransport::io_stats`]).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Worker `region`'s state (oracle/inspection hook).
    #[must_use]
    pub fn worker(&self, region: usize) -> &RegionWorker {
        &self.workers[region]
    }

    /// Iterations performed so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        (self.tick / TICKS_PER_ITERATION) as usize
    }

    /// The mesh configuration.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }
}
