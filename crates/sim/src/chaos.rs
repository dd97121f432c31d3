//! Chaos/fault-injection runtime: the adversarial test bed for the
//! paper's headroom-vs-recovery story.
//!
//! §3 argues penalty headroom buys recovery from "node or link
//! failures" and "changing demands"; distributed-computation practice
//! (backpressure streaming, decentralized mapping under churn) adds
//! lossy, stale, duplicated state exchange as the *default* operating
//! condition. [`ChaosGradient`] runs the gradient iteration under
//! exactly those conditions, every one of them drawn from a seeded
//! deterministic [`FaultPlan`]:
//!
//! * **message loss** — a node's marginal-cost broadcast (eq. (9)) is
//!   dropped; listeners keep acting on the last value they heard;
//! * **bounded staleness** — a broadcast arrives late: the received
//!   value is the one computed up to `max_staleness` iterations ago;
//! * **duplicated updates** — a router applies its Γ update (eqs.
//!   (14)–(17)) twice in one iteration, as a re-delivered control
//!   message would cause;
//! * **transient node/link failures** — scheduled capacity collapses
//!   with scheduled restoration ([`ScheduledFault`]);
//! * **capacity jitter** — per-iteration multiplicative noise on every
//!   physical capacity.
//!
//! Stale or lost marginals cannot create routing loops here: each
//! commodity's extended subgraph is a DAG by construction, so Γ only
//! ever reshuffles mass among forward edges. What chaos *can* do is
//! stall or misdirect the gradient — which is why the runtime embeds a
//! [`Watchdog`] (reporting, η backoff) and an internal
//! checkpoint/rollback loop that recovers from corrupted state instead
//! of propagating it.
//!
//! **Chaos off ⇒ bit-identical**: with [`ChaosConfig::off`] every
//! injection site is skipped (not merely drawn with probability zero),
//! and the step is the exact update sequence of
//! [`AsyncGradient`](crate::AsyncGradient) under the synchronous
//! schedule — pinned by this module's tests, so the determinism suite
//! keeps meaning what it says.
//!
//! All randomness comes from salted [`crate::draws::unit_hash`] draws
//! keyed on the **wall clock** (total `step` calls), which never rolls
//! back — a rollback therefore does not replay the same fault draws, so
//! recovery cannot loop forever on a deterministic fault. The draw
//! primitives live in [`crate::draws`], shared with the `spn-mesh`
//! transport so both fault injectors consume one implementation.

use crate::draws::{bounded_age, coin, jitter_factor, salts};
use crate::failure::{bandwidth_node, FAILED_CAPACITY};
use spn_core::blocked::{compute_tags, BlockedTags};
use spn_core::flows::compute_flows;
use spn_core::gamma::apply_gamma_selective;
use spn_core::health::{CoreError, HealthReport, Watchdog, WatchdogConfig};
use spn_core::marginals::compute_marginals;
use spn_core::{ConfigError, CostModel, FlowState, GradientConfig, Marginals, RoutingTable};
use spn_graph::{EdgeId, NodeId};
use spn_model::{Capacity, Problem};
use spn_transform::{ExtendedNetwork, NodeKind};

/// What a [`ScheduledFault`] hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A physical processing node's computing capacity collapses.
    Node(NodeId),
    /// A physical link's bandwidth (its bandwidth node) collapses.
    Link(EdgeId),
}

/// One scheduled transient failure: the target's capacity collapses to
/// [`FAILED_CAPACITY`] at wall-clock step `at` and is restored to its
/// base value at `at + duration` (`duration == 0` means permanent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Wall-clock step at which the failure happens.
    pub at: usize,
    /// Steps until restoration (`0` = never restored).
    pub duration: usize,
    /// What fails.
    pub target: FaultTarget,
}

/// Tunables of the chaos runtime. Probabilities are per
/// `(iteration, commodity, node)`; everything is drawn deterministically
/// from `seed`, so a scenario is a value, not a log.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every pseudo-random draw.
    pub seed: u64,
    /// Probability that a node's marginal broadcast is dropped this
    /// iteration (listeners keep the last value heard).
    pub message_loss: f64,
    /// Probability that a delivered broadcast is stale.
    pub stale_prob: f64,
    /// Maximum age (iterations) of a stale broadcast; `0` disables
    /// staleness regardless of `stale_prob`.
    pub max_staleness: usize,
    /// Probability that a router applies its Γ update twice.
    pub duplicate_prob: f64,
    /// Relative amplitude of per-iteration capacity jitter (`0.05` =
    /// ±5% around the base capacity); `0.0` disables it.
    pub capacity_jitter: f64,
    /// Scheduled transient failures.
    pub faults: Vec<ScheduledFault>,
    /// Take an internal rollback checkpoint every this many wall-clock
    /// steps (`0` disables periodic checkpoints; corruption then errors
    /// out unless [`ChaosGradient::snapshot_now`] was called).
    pub checkpoint_interval: usize,
    /// Watchdog tunables.
    pub watchdog: WatchdogConfig,
}

impl ChaosConfig {
    /// Everything off: no loss, no staleness, no duplicates, no faults,
    /// no jitter, no periodic checkpoints. A [`ChaosGradient`] under
    /// this config is bit-identical to the synchronous
    /// [`AsyncGradient`](crate::AsyncGradient).
    #[must_use]
    pub fn off() -> Self {
        ChaosConfig {
            seed: 0,
            message_loss: 0.0,
            stale_prob: 0.0,
            max_staleness: 0,
            duplicate_prob: 0.0,
            capacity_jitter: 0.0,
            faults: Vec::new(),
            checkpoint_interval: 0,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::off()
    }
}

/// The compiled, seeded fault plan: pure functions of
/// `(wall-clock, commodity, node)` plus the sorted fault schedule.
/// Deterministic — two plans from the same config answer every query
/// identically, which is what makes chaos runs replayable.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    message_loss: f64,
    stale_prob: f64,
    max_staleness: usize,
    duplicate_prob: f64,
    capacity_jitter: f64,
    /// Sorted by `at`.
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Compiles a config into a queryable plan (sorts the schedule).
    #[must_use]
    pub fn compile(cfg: &ChaosConfig) -> Self {
        let mut faults = cfg.faults.clone();
        faults.sort_by_key(|f| f.at);
        FaultPlan {
            seed: cfg.seed,
            message_loss: cfg.message_loss,
            stale_prob: cfg.stale_prob,
            max_staleness: cfg.max_staleness,
            duplicate_prob: cfg.duplicate_prob,
            capacity_jitter: cfg.capacity_jitter,
            faults,
        }
    }

    /// Is node `v`'s commodity-`j` marginal broadcast dropped at `clock`?
    #[must_use]
    pub fn drops_broadcast(&self, clock: usize, j: usize, v: usize) -> bool {
        coin(self.seed, salts::SALT_LOSS, self.message_loss, clock, j, v)
    }

    /// Age of the delivered broadcast at `clock` (`0` = fresh,
    /// `1..=max_staleness` = stale by that many iterations).
    #[must_use]
    pub fn stale_age(&self, clock: usize, j: usize, v: usize) -> usize {
        bounded_age(
            self.seed,
            salts::SALT_STALE,
            salts::SALT_AGE,
            self.stale_prob,
            self.max_staleness,
            clock,
            j,
            v,
        )
    }

    /// Does router `(j, v)` apply its Γ update twice at `clock`?
    #[must_use]
    pub fn duplicates_update(&self, clock: usize, j: usize, v: usize) -> bool {
        coin(self.seed, salts::SALT_DUP, self.duplicate_prob, clock, j, v)
    }

    /// Multiplicative capacity factor for node `v` at `clock`, in
    /// `[1 − jitter, 1 + jitter]` (floored at 10% of base so jitter can
    /// never fake a full failure).
    #[must_use]
    pub fn capacity_factor(&self, clock: usize, v: usize) -> f64 {
        jitter_factor(
            self.seed,
            salts::SALT_JITTER,
            self.capacity_jitter,
            0.1,
            clock,
            v,
        )
    }

    /// The scheduled faults, sorted by activation step.
    #[must_use]
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }
}

/// An entry of the chaos run's incident log: every environment event
/// the plan injected and every anomaly the watchdog reported, with the
/// wall-clock step it happened at. The log is what lets a soak test
/// assert "every injected incident was reported, none panicked".
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ChaosIncident {
    /// A scheduled node failure fired.
    NodeFailed {
        /// Wall-clock step.
        clock: usize,
        /// The collapsed node.
        node: NodeId,
    },
    /// A failed node's capacity was restored.
    NodeRestored {
        /// Wall-clock step.
        clock: usize,
        /// The restored node.
        node: NodeId,
    },
    /// A scheduled link failure fired.
    LinkFailed {
        /// Wall-clock step.
        clock: usize,
        /// The collapsed link.
        edge: EdgeId,
    },
    /// A failed link's bandwidth was restored.
    LinkRestored {
        /// Wall-clock step.
        clock: usize,
        /// The restored link.
        edge: EdgeId,
    },
    /// The watchdog reported (divergence, oscillation, or non-finite
    /// state).
    Health {
        /// Wall-clock step.
        clock: usize,
        /// The watchdog's report.
        report: HealthReport,
    },
    /// Corrupted state was detected before stepping (preflight).
    Corruption {
        /// Wall-clock step.
        clock: usize,
        /// What was found.
        error: CoreError,
    },
    /// The runtime rolled back to its internal checkpoint.
    RolledBack {
        /// Wall-clock step.
        clock: usize,
        /// Logical iteration the state returned to.
        to_iteration: usize,
    },
}

impl serde::Serialize for ChaosIncident {
    fn to_value(&self) -> serde::Value {
        fn tagged(kind: &str, clock: usize, rest: Vec<(String, serde::Value)>) -> serde::Value {
            let mut entries = vec![
                ("kind".to_owned(), serde::Value::Str(kind.to_owned())),
                ("clock".to_owned(), clock.to_value()),
            ];
            entries.extend(rest);
            serde::Value::Map(entries)
        }
        match self {
            ChaosIncident::NodeFailed { clock, node } => tagged(
                "NodeFailed",
                *clock,
                vec![("node".to_owned(), node.index().to_value())],
            ),
            ChaosIncident::NodeRestored { clock, node } => tagged(
                "NodeRestored",
                *clock,
                vec![("node".to_owned(), node.index().to_value())],
            ),
            ChaosIncident::LinkFailed { clock, edge } => tagged(
                "LinkFailed",
                *clock,
                vec![("edge".to_owned(), edge.index().to_value())],
            ),
            ChaosIncident::LinkRestored { clock, edge } => tagged(
                "LinkRestored",
                *clock,
                vec![("edge".to_owned(), edge.index().to_value())],
            ),
            ChaosIncident::Health { clock, report } => tagged(
                "Health",
                *clock,
                vec![("report".to_owned(), report.to_value())],
            ),
            ChaosIncident::Corruption { clock, error } => tagged(
                "Corruption",
                *clock,
                vec![("error".to_owned(), error.to_value())],
            ),
            ChaosIncident::RolledBack {
                clock,
                to_iteration,
            } => tagged(
                "RolledBack",
                *clock,
                vec![("to_iteration".to_owned(), to_iteration.to_value())],
            ),
        }
    }
}

/// Outcome of one [`ChaosGradient::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosStep {
    /// Router rows updated by Γ this step (0 on a rollback step).
    pub rows: usize,
    /// Whether the step recovered via rollback instead of iterating.
    pub rolled_back: bool,
}

/// Internal rollback checkpoint (algorithm state only — the
/// environment's capacities are *not* restored, matching
/// `GradientAlgorithm::restore`'s semantics).
#[derive(Clone, Debug, Default)]
struct Snapshot {
    routing: Option<RoutingTable>,
    state: Option<FlowState>,
    received: Option<Marginals>,
    iterations: usize,
    eta: f64,
}

/// The gradient iteration under injected chaos: seeded message loss,
/// bounded staleness, duplicated Γ updates, scheduled transient
/// failures, capacity jitter — with an embedded [`Watchdog`] and
/// checkpoint/rollback recovery. See the module docs for semantics and
/// the chaos-off bit-identity guarantee.
#[derive(Clone, Debug)]
pub struct ChaosGradient {
    ext: ExtendedNetwork,
    cost: CostModel,
    config: GradientConfig,
    plan: FaultPlan,
    checkpoint_interval: usize,
    routing: RoutingTable,
    state: FlowState,
    /// The marginals each node *acts on* — the received view of the
    /// broadcast, which under loss/staleness differs from what
    /// neighbors computed this iteration.
    received: Marginals,
    /// Ring of past marginal sets (front = previous iteration), the
    /// source of stale deliveries. Bounded by `max_staleness`.
    history: std::collections::VecDeque<Marginals>,
    /// Logical iteration counter — rolls back with the state.
    iterations: usize,
    /// Wall-clock step counter — never rolls back; keys every plan draw.
    clock: usize,
    watchdog: Watchdog,
    /// η before any watchdog backoff — the recovery target.
    baseline_eta: f64,
    /// Base capacity per extended node (jitter and restoration target).
    base_capacity: Vec<Capacity>,
    /// Currently-failed flag per extended node.
    failed: Vec<bool>,
    incidents: Vec<ChaosIncident>,
    snapshot: Snapshot,
    updates_applied: usize,
}

impl ChaosGradient {
    /// Builds the chaos runtime.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`spn_core::GradientAlgorithm`].
    /// Fault targets are validated when they *fire* (a [`CoreError`]
    /// from [`ChaosGradient::step`]), not here.
    pub fn new(
        problem: &Problem,
        config: GradientConfig,
        chaos: &ChaosConfig,
    ) -> Result<Self, ConfigError> {
        let ext = ExtendedNetwork::build(problem);
        // reuse core's config validation
        spn_core::GradientAlgorithm::from_extended(ext.clone(), config)?;
        let cost = CostModel {
            penalty: config.penalty,
            epsilon: config.epsilon,
            wall_threshold: config.wall_threshold,
            wall_strength: config.wall_strength,
        };
        let routing = RoutingTable::initial(&ext);
        let state = compute_flows(&ext, &routing);
        let received = Marginals::zeros(&ext);
        let base_capacity: Vec<Capacity> = ext.graph().nodes().map(|v| ext.capacity(v)).collect();
        let failed = vec![false; base_capacity.len()];
        Ok(ChaosGradient {
            cost,
            config,
            plan: FaultPlan::compile(chaos),
            checkpoint_interval: chaos.checkpoint_interval,
            routing,
            state,
            received,
            history: std::collections::VecDeque::new(),
            iterations: 0,
            clock: 0,
            watchdog: Watchdog::new(chaos.watchdog),
            baseline_eta: config.eta,
            base_capacity,
            failed,
            incidents: Vec::new(),
            snapshot: Snapshot::default(),
            updates_applied: 0,
            ext,
        })
    }

    /// One iteration under the plan. Injects this step's faults, guards
    /// the state with the watchdog (rolling back to the internal
    /// checkpoint on corruption), and applies the Γ update from the
    /// *received* marginals.
    ///
    /// # Errors
    ///
    /// A [`CoreError`] when a scheduled fault targets something that
    /// cannot fail (not a processing node / not a physical link), or
    /// when corruption is detected with no checkpoint to roll back to.
    /// The watchdog's divergence/oscillation findings are *not* errors —
    /// they are logged to [`ChaosGradient::incidents`] and answered with
    /// η backoff.
    pub fn step(&mut self) -> Result<ChaosStep, CoreError> {
        let clock = self.clock;
        self.apply_scheduled_faults(clock)?;
        if self.plan.capacity_jitter != 0.0 {
            self.apply_jitter(clock);
        }

        // Refuse to iterate on corrupted state: Γ-row normalization
        // would panic on NaN mass, and finite garbage would propagate.
        if let Err(error) =
            self.watchdog
                .preflight(self.iterations, &self.state, &self.received, &self.routing)
        {
            self.incidents.push(ChaosIncident::Corruption {
                clock,
                error: error.clone(),
            });
            return self.rollback(clock, error).map(|()| {
                self.clock += 1;
                ChaosStep {
                    rows: 0,
                    rolled_back: true,
                }
            });
        }

        // Fresh marginals (eq. (9)) from the current state — what each
        // node broadcasts this iteration.
        let fresh = compute_marginals(&self.ext, &self.cost, &self.routing, &self.state);
        self.deliver_broadcasts(clock, &fresh);
        if self.plan.max_staleness > 0 {
            self.history.push_front(fresh);
            self.history.truncate(self.plan.max_staleness);
        }

        let tags = if self.config.use_blocked_sets {
            compute_tags(
                &self.ext,
                &self.cost,
                &self.routing,
                &self.state,
                &self.received,
                self.config.eta,
                self.config.traffic_floor,
            )
        } else {
            BlockedTags::none(&self.ext)
        };
        let stats = apply_gamma_selective(
            &self.ext,
            &self.cost,
            &mut self.routing,
            &self.state,
            &self.received,
            &tags,
            self.config.eta,
            self.config.traffic_floor,
            self.config.opening_fraction,
            self.config.shift_cap,
            |_, _| true,
        );
        let mut rows = stats.rows;
        if self.plan.duplicate_prob > 0.0 {
            // A re-delivered control message: the duplicated routers run
            // Γ again against the same received marginals and pre-update
            // traffic, shifting from their already-shifted rows.
            let plan = &self.plan;
            let dup = apply_gamma_selective(
                &self.ext,
                &self.cost,
                &mut self.routing,
                &self.state,
                &self.received,
                &tags,
                self.config.eta,
                self.config.traffic_floor,
                self.config.opening_fraction,
                self.config.shift_cap,
                |j, v| plan.duplicates_update(clock, j.index(), v.index()),
            );
            rows += dup.rows;
        }
        self.state = compute_flows(&self.ext, &self.routing);
        self.iterations += 1;
        self.clock += 1;
        self.updates_applied += rows;

        // Post-step health check: report (never panic), react with η
        // backoff, roll back if something non-finite slipped through.
        let utility = self.utility();
        let found = self
            .watchdog
            .observe(
                self.iterations,
                utility,
                &self.state,
                &self.received,
                &self.routing,
            )
            .is_some();
        if found {
            let report = self.watchdog.last_report().clone();
            let fatal = report.to_error();
            self.incidents.push(ChaosIncident::Health { clock, report });
            if let Some(error) = fatal {
                return self.rollback(clock, error).map(|()| ChaosStep {
                    rows: 0,
                    rolled_back: true,
                });
            }
            let cfg = self.watchdog.config();
            let backed = (self.config.eta * cfg.backoff_factor).max(cfg.eta_min);
            if backed < self.config.eta {
                self.config.eta = backed;
            }
        } else if self.config.eta < self.baseline_eta {
            // Healthy step after a backoff: creep η back toward the
            // configured baseline (mirrors `Watchdog::check`).
            let cfg = self.watchdog.config();
            self.config.eta = (self.config.eta * cfg.eta_recovery).min(self.baseline_eta);
        }

        if self.checkpoint_interval > 0 && self.clock.is_multiple_of(self.checkpoint_interval) {
            self.snapshot_now();
        }
        Ok(ChaosStep {
            rows,
            rolled_back: false,
        })
    }

    /// Takes an internal rollback checkpoint of the current algorithm
    /// state (routing, flows, received marginals, iteration counter, η).
    pub fn snapshot_now(&mut self) {
        // Only checkpoint state the watchdog considers clean — a
        // checkpoint of corrupted state would make rollback useless.
        if self
            .watchdog
            .preflight(self.iterations, &self.state, &self.received, &self.routing)
            .is_err()
        {
            return;
        }
        self.snapshot.routing = Some(self.routing.clone());
        self.snapshot.state = Some(self.state.clone());
        self.snapshot.received = Some(self.received.clone());
        self.snapshot.iterations = self.iterations;
        self.snapshot.eta = self.config.eta;
    }

    fn rollback(&mut self, clock: usize, error: CoreError) -> Result<(), CoreError> {
        let (Some(routing), Some(state), Some(received)) = (
            self.snapshot.routing.as_ref(),
            self.snapshot.state.as_ref(),
            self.snapshot.received.as_ref(),
        ) else {
            // No checkpoint: surface the structured error instead of
            // pretending to recover.
            return Err(error);
        };
        self.routing.clone_from(routing);
        self.state.clone_from(state);
        self.received.clone_from(received);
        self.iterations = self.snapshot.iterations;
        self.config.eta = self.snapshot.eta;
        self.incidents.push(ChaosIncident::RolledBack {
            clock,
            to_iteration: self.snapshot.iterations,
        });
        Ok(())
    }

    /// Fires (and restores) the scheduled faults due at `clock`.
    fn apply_scheduled_faults(&mut self, clock: usize) -> Result<(), CoreError> {
        for i in 0..self.plan.faults.len() {
            let fault = self.plan.faults[i];
            if fault.at == clock {
                match fault.target {
                    FaultTarget::Node(node) => {
                        if !matches!(self.ext.node_kind(node), NodeKind::Processing(_)) {
                            return Err(CoreError::NotProcessingNode { node });
                        }
                        self.collapse(node);
                        self.incidents
                            .push(ChaosIncident::NodeFailed { clock, node });
                    }
                    FaultTarget::Link(edge) => {
                        let bw = bandwidth_node(&self.ext, edge)?;
                        self.collapse(bw);
                        self.incidents
                            .push(ChaosIncident::LinkFailed { clock, edge });
                    }
                }
            }
            if fault.duration > 0 && fault.at + fault.duration == clock {
                match fault.target {
                    FaultTarget::Node(node) => {
                        self.revive(node);
                        self.incidents
                            .push(ChaosIncident::NodeRestored { clock, node });
                    }
                    FaultTarget::Link(edge) => {
                        let bw = bandwidth_node(&self.ext, edge)?;
                        self.revive(bw);
                        self.incidents
                            .push(ChaosIncident::LinkRestored { clock, edge });
                    }
                }
            }
        }
        Ok(())
    }

    fn collapse(&mut self, v: NodeId) {
        self.failed[v.index()] = true;
        self.ext
            .set_capacity(v, Capacity::finite(FAILED_CAPACITY).expect("positive"));
    }

    fn revive(&mut self, v: NodeId) {
        self.failed[v.index()] = false;
        self.ext.set_capacity(v, self.base_capacity[v.index()]);
    }

    /// Per-iteration capacity jitter around the base capacities
    /// (physical resources only; failed resources stay collapsed).
    fn apply_jitter(&mut self, clock: usize) {
        for i in 0..self.ext.graph().node_count() {
            let v = NodeId::from_index(i);
            if self.failed[v.index()] {
                continue;
            }
            if !matches!(
                self.ext.node_kind(v),
                NodeKind::Processing(_) | NodeKind::Bandwidth(_)
            ) {
                continue;
            }
            let base = self.base_capacity[v.index()];
            if base.is_infinite() {
                continue;
            }
            let jittered = base.value() * self.plan.capacity_factor(clock, v.index());
            self.ext
                .set_capacity(v, Capacity::finite(jittered).expect("positive"));
        }
    }

    /// Merges this iteration's broadcasts into the received view: a
    /// dropped broadcast leaves the last-heard value in place, a stale
    /// one delivers from the history ring, a clean one delivers fresh.
    fn deliver_broadcasts(&mut self, clock: usize, fresh: &Marginals) {
        if self.plan.message_loss <= 0.0
            && (self.plan.stale_prob <= 0.0 || self.plan.max_staleness == 0)
        {
            // Chaos-off fast path: everything arrives, bit-exactly.
            self.received.clone_from(fresh);
            return;
        }
        // Only a commodity's members broadcast a marginal for it (the
        // fault draws are pure functions of `(clock, j, v)`).
        let ext = &self.ext;
        for j in ext.commodity_ids() {
            for &v in ext.commodity_member_nodes(j) {
                if self.plan.drops_broadcast(clock, j.index(), v.index()) {
                    continue; // keep last-heard value
                }
                let age = self.plan.stale_age(clock, j.index(), v.index());
                let value = if age == 0 {
                    fresh.node(ext, j, v)
                } else {
                    // age 1 = previous iteration = history front; if the
                    // run is younger than the draw, deliver the oldest
                    // broadcast that exists (or fresh at the very start).
                    match self
                        .history
                        .get((age - 1).min(self.history.len().saturating_sub(1)))
                    {
                        Some(past) => past.node(ext, j, v),
                        None => fresh.node(ext, j, v),
                    }
                };
                self.received.set_node(ext, j, v, value);
            }
        }
    }

    /// Current overall utility `Σ_j U_j(a_j)`.
    #[must_use]
    pub fn utility(&self) -> f64 {
        self.ext
            .commodity_ids()
            .map(|j| {
                self.ext
                    .commodity(j)
                    .utility
                    .value(self.state.admitted(&self.ext, j))
            })
            .sum()
    }

    /// The incident log: every fired/restored fault and every watchdog
    /// report.
    ///
    /// **Stable ordering guarantee.** The log is append-only and its
    /// order is deterministic: incidents appear in non-decreasing
    /// wall-clock order, and within one step in the fixed injection
    /// sequence (scheduled fault firings in schedule order, then
    /// restorations in extended-node-index order, then the preflight
    /// corruption/rollback pair, then the watchdog report). Two runs
    /// from the same seed and fault plan therefore produce *identical*
    /// logs — and because [`ChaosIncident`] is serde-serializable, the
    /// rendered logs can be diffed byte-for-byte across CI runs.
    #[must_use]
    pub fn incidents(&self) -> &[ChaosIncident] {
        &self.incidents
    }

    /// The embedded watchdog (cumulative counters, last report).
    #[must_use]
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// The compiled fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The routing decision.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The current flow state.
    #[must_use]
    pub fn flows(&self) -> &FlowState {
        &self.state
    }

    /// The received marginal view (what nodes act on).
    #[must_use]
    pub fn marginals(&self) -> &Marginals {
        &self.received
    }

    /// The extended network.
    #[must_use]
    pub fn extended(&self) -> &ExtendedNetwork {
        &self.ext
    }

    /// Logical iterations applied (rolls back with the state).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Wall-clock steps taken (monotone, keys every fault draw).
    #[must_use]
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Total router-row Γ updates applied (duplicates included).
    #[must_use]
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// The η currently in effect (watchdog backoff mutates it).
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.config.eta
    }

    /// Corruption hook for tests: overwrite one received-marginal entry.
    #[doc(hidden)]
    pub fn received_mut(&mut self) -> &mut Marginals {
        &mut self.received
    }

    /// Corruption hook for tests: mutable flow state.
    #[doc(hidden)]
    pub fn flows_mut(&mut self) -> &mut FlowState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_updates::{AsyncGradient, Schedule};
    use spn_model::random::RandomInstance;

    fn instance() -> Problem {
        RandomInstance::builder()
            .nodes(16)
            .commodities(2)
            .seed(4)
            .build()
            .unwrap()
            .problem
    }

    #[test]
    fn chaos_off_is_bit_identical_to_synchronous_async() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let mut chaos = ChaosGradient::new(&p, cfg, &ChaosConfig::off()).unwrap();
        let mut sync = AsyncGradient::new(&p, cfg, Schedule::Synchronous).unwrap();
        for i in 0..300 {
            chaos.step().unwrap();
            sync.step();
            assert_eq!(
                chaos.utility().to_bits(),
                sync.utility().to_bits(),
                "iteration {i}: chaos-off trajectory diverged"
            );
        }
        assert_eq!(chaos.routing(), sync.routing());
        assert!(chaos.incidents().is_empty());
        assert_eq!(chaos.watchdog().incidents_total(), 0);
    }

    #[test]
    fn lossy_stale_duplicated_run_still_converges() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let mut clean = ChaosGradient::new(&p, cfg, &ChaosConfig::off()).unwrap();
        let noisy_cfg = ChaosConfig {
            seed: 7,
            message_loss: 0.1,
            stale_prob: 0.2,
            max_staleness: 3,
            duplicate_prob: 0.05,
            ..ChaosConfig::off()
        };
        let mut noisy = ChaosGradient::new(&p, cfg, &noisy_cfg).unwrap();
        for _ in 0..2500 {
            clean.step().unwrap();
            noisy.step().unwrap();
        }
        let (uc, un) = (clean.utility(), noisy.utility());
        assert!(un.is_finite());
        assert!(un > 0.85 * uc, "noisy {un} too far below clean {uc}");
        noisy.routing().validate(noisy.extended()).unwrap();
        assert!(noisy.routing().is_loop_free(noisy.extended()));
        assert_eq!(noisy.watchdog().non_finite_total(), 0);
    }

    #[test]
    fn fault_plan_queries_are_deterministic_and_rate_accurate() {
        let cfg = ChaosConfig {
            seed: 13,
            message_loss: 0.25,
            stale_prob: 0.5,
            max_staleness: 4,
            duplicate_prob: 0.1,
            capacity_jitter: 0.05,
            ..ChaosConfig::off()
        };
        let a = FaultPlan::compile(&cfg);
        let b = FaultPlan::compile(&cfg);
        let mut drops = 0usize;
        let total = 20_000usize;
        for clock in 0..total {
            assert_eq!(
                a.drops_broadcast(clock, 1, 5),
                b.drops_broadcast(clock, 1, 5)
            );
            assert_eq!(a.stale_age(clock, 0, 3), b.stale_age(clock, 0, 3));
            assert_eq!(
                a.duplicates_update(clock, 1, 2),
                b.duplicates_update(clock, 1, 2)
            );
            assert_eq!(
                a.capacity_factor(clock, 4).to_bits(),
                b.capacity_factor(clock, 4).to_bits()
            );
            if a.drops_broadcast(clock, 1, 5) {
                drops += 1;
            }
            let age = a.stale_age(clock, 0, 3);
            assert!(age <= 4, "staleness bound violated: {age}");
            let f = a.capacity_factor(clock, 4);
            assert!((0.95..=1.05).contains(&f), "jitter out of band: {f}");
        }
        let rate = drops as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn scheduled_fault_fires_and_restores() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let probe = ChaosGradient::new(&p, cfg, &ChaosConfig::off()).unwrap();
        // first intermediate processing node
        let victim = probe
            .extended()
            .graph()
            .nodes()
            .find(|&v| {
                matches!(probe.extended().node_kind(v), NodeKind::Processing(_))
                    && probe.extended().commodity_ids().all(|j| {
                        v != probe.extended().commodity(j).source()
                            && v != probe.extended().commodity(j).sink()
                    })
            })
            .unwrap();
        let base = probe.extended().capacity(victim).value();
        let chaos_cfg = ChaosConfig {
            faults: vec![ScheduledFault {
                at: 50,
                duration: 60,
                target: FaultTarget::Node(victim),
            }],
            ..ChaosConfig::off()
        };
        let mut run = ChaosGradient::new(&p, cfg, &chaos_cfg).unwrap();
        for _ in 0..200 {
            run.step().unwrap();
        }
        assert!(run.incidents().contains(&ChaosIncident::NodeFailed {
            clock: 50,
            node: victim
        }));
        assert!(run.incidents().contains(&ChaosIncident::NodeRestored {
            clock: 110,
            node: victim
        }));
        assert_eq!(run.extended().capacity(victim).value(), base);
    }

    #[test]
    fn fault_on_a_dummy_node_errors_structurally() {
        let p = instance();
        let probe = ChaosGradient::new(&p, GradientConfig::default(), &ChaosConfig::off()).unwrap();
        let dummy = probe
            .extended()
            .dummy_source(spn_model::CommodityId::from_index(0));
        let chaos_cfg = ChaosConfig {
            faults: vec![ScheduledFault {
                at: 3,
                duration: 0,
                target: FaultTarget::Node(dummy),
            }],
            ..ChaosConfig::off()
        };
        let mut run = ChaosGradient::new(&p, GradientConfig::default(), &chaos_cfg).unwrap();
        for _ in 0..3 {
            run.step().unwrap();
        }
        let err = run.step().expect_err("dummy node accepted a fault");
        assert_eq!(err, CoreError::NotProcessingNode { node: dummy });
    }

    #[test]
    fn injected_corruption_rolls_back_and_recovers() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let chaos_cfg = ChaosConfig {
            checkpoint_interval: 25,
            ..ChaosConfig::off()
        };
        let mut run = ChaosGradient::new(&p, cfg, &chaos_cfg).unwrap();
        for _ in 0..100 {
            run.step().unwrap();
        }
        let iters_before = run.iterations();
        let ext = run.extended().clone();
        let j = spn_model::CommodityId::from_index(0);
        run.received_mut()
            .set_node(&ext, j, ext.commodity(j).source(), f64::NAN);
        let outcome = run.step().expect("corruption must be recoverable");
        assert!(outcome.rolled_back);
        assert!(run.iterations() <= iters_before, "rollback went forward");
        assert!(run
            .incidents()
            .iter()
            .any(|i| matches!(i, ChaosIncident::Corruption { .. })));
        assert!(run
            .incidents()
            .iter()
            .any(|i| matches!(i, ChaosIncident::RolledBack { .. })));
        // The run continues cleanly from the restored state.
        for _ in 0..50 {
            let s = run.step().unwrap();
            assert!(!s.rolled_back);
        }
        assert!(run.utility().is_finite());
    }

    #[test]
    fn corruption_without_checkpoint_is_a_structured_error() {
        let p = instance();
        let mut run =
            ChaosGradient::new(&p, GradientConfig::default(), &ChaosConfig::off()).unwrap();
        for _ in 0..10 {
            run.step().unwrap();
        }
        let ext = run.extended().clone();
        let j = spn_model::CommodityId::from_index(0);
        *run.flows_mut()
            .traffic_mut(&ext, j, ext.commodity(j).source()) = f64::INFINITY;
        let err = run.step().expect_err("corruption with no checkpoint");
        assert!(matches!(err, CoreError::NonFinite { .. }));
    }
}
