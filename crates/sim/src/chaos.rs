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
//!   physical capacity;
//! * **partial participation** — only the `(commodity, router)` pairs
//!   a [`Schedule`] picks apply Γ this iteration, as in an asynchronous
//!   deployment where nodes stall or take turns (experiment E10).
//!
//! Stale or lost marginals cannot create routing loops here: each
//! commodity's extended subgraph is a DAG by construction, so Γ only
//! ever reshuffles mass among forward edges. What chaos *can* do is
//! stall or misdirect the gradient, or — through an injected fault —
//! plant a NaN; the runtime scans the state with
//! [`check_finite`] before and after every step and rolls back to an
//! internal checkpoint instead of propagating corruption.
//!
//! **Chaos off ⇒ bit-identical**: with [`ChaosConfig::off`] every
//! injection site is skipped (not merely drawn with probability zero),
//! and the step reproduces [`spn_core::GradientAlgorithm`]'s trajectory
//! bit for bit, ε-annealing included — pinned by this module's tests,
//! so the determinism suite keeps meaning what it says.
//!
//! All randomness comes from salted [`crate::draws::unit_hash`] draws
//! keyed on the **wall clock** (total `step` calls), which never rolls
//! back — a rollback therefore does not replay the same fault draws, so
//! recovery cannot loop forever on a deterministic fault. The draw
//! primitives live in [`crate::draws`], shared with the `spn-mesh`
//! transport so both fault injectors consume one implementation.

use crate::draws::{bounded_age, coin, jitter_factor, salts, unit_hash};
use crate::failure::{bandwidth_node, fail_link, fail_node, restore_node};
use spn_core::blocked::{compute_tags, BlockedTags};
use spn_core::flows::compute_flows;
use spn_core::gamma::apply_gamma_selective;
use spn_core::health::{check_finite, CoreError, StateDomain};
use spn_core::marginals::compute_marginals;
use spn_core::{ConfigError, CostModel, FlowState, GradientConfig, Marginals, RoutingTable};
use spn_graph::{EdgeId, NodeId};
use spn_model::{Capacity, CommodityId, Problem};
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
/// [`FAILED_CAPACITY`](crate::failure::FAILED_CAPACITY) at wall-clock
/// step `at` and is restored to its
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

/// Which `(commodity, router)` pairs apply their Γ update at a given
/// wall-clock step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Everyone updates every iteration (the paper's protocol).
    Synchronous,
    /// Each pair updates independently with this probability each
    /// iteration (deterministic pseudo-randomness from the seed).
    Random {
        /// Participation probability in `(0, 1]`.
        fraction: f64,
        /// PRNG seed.
        seed: u64,
    },
    /// Routers take turns: a pair updates on steps where
    /// `(node_index + clock) % period == 0`.
    RoundRobin {
        /// Cycle length; `1` is synchronous.
        period: usize,
    },
}

impl Schedule {
    /// Whether the pair participates at wall-clock step `clock`.
    #[must_use]
    pub fn participates(&self, clock: usize, j: CommodityId, v: NodeId) -> bool {
        match *self {
            Schedule::Synchronous => true,
            Schedule::Random { fraction, seed } => {
                unit_hash(seed, clock, j.index(), v.index()) < fraction
            }
            Schedule::RoundRobin { period } => {
                period <= 1 || (v.index() + clock).is_multiple_of(period)
            }
        }
    }
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
    /// Which routers apply Γ each step ([`Schedule::Synchronous`]: all
    /// of them).
    pub participation: Schedule,
}

impl ChaosConfig {
    /// Everything off: no loss, no staleness, no duplicates, no faults,
    /// no jitter, no periodic checkpoints, synchronous participation. A
    /// [`ChaosGradient`] under this config is bit-identical to
    /// [`spn_core::GradientAlgorithm`].
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
            participation: Schedule::Synchronous,
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
    participation: Schedule,
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
            participation: cfg.participation,
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
/// the plan injected and every non-finite state the scan caught, with
/// the wall-clock step it happened at. The log is what lets a soak test
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
    /// [`check_finite`] found non-finite state, before the step (the
    /// step is skipped) or after it (the step is undone); a rollback
    /// follows.
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

/// Internal rollback checkpoint (algorithm state and the annealed ε —
/// the environment's capacities are *not* restored, matching
/// `GradientAlgorithm::restore`'s semantics).
#[derive(Clone, Debug, Default)]
struct Snapshot {
    routing: Option<RoutingTable>,
    state: Option<FlowState>,
    received: Option<Marginals>,
    iterations: usize,
    epsilon: f64,
}

/// The gradient iteration under injected chaos: seeded message loss,
/// bounded staleness, duplicated Γ updates, scheduled transient
/// failures, capacity jitter, partial participation — with a
/// non-finite scan and checkpoint/rollback recovery. See the module
/// docs for semantics and the chaos-off bit-identity guarantee.
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
        config.validate()?;
        let ext = ExtendedNetwork::build(problem);
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
            base_capacity,
            failed,
            incidents: Vec::new(),
            snapshot: Snapshot::default(),
            updates_applied: 0,
            ext,
        })
    }

    /// One iteration under the plan. Injects this step's faults, scans
    /// the state for NaN/Inf (rolling back to the internal checkpoint on
    /// corruption), applies the Γ update from the *received* marginals
    /// at the participating routers, and anneals ε on the schedule of
    /// [`spn_core::GradientAlgorithm`].
    ///
    /// # Errors
    ///
    /// A [`CoreError`] when a scheduled fault targets something that
    /// cannot fail (not a processing node / not a physical link), or
    /// when corruption is detected with no checkpoint to roll back to.
    pub fn step(&mut self) -> Result<ChaosStep, CoreError> {
        let clock = self.clock;
        self.apply_scheduled_faults(clock)?;
        if self.plan.capacity_jitter != 0.0 {
            self.apply_jitter(clock);
        }

        // Refuse to iterate on corrupted state: Γ-row normalization
        // would panic on NaN mass, and finite garbage would propagate.
        if let Err(error) =
            check_finite(self.iterations, &self.state, &self.received, &self.routing)
        {
            return self.recover(clock, error).map(|()| {
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
        let plan = &self.plan;
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
            |j, v| plan.participation.participates(clock, j, v),
        );
        let mut rows = stats.rows;
        if plan.duplicate_prob > 0.0 {
            // A re-delivered control message: the duplicated routers run
            // Γ again against the same received marginals and pre-update
            // traffic, shifting from their already-shifted rows. Only a
            // router that updated this step has a message to re-deliver.
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
                |j, v| {
                    plan.participation.participates(clock, j, v)
                        && plan.duplicates_update(clock, j.index(), v.index())
                },
            );
            rows += dup.rows;
        }
        self.state = compute_flows(&self.ext, &self.routing);
        self.iterations += 1;
        self.clock += 1;
        self.updates_applied += rows;
        // ε-annealing between the flow sweep and the next marginals, on
        // the logical iteration count (a rollback rewinds both).
        if self.config.epsilon_factor < 1.0
            && self.iterations.is_multiple_of(self.config.epsilon_interval)
            && self.cost.epsilon > self.config.epsilon_min
        {
            self.cost.epsilon =
                (self.cost.epsilon * self.config.epsilon_factor).max(self.config.epsilon_min);
        }

        // Post-step scan: undo a step that let something non-finite in.
        let scan = if self.utility().is_finite() {
            check_finite(self.iterations, &self.state, &self.received, &self.routing)
        } else {
            Err(CoreError::NonFinite {
                domain: StateDomain::Utility,
                index: 0,
                iteration: self.iterations,
            })
        };
        if let Err(error) = scan {
            return self.recover(clock, error).map(|()| ChaosStep {
                rows: 0,
                rolled_back: true,
            });
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
    /// state (routing, flows, received marginals, iteration counter, ε).
    pub fn snapshot_now(&mut self) {
        // Only checkpoint clean state — a checkpoint of corrupted state
        // would make rollback useless.
        if check_finite(self.iterations, &self.state, &self.received, &self.routing).is_err() {
            return;
        }
        self.snapshot.routing = Some(self.routing.clone());
        self.snapshot.state = Some(self.state.clone());
        self.snapshot.received = Some(self.received.clone());
        self.snapshot.iterations = self.iterations;
        self.snapshot.epsilon = self.cost.epsilon;
    }

    /// Logs the corruption and rolls back to the internal checkpoint.
    fn recover(&mut self, clock: usize, error: CoreError) -> Result<(), CoreError> {
        self.incidents.push(ChaosIncident::Corruption {
            clock,
            error: error.clone(),
        });
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
        self.cost.epsilon = self.snapshot.epsilon;
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
                let (failed, incident) = match fault.target {
                    FaultTarget::Node(node) => {
                        fail_node(&mut self.ext, node)?;
                        (node, ChaosIncident::NodeFailed { clock, node })
                    }
                    FaultTarget::Link(edge) => (
                        fail_link(&mut self.ext, edge)?,
                        ChaosIncident::LinkFailed { clock, edge },
                    ),
                };
                self.failed[failed.index()] = true;
                self.incidents.push(incident);
            }
            if fault.duration > 0 && fault.at + fault.duration == clock {
                let (revived, incident) = match fault.target {
                    FaultTarget::Node(node) => (node, ChaosIncident::NodeRestored { clock, node }),
                    FaultTarget::Link(edge) => (
                        bandwidth_node(&self.ext, edge)?,
                        ChaosIncident::LinkRestored { clock, edge },
                    ),
                };
                let base = self.base_capacity[revived.index()].value();
                restore_node(&mut self.ext, revived, base)?;
                self.failed[revived.index()] = false;
                self.incidents.push(incident);
            }
        }
        Ok(())
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

    /// The incident log: every fired/restored fault and every caught
    /// corruption with its rollback.
    ///
    /// **Stable ordering guarantee.** The log is append-only and its
    /// order is deterministic: incidents appear in non-decreasing
    /// wall-clock order, and within one step in the fixed injection
    /// sequence (scheduled fault firings and restorations in schedule
    /// order, then at most one corruption/rollback pair — from the scan
    /// before the step or the one after it). Two runs
    /// from the same seed and fault plan therefore produce *identical*
    /// logs — and because [`ChaosIncident`] is serde-serializable, the
    /// rendered logs can be diffed byte-for-byte across CI runs.
    #[must_use]
    pub fn incidents(&self) -> &[ChaosIncident] {
        &self.incidents
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
    use spn_core::GradientAlgorithm;
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

    fn routing_bits(ext: &ExtendedNetwork, routing: &RoutingTable) -> Vec<u64> {
        ext.commodity_ids()
            .flat_map(|j| {
                ext.graph()
                    .edges()
                    .map(move |l| routing.fraction(j, l).to_bits())
            })
            .collect()
    }

    /// Steps a chaos-off run beside [`GradientAlgorithm`]: the utility
    /// bits and every routing fraction's bits must agree after every
    /// step, and nothing may be logged.
    fn assert_chaos_off_matches_core(p: &Problem, cfg: GradientConfig, steps: usize) {
        let mut chaos = ChaosGradient::new(p, cfg, &ChaosConfig::off()).unwrap();
        let mut core = GradientAlgorithm::new(p, cfg).unwrap();
        for i in 1..=steps {
            chaos.step().unwrap();
            core.step();
            assert_eq!(
                chaos.utility().to_bits(),
                core.utility().to_bits(),
                "step {i}: utility diverged"
            );
            assert_eq!(
                routing_bits(chaos.extended(), chaos.routing()),
                routing_bits(core.extended(), core.routing()),
                "step {i}: routing diverged"
            );
        }
        assert!(chaos.incidents().is_empty());
    }

    fn with_participation(p: &Problem, cfg: GradientConfig, schedule: Schedule) -> ChaosGradient {
        let chaos = ChaosConfig {
            participation: schedule,
            ..ChaosConfig::off()
        };
        ChaosGradient::new(p, cfg, &chaos).unwrap()
    }

    /// E8b's chaos-free reference: the paper instance (seed 1) at twice
    /// its demand with η = 0.2.
    #[test]
    fn chaos_off_matches_core_on_the_e8b_instance() {
        let p = RandomInstance::builder()
            .seed(1)
            .build()
            .unwrap()
            .problem
            .scale_demand(2.0);
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        assert_chaos_off_matches_core(&p, cfg, 2_000);
    }

    #[test]
    fn chaos_off_matches_core_through_annealing() {
        let cfg = GradientConfig {
            epsilon_factor: 0.5,
            epsilon_interval: 25,
            ..GradientConfig::default()
        };
        assert_chaos_off_matches_core(&instance(), cfg, 300);
    }

    #[test]
    fn synchronous_schedule_matches_core() {
        assert_chaos_off_matches_core(&instance(), GradientConfig::default(), 300);
    }

    #[test]
    fn rollback_restores_the_annealed_epsilon() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            epsilon_factor: 0.5,
            epsilon_interval: 10,
            ..GradientConfig::default()
        };
        let chaos_cfg = ChaosConfig {
            checkpoint_interval: 25,
            ..ChaosConfig::off()
        };
        let mut run = ChaosGradient::new(&p, cfg, &chaos_cfg).unwrap();
        for _ in 0..25 {
            run.step().unwrap();
        }
        // The checkpoint holds iteration 25 and ε annealed twice.
        let mut reference = run.clone();
        for _ in 0..15 {
            run.step().unwrap();
        }
        let ext = run.extended().clone();
        let j = spn_model::CommodityId::from_index(0);
        run.received_mut()
            .set_node(&ext, j, ext.commodity(j).source(), f64::NAN);
        assert!(run.step().unwrap().rolled_back);
        assert_eq!(run.iterations(), 25);
        // From the restored state the run replays the reference, which
        // needs ε and the anneal schedule's iteration count restored.
        for i in 0..50 {
            run.step().unwrap();
            reference.step().unwrap();
            assert_eq!(
                run.utility().to_bits(),
                reference.utility().to_bits(),
                "step {i} after the rollback"
            );
        }
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
        // no fault scheduled and no corruption caught
        assert!(noisy.incidents().is_empty());
    }

    #[test]
    fn partial_participation_still_converges() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let mut sync = with_participation(&p, cfg, Schedule::Synchronous);
        let mut partial = with_participation(
            &p,
            cfg,
            Schedule::Random {
                fraction: 0.3,
                seed: 9,
            },
        );
        for _ in 0..3000 {
            sync.step().unwrap();
        }
        // at equal *applied-update* counts the partial run should be
        // close to the synchronous one (graceful degradation)
        while partial.updates_applied() < sync.updates_applied() {
            partial.step().unwrap();
        }
        let (us, up) = (sync.utility(), partial.utility());
        assert!(up > 0.9 * us, "partial {up} too far below synchronous {us}");
        partial.routing().validate(partial.extended()).unwrap();
    }

    #[test]
    fn participation_rate_matches_fraction() {
        let p = instance();
        let cfg = GradientConfig::default();
        let mut alg = with_participation(
            &p,
            cfg,
            Schedule::Random {
                fraction: 0.25,
                seed: 1,
            },
        );
        let mut sync = with_participation(&p, cfg, Schedule::Synchronous);
        for _ in 0..400 {
            alg.step().unwrap();
            sync.step().unwrap();
        }
        let rate = alg.updates_applied() as f64 / sync.updates_applied() as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed participation {rate}");
    }

    #[test]
    fn round_robin_covers_everyone() {
        let p = instance();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let sched = Schedule::RoundRobin { period: 4 };
        let mut alg = with_participation(&p, cfg, sched);
        for _ in 0..2000 {
            alg.step().unwrap();
        }
        assert!(alg.utility() > 0.0);
        alg.routing().validate(alg.extended()).unwrap();
        // over 4 consecutive steps every router participates once
        let v = NodeId::from_index(7);
        let j = CommodityId::from_index(0);
        let count = (0..4).filter(|&i| sched.participates(i, j, v)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn schedules_are_deterministic() {
        let s = Schedule::Random {
            fraction: 0.5,
            seed: 3,
        };
        let a = s.participates(10, CommodityId::from_index(1), NodeId::from_index(2));
        let b = s.participates(10, CommodityId::from_index(1), NodeId::from_index(2));
        assert_eq!(a, b);
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
        let edge = EdgeId::from_index(0);
        let bw = bandwidth_node(probe.extended(), edge).unwrap();
        let bw_base = probe.extended().capacity(bw).value();
        let chaos_cfg = ChaosConfig {
            faults: vec![
                ScheduledFault {
                    at: 50,
                    duration: 60,
                    target: FaultTarget::Node(victim),
                },
                ScheduledFault {
                    at: 70,
                    duration: 20,
                    target: FaultTarget::Link(edge),
                },
            ],
            ..ChaosConfig::off()
        };
        let mut run = ChaosGradient::new(&p, cfg, &chaos_cfg).unwrap();
        for _ in 0..80 {
            run.step().unwrap();
        }
        assert_eq!(
            run.extended().capacity(bw).value(),
            crate::failure::FAILED_CAPACITY
        );
        for _ in 80..200 {
            run.step().unwrap();
        }
        assert_eq!(
            run.incidents(),
            [
                ChaosIncident::NodeFailed {
                    clock: 50,
                    node: victim
                },
                ChaosIncident::LinkFailed { clock: 70, edge },
                ChaosIncident::LinkRestored { clock: 90, edge },
                ChaosIncident::NodeRestored {
                    clock: 110,
                    node: victim
                },
            ]
        );
        assert_eq!(run.extended().capacity(victim).value(), base);
        assert_eq!(run.extended().capacity(bw).value(), bw_base);
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
