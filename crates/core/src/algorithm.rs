//! The complete distributed gradient-based algorithm (§5) as a
//! synchronous in-process driver.
//!
//! Each [`GradientAlgorithm::step`] performs exactly one iteration of
//! the paper's protocol stack:
//!
//! 1. **Flow forecast** (eqs. (3)–(5)): node traffic `t` and resource
//!    usage `f` under the current routing decision;
//! 2. **Marginal-cost wave** (eq. (9)): `∂A/∂r_i(j)` swept upstream from
//!    each sink;
//! 3. **Routing update Γ** (eqs. (15)–(17)): every node shifts mass
//!    from expensive links to its best link. Commodity subgraphs are
//!    DAGs, so no blocked set (eqs. (14), (18)) restricts it.
//!
//! Resource allocation needs no extra step in the fluid model: a node's
//! optimal local allocation under forecasted flows *is* `c^j_il·t_i(j)·φ_il(j)`
//! per (commodity, out-edge) — reported via [`Report::node_allocations`].
//!
//! The message-level version of the same iteration — where the waves are
//! explicit messages with per-hop latency — lives in the `spn-sim`
//! crate and produces bit-identical routing tables (tested there).

use crate::active::LiveArcSweeps;
use crate::checkpoint::Checkpoint;
use crate::cost::CostModel;
use crate::flows::{compute_flows_into, FlowState};
use crate::gamma::GammaStats;
use crate::health::CoreError;
use crate::marginals::{compute_marginals_into, Marginals};
use crate::routing::RoutingTable;
use crate::step::{sparse_step_serial, RowRule};
use crate::workspace::IterationWorkspace;
use spn_graph::NodeId;
use spn_model::{CommodityId, Penalty, Problem};
use spn_transform::view::{physical_loads, PhysicalLoads};
use spn_transform::{CommodityDef, ExtendedNetwork};
use std::fmt;

/// Tunables of the gradient algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradientConfig {
    /// The Γ scale factor `η`. Small values guarantee convergence but
    /// slowly; the paper's Figure 4 uses `0.04` and notes that "in
    /// practice, it is possible to choose a much larger η … e.g. in
    /// hundreds of iterations".
    pub eta: f64,
    /// The penalty weight `ε` (`0.2` in §6), fixed for the whole run as
    /// in the paper (DESIGN.md §4 item 4 says why).
    pub epsilon: f64,
    /// The per-node capacity penalty family `D_i`.
    pub penalty: Penalty,
    /// Traffic below this is treated as zero in eq. (16)'s division.
    pub traffic_floor: f64,
    /// Rate limit on opening idle paths: eq. (16)'s divisor `t_i(j)` is
    /// floored at `opening_fraction · λ_j`. Gallager's literal
    /// convention (route everything to the best link when `t_i(j) = 0`)
    /// corresponds to `0.0` and is violently unstable in capacitated
    /// networks — an idle low-capacity path looks free, attracts a full
    /// reroute in one step, and the barrier then crashes admission (see
    /// the E2 stability experiment).
    pub opening_fraction: f64,
    /// Upper bound on any single routing-fraction shift `Δ_ik(j)` per
    /// iteration. Near a capacity barrier the marginal excess is
    /// unbounded and eq. (16) saturates at the full fraction — a
    /// one-step total reroute that floods the alternative path and
    /// oscillates. `1.0` disables the cap (the paper's literal rule).
    pub shift_cap: f64,
    /// Utilization fraction beyond which the ε-independent capacity
    /// wall activates (see [`CostModel`]).
    pub wall_threshold: f64,
    /// Wall scale `K`; `0.0` disables the wall (the paper's literal
    /// objective `A = Y + ε·D`).
    pub wall_strength: f64,
    /// Inert shim: accepted and ignored — the step has one schedule and
    /// no worker pool. Kept only so the frozen `benchmark/` surface
    /// compiles; the next `[benchmark]` PR removes it.
    #[deprecated(note = "ignored: the step has one schedule; the next benchmark PR removes it")]
    pub threads: usize,
}

impl GradientConfig {
    /// Checks the tunables every constructor relies on. Drivers outside
    /// this crate that run their own loop over the same tunables call it
    /// instead of building a throw-away [`GradientAlgorithm`].
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in the order η, ε, traffic
    /// floor, opening fraction, shift cap, wall threshold and wall
    /// strength.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.eta.is_finite() && self.eta > 0.0) {
            return Err(ConfigError::BadEta(self.eta));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(ConfigError::BadEpsilon(self.epsilon));
        }
        if !(self.traffic_floor.is_finite() && self.traffic_floor >= 0.0) {
            return Err(ConfigError::BadTrafficFloor(self.traffic_floor));
        }
        if !(self.opening_fraction.is_finite() && self.opening_fraction >= 0.0) {
            return Err(ConfigError::BadOpeningFraction(self.opening_fraction));
        }
        if !(self.shift_cap.is_finite() && self.shift_cap > 0.0) {
            return Err(ConfigError::BadShiftCap(self.shift_cap));
        }
        // θ = 1 divides by `1 − θ = 0` in the wall; θ < 0 walls idle nodes
        if !(0.0..1.0).contains(&self.wall_threshold) {
            return Err(ConfigError::BadWallThreshold(self.wall_threshold));
        }
        if !(self.wall_strength.is_finite() && self.wall_strength >= 0.0) {
            return Err(ConfigError::BadWallStrength(self.wall_strength));
        }
        Ok(())
    }
}

impl Default for GradientConfig {
    /// The paper's `η = 0.04` with the stabilized penalty stack this
    /// crate recommends: the capacity-normalized barrier
    /// (`D(z) = Cz/(C−z)`, knee 0.98) at `ε = 0.002`, the soft capacity
    /// wall, a 0.1 shift cap and rate-limited path opening. The paper's
    /// literal setup (`ε = 0.2`, `D(z) = 1/(C−z)`, no wall, no caps) is
    /// reproducible by overriding `epsilon`, `penalty`, `wall_strength`,
    /// `shift_cap` and `opening_fraction`; the E2 experiment measures
    /// what each stabilizer contributes.
    #[allow(deprecated)] // the `threads` shim's definition site
    fn default() -> Self {
        GradientConfig {
            eta: 0.04,
            epsilon: 5e-4,
            penalty: Penalty::new(spn_model::PenaltyKind::ScaledReciprocal, 0.98)
                .expect("valid knee"),
            traffic_floor: 1e-12,
            opening_fraction: 0.05,
            shift_cap: 0.02,
            wall_threshold: 0.95,
            wall_strength: 4.0,
            threads: 0,
        }
    }
}

/// Configuration errors for [`GradientAlgorithm::new`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `η` must be finite and positive.
    BadEta(f64),
    /// `ε` must be finite and positive.
    BadEpsilon(f64),
    /// The traffic floor must be finite and non-negative.
    BadTrafficFloor(f64),
    /// The opening fraction must be finite and non-negative.
    BadOpeningFraction(f64),
    /// The shift cap must be finite and positive.
    BadShiftCap(f64),
    /// The wall threshold must lie in `[0, 1)`.
    BadWallThreshold(f64),
    /// The wall strength must be finite and non-negative.
    BadWallStrength(f64),
    /// The Newton curvature floor must be finite and positive.
    BadCurvatureFloor(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadEta(v) => write!(f, "eta must be finite and positive, got {v}"),
            ConfigError::BadEpsilon(v) => {
                write!(f, "epsilon must be finite and positive, got {v}")
            }
            ConfigError::BadTrafficFloor(v) => {
                write!(f, "traffic floor must be finite and non-negative, got {v}")
            }
            ConfigError::BadOpeningFraction(v) => {
                write!(
                    f,
                    "opening fraction must be finite and non-negative, got {v}"
                )
            }
            ConfigError::BadShiftCap(v) => {
                write!(f, "shift cap must be finite and positive, got {v}")
            }
            ConfigError::BadWallThreshold(v) => {
                write!(f, "wall threshold must lie in [0, 1), got {v}")
            }
            ConfigError::BadWallStrength(v) => {
                write!(f, "wall strength must be finite and non-negative, got {v}")
            }
            ConfigError::BadCurvatureFloor(v) => {
                write!(f, "curvature floor must be finite and positive, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Outcome of [`GradientAlgorithm::run_until_stable`]: how many
/// iterations the call performed and whether it actually met the shift
/// tolerance (previously "converged on the last allowed step" and "hit
/// the iteration cap" were indistinguishable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StableOutcome {
    /// Iterations performed by this call.
    pub iterations: usize,
    /// `true` if the per-step total routing shift dropped below the
    /// tolerance; `false` if the iteration cap stopped the run first.
    pub converged: bool,
}

/// Statistics of one iteration. The step does protocol work only and
/// never prices the network: the objective `A` is read on demand, from
/// [`Report::cost`] or [`CostModel::total_cost`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepStats {
    /// Routing-mass movement of the Γ application.
    pub gamma: GammaStats,
}

/// A solution snapshot mapped back to problem terms.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Iterations performed so far.
    pub iterations: usize,
    /// Overall system utility `Σ_j U_j(a_j)`.
    pub utility: f64,
    /// The relaxed cost `A = Y + ε·D` (what the algorithm minimizes).
    pub cost: f64,
    /// Admitted rate `a_j` per commodity.
    pub admitted: Vec<f64>,
    /// Data rate delivered at each commodity's sink.
    pub delivered: Vec<f64>,
    /// Physical node/link resource usage.
    pub loads: PhysicalLoads,
    /// Highest node or link utilization (fraction of capacity).
    pub max_utilization: f64,
}

impl Report {
    /// Per-(commodity, out-edge) resource allocation at a node: how much
    /// of the node's budget the local optimization assigns to each
    /// processing task, given this snapshot's flows.
    #[must_use]
    pub fn node_allocations(
        alg: &GradientAlgorithm,
        node: NodeId,
    ) -> Vec<(spn_model::CommodityId, spn_graph::EdgeId, f64)> {
        let ext = alg.extended();
        let state = alg.flows();
        let mut out = Vec::new();
        for j in ext.commodity_ids() {
            for l in ext.commodity_out_edges(j, node) {
                let alloc =
                    state.traffic(ext, j, node) * alg.routing().fraction(j, l) * ext.cost(j, l);
                if alloc > 0.0 {
                    out.push((j, l, alloc));
                }
            }
        }
        out
    }
}

/// The distributed gradient-based algorithm over an extended network.
#[derive(Clone, Debug)]
pub struct GradientAlgorithm {
    ext: ExtendedNetwork,
    cost: CostModel,
    config: GradientConfig,
    /// How a router's row moves: Γ, or the Newton rule of
    /// [`NewtonGradient`](crate::NewtonGradient).
    rule: RowRule,
    routing: RoutingTable,
    state: FlowState,
    marginals: Marginals,
    iterations: usize,
    /// Reusable Γ scratch: the row lane and the per-chunk statistics.
    workspace: IterationWorkspace,
    /// Live-arc rows every sweep of the step walks (sized by the first
    /// step).
    sweeps: LiveArcSweeps,
    /// State was written from outside the step since the last one
    /// (construction, restore, an installed routing, raw state access, a
    /// reshape): the next step updates the row of every router and
    /// zeroes the node totals full width.
    outside_write: bool,
    /// Commodity-set epoch: bumped by every
    /// [`admit_commodity`](GradientAlgorithm::admit_commodity) /
    /// [`evict_commodity`](GradientAlgorithm::evict_commodity) reshape
    /// so checkpoints taken against a different commodity set are
    /// rejected structurally on restore.
    epoch: u64,
}

impl GradientAlgorithm {
    /// Builds the algorithm for a validated problem: applies the §3
    /// transformations and installs the fully-rejecting initial routing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for non-positive `η`/`ε` or a negative
    /// traffic floor.
    pub fn new(problem: &Problem, config: GradientConfig) -> Result<Self, ConfigError> {
        Self::from_extended(ExtendedNetwork::build(problem), config)
    }

    /// Builds the algorithm over an already-transformed network (shared
    /// with the simulator and with experiment code that mutates
    /// capacities).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid tunables.
    pub fn from_extended(
        ext: ExtendedNetwork,
        config: GradientConfig,
    ) -> Result<Self, ConfigError> {
        Self::with_rule(ext, config, RowRule::Gamma)
    }

    /// [`from_extended`](Self::from_extended) with the given row rule.
    pub(crate) fn with_rule(
        ext: ExtendedNetwork,
        config: GradientConfig,
        rule: RowRule,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let cost = CostModel {
            penalty: config.penalty,
            epsilon: config.epsilon,
            wall_threshold: config.wall_threshold,
            wall_strength: config.wall_strength,
        };
        let routing = RoutingTable::initial(&ext);
        let mut workspace = IterationWorkspace::new(&ext);
        let mut state = FlowState::zeros(&ext);
        compute_flows_into(&ext, &routing, &mut state, &mut workspace, None);
        let mut marginals = Marginals::zeros(&ext);
        compute_marginals_into(&ext, &cost, &routing, &state, &mut marginals, None);
        Ok(GradientAlgorithm {
            ext,
            cost,
            config,
            rule,
            routing,
            state,
            marginals,
            iterations: 0,
            workspace,
            sweeps: LiveArcSweeps::default(),
            outside_write: true,
            epoch: 0,
        })
    }

    /// Performs one full protocol iteration; returns its statistics.
    ///
    /// Heap-allocation-free in steady state: the step reads and writes
    /// the preallocated buffers owned by `self` — every commodity's Γ
    /// rows, then every commodity's flows added into the zeroed
    /// usage totals in fixed commodity order, then the marginals swept
    /// (pinned by tests).
    pub fn step(&mut self) -> StepStats {
        let gamma = sparse_step_serial(
            &self.ext,
            &self.cost,
            &self.config,
            &mut self.rule,
            &mut self.routing,
            &mut self.state,
            &mut self.marginals,
            &mut self.workspace,
            &mut self.sweeps,
            &mut self.outside_write,
        );
        self.iterations += 1;
        StepStats { gamma }
    }

    /// Runs `iterations` steps, returning the final report.
    pub fn run(&mut self, iterations: usize) -> Report {
        for _ in 0..iterations {
            self.step();
        }
        self.report()
    }

    /// Runs until the per-step total routing shift drops below
    /// `shift_tolerance` or `max_iterations` is hit. The returned
    /// [`StableOutcome`] says how many iterations this call performed
    /// *and* whether the tolerance was actually met — previously the
    /// bare count made "converged on the final allowed step" and "gave
    /// up at the cap" indistinguishable.
    pub fn run_until_stable(
        &mut self,
        shift_tolerance: f64,
        max_iterations: usize,
    ) -> StableOutcome {
        for done in 0..max_iterations {
            let stats = self.step();
            if stats.gamma.total_shift < shift_tolerance {
                return StableOutcome {
                    iterations: done + 1,
                    converged: true,
                };
            }
        }
        StableOutcome {
            iterations: max_iterations,
            converged: false,
        }
    }

    /// Like [`run_until_stable`](GradientAlgorithm::run_until_stable),
    /// but also stops when the run enters a **limit cycle**: at a fixed
    /// step rate the routing can orbit the optimum forever, so the
    /// per-step total shift plateaus above any useful tolerance and the
    /// plain loop burns the whole iteration cap learning nothing.
    ///
    /// The detector tracks the minimum total shift seen so far; if no
    /// *meaningfully* lower minimum appears for `window` consecutive
    /// steps, the shift norm has stopped improving and the call returns
    /// early. "Meaningful" is a relative margin (0.1%): a genuinely
    /// converging run descends geometrically and clears it easily,
    /// while the slow float-noise drift of a limit cycle's envelope
    /// does not get to postpone the stop forever.
    ///
    /// The returned [`StableOutcome`] keeps its contract: `converged`
    /// is `true` only when the shift tolerance was actually met. An
    /// oscillation stop reports `converged: false` with
    /// `iterations < max_iterations`, distinguishing it from cap
    /// exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (every step would look like a
    /// plateau).
    pub fn run_until_stable_windowed(
        &mut self,
        shift_tolerance: f64,
        window: usize,
        max_iterations: usize,
    ) -> StableOutcome {
        assert!(window > 0, "window must be at least 1");
        /// A new minimum must undercut the previous best by this
        /// relative margin to count as progress.
        const MIN_RELATIVE_IMPROVEMENT: f64 = 1e-3;
        let mut best_shift = f64::INFINITY;
        let mut steps_since_improvement = 0usize;
        for done in 0..max_iterations {
            let stats = self.step();
            if stats.gamma.total_shift < shift_tolerance {
                return StableOutcome {
                    iterations: done + 1,
                    converged: true,
                };
            }
            if stats.gamma.total_shift < best_shift * (1.0 - MIN_RELATIVE_IMPROVEMENT) {
                best_shift = stats.gamma.total_shift;
                steps_since_improvement = 0;
            } else {
                steps_since_improvement += 1;
                if steps_since_improvement >= window {
                    return StableOutcome {
                        iterations: done + 1,
                        converged: false,
                    };
                }
            }
        }
        StableOutcome {
            iterations: max_iterations,
            converged: false,
        }
    }

    /// Current total utility `Σ_j U_j(a_j)`. Allocation-free, unlike the
    /// full [`report`](GradientAlgorithm::report).
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

    /// Snapshots the full trajectory-determining state — routing `φ`,
    /// flows, marginals, iteration counter, ε, and a
    /// [`set_eta`](GradientAlgorithm::set_eta) override — into a fresh
    /// [`Checkpoint`]. Prefer
    /// [`checkpoint_into`](GradientAlgorithm::checkpoint_into) in loops:
    /// it reuses the buffers and is allocation-free after the first
    /// capture.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new();
        self.checkpoint_into(&mut ck);
        ck
    }

    /// Refreshes `into` with the current state. Buffers are refilled in
    /// place (`clear` + `extend_from_slice`), so once `into` has seen a
    /// capture of this shape the call performs no heap allocation —
    /// pinned by the zero-alloc suite.
    pub fn checkpoint_into(&self, into: &mut Checkpoint) {
        Checkpoint::refill(&mut into.phi, self.routing.flat());
        Checkpoint::refill(&mut into.t, &self.state.t);
        Checkpoint::refill(&mut into.x, &self.state.x);
        Checkpoint::refill(&mut into.f_edge, &self.state.f_edge);
        Checkpoint::refill(&mut into.f_node, &self.state.f_node);
        Checkpoint::refill(&mut into.d, &self.marginals.d);
        into.iterations = self.iterations;
        into.epsilon = self.cost.epsilon;
        into.eta = self.config.eta;
        into.epoch = self.epoch;
        into.captured = true;
    }

    /// Rolls the algorithm back to `ck`, bit-for-bit: straight buffer
    /// copies, no recomputation — stepping from the restored state
    /// replays the original trajectory exactly. The environment (the
    /// extended network's capacities and demands) is *not* part of the
    /// checkpoint: rolling back past a failure does not un-fail the
    /// node, which is exactly what recovery experiments need.
    /// Allocation-free.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyCheckpoint`] if `ck` never captured state;
    /// [`CoreError::EpochMismatch`] if the commodity set was reshaped
    /// (admit/evict) since the capture — even when the buffer sizes
    /// happen to agree, the row layouts describe different commodities;
    /// [`CoreError::ShapeMismatch`] if it was captured from a
    /// differently-shaped instance. The algorithm is unchanged on error.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CoreError> {
        if !ck.captured {
            return Err(CoreError::EmptyCheckpoint);
        }
        if ck.epoch != self.epoch {
            return Err(CoreError::EpochMismatch {
                expected: self.epoch,
                got: ck.epoch,
            });
        }
        let check = |what: &'static str, expected: usize, got: usize| {
            if expected == got {
                Ok(())
            } else {
                Err(CoreError::ShapeMismatch {
                    what,
                    expected,
                    got,
                })
            }
        };
        check("phi", self.routing.flat().len(), ck.phi.len())?;
        check("t", self.state.t.len(), ck.t.len())?;
        check("x", self.state.x.len(), ck.x.len())?;
        check("f_edge", self.state.f_edge.len(), ck.f_edge.len())?;
        check("f_node", self.state.f_node.len(), ck.f_node.len())?;
        check("d", self.marginals.d.len(), ck.d.len())?;
        self.routing.flat_mut().copy_from_slice(&ck.phi);
        self.state.t.copy_from_slice(&ck.t);
        self.state.x.copy_from_slice(&ck.x);
        self.state.f_edge.copy_from_slice(&ck.f_edge);
        self.state.f_node.copy_from_slice(&ck.f_node);
        self.marginals.d.copy_from_slice(&ck.d);
        self.iterations = ck.iterations;
        self.cost.epsilon = ck.epsilon;
        self.config.eta = ck.eta;
        // A raw checkpoint may carry usage on idle nodes and
        // pass-through rows off `1.0`.
        self.written_from_outside();
        Ok(())
    }

    /// Overrides the step size `η` mid-run (step-size schedules and
    /// experiments that retune a running algorithm).
    ///
    /// # Panics
    ///
    /// Panics unless `eta` is finite and positive (the same contract
    /// [`GradientAlgorithm::new`] validates).
    pub fn set_eta(&mut self, eta: f64) {
        assert!(
            eta.is_finite() && eta > 0.0,
            "eta must be finite and positive, got {eta}"
        );
        self.config.eta = eta;
    }

    /// Current solution snapshot in problem terms.
    #[must_use]
    pub fn report(&self) -> Report {
        let admitted: Vec<f64> = self
            .ext
            .commodity_ids()
            .map(|j| self.state.admitted(&self.ext, j))
            .collect();
        let delivered: Vec<f64> = self
            .ext
            .commodity_ids()
            .map(|j| self.state.delivered(&self.ext, j))
            .collect();
        let utility: f64 = self
            .ext
            .commodity_ids()
            .zip(&admitted)
            .map(|(j, &a)| self.ext.commodity(j).utility.value(a))
            .sum();
        let loads = physical_loads(&self.ext, self.state.node_usages());
        let max_utilization = self
            .ext
            .graph()
            .nodes()
            .map(|v| self.ext.capacity(v).utilization(self.state.node_usage(v)))
            .fold(0.0, f64::max);
        Report {
            iterations: self.iterations,
            utility,
            cost: self.cost.total_cost(&self.ext, &self.state),
            admitted,
            delivered,
            loads,
            max_utilization,
        }
    }

    /// The extended network the algorithm runs on.
    #[must_use]
    pub fn extended(&self) -> &ExtendedNetwork {
        &self.ext
    }

    /// Mutable access to the extended network, for dynamic-demand and
    /// failure experiments (`set_max_rate`, `set_capacity`). Flows and
    /// marginals refresh on the next [`GradientAlgorithm::step`].
    pub fn extended_mut(&mut self) -> &mut ExtendedNetwork {
        &mut self.ext
    }

    /// The current routing decision.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The current flow state (consistent with [`Self::routing`]).
    #[must_use]
    pub fn flows(&self) -> &FlowState {
        &self.state
    }

    /// Mutable flow state — a corruption hook for fault-injection tests
    /// (pair with [`FlowState::traffic_mut`]). Not part of the stable
    /// API.
    #[doc(hidden)]
    pub fn flows_mut(&mut self) -> &mut FlowState {
        self.written_from_outside();
        &mut self.state
    }

    /// The current marginal costs.
    #[must_use]
    pub fn marginals(&self) -> &Marginals {
        &self.marginals
    }

    /// The cost model in effect.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &GradientConfig {
        &self.config
    }

    /// Iterations performed so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Inert shim: always `1` — the step has one schedule. Kept only so
    /// the frozen `benchmark/` surface compiles; the next `[benchmark]`
    /// PR removes it.
    #[deprecated(note = "always 1; the next benchmark PR removes it")]
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        1
    }

    /// Inert shim: does nothing. Kept only so the frozen `benchmark/`
    /// surface compiles; the next `[benchmark]` PR removes it.
    #[deprecated(note = "no-op; the next benchmark PR removes it")]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Overwrites the routing decision (used by failure-injection
    /// experiments to apply local repairs) and recomputes flows and
    /// marginals.
    ///
    /// # Panics
    ///
    /// Panics if the new table fails [`RoutingTable::validate`].
    pub fn install_routing(&mut self, routing: RoutingTable) {
        routing
            .validate(&self.ext)
            .expect("installed routing must be valid");
        self.routing = routing;
        self.written_from_outside();
        compute_flows_into(
            &self.ext,
            &self.routing,
            &mut self.state,
            &mut self.workspace,
            None,
        );
        compute_marginals_into(
            &self.ext,
            &self.cost,
            &self.routing,
            &self.state,
            &mut self.marginals,
            None,
        );
    }

    /// The commodity-set epoch: starts at 0 and is bumped by every
    /// [`admit_commodity`](GradientAlgorithm::admit_commodity) /
    /// [`evict_commodity`](GradientAlgorithm::evict_commodity) reshape.
    /// Checkpoints record the epoch at capture, and
    /// [`restore`](GradientAlgorithm::restore) rejects a capture from a
    /// different epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Admits a new commodity online: extends the shared extended
    /// network in place ([`ExtendedNetwork::add_commodity`]) and grows
    /// every state buffer by the newcomer's rows, without rebuilding the
    /// physical or bandwidth layers. Survivors keep their routing fractions, flows,
    /// and marginals bit-for-bit (pinned by tests): the newcomer starts
    /// fully rejecting, and its only load — its own dummy node and
    /// difference edge — lies outside every survivor's subgraph, so
    /// recomputation reproduces the survivors' values exactly. Bumps
    /// the commodity-set epoch, invalidating earlier checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `def` is invalid (see
    /// [`ExtendedNetwork::add_commodity`]).
    pub fn admit_commodity(&mut self, def: CommodityDef) -> CommodityId {
        let j = self.ext.add_commodity(def);
        self.routing.admit(&self.ext, j);
        self.reshape_state();
        // The newcomer needs a consistent marginal view before its
        // first step; survivors' marginals recompute bit-identically
        // (their flows and the shared usage totals they see are
        // unchanged — the newcomer's load sits on its private dummy
        // node and difference edge).
        compute_marginals_into(
            &self.ext,
            &self.cost,
            &self.routing,
            &self.state,
            &mut self.marginals,
            None,
        );
        j
    }

    /// Evicts a live commodity online: removes its dummy source, input
    /// and difference edges, and per-commodity rows from the shared
    /// extended network ([`ExtendedNetwork::remove_commodity`]) and
    /// drops its rows from every state buffer. Survivors keep their routing
    /// fractions and marginals bit-for-bit (pinned by tests); flows are
    /// recomputed because the departed commodity's contribution leaves
    /// the shared usage totals. Later commodities shift down one id,
    /// mirroring the extended network's renumbering. Bumps the
    /// commodity-set epoch, invalidating earlier checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or is the last remaining commodity
    /// (an empty commodity set has no meaningful iteration).
    pub fn evict_commodity(&mut self, j: CommodityId) {
        let j_count = self.ext.num_commodities();
        assert!(j.index() < j_count, "commodity {j} is not in the network");
        assert!(j_count > 1, "cannot evict the last commodity");
        let row = self.ext.member_range(j);
        let er0 = self.ext.input_edge(j).index();
        self.ext.remove_commodity(j);
        self.routing.evict(j.index(), er0);
        self.marginals.evict(row);
        self.reshape_state();
    }

    /// Shared tail of a commodity-set reshape: recomputes flows for the
    /// new commodity set (survivor rows reproduce bit-for-bit; the
    /// totals accumulate in ascending commodity order as always), flags
    /// the outside write, and bumps the epoch. The
    /// next step re-sizes the workspace.
    fn reshape_state(&mut self) {
        compute_flows_into(
            &self.ext,
            &self.routing,
            &mut self.state,
            &mut self.workspace,
            None,
        );
        self.written_from_outside();
        self.epoch += 1;
    }

    /// Flags state written from outside the step: the next step updates
    /// the row of every router and zeroes the node totals full width —
    /// the step where a pass-through row off `1.0` or usage on an idle
    /// node heals, as in a dense replay — and every live-arc row is
    /// rebuilt from the routing.
    fn written_from_outside(&mut self) {
        self.outside_write = true;
        self.sweeps.mark_all_stale();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::{CommodityId, PenaltyKind, UtilityFn};

    /// s → x → t; capacity allows ~5 units through (x: cap 10, c=2).
    fn bottleneck_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s = b.server(100.0);
        let x = b.server(10.0);
        let t = b.server(100.0);
        let e1 = b.link(s, x, 100.0);
        let e2 = b.link(x, t, 100.0);
        let j = b.commodity(s, t, 20.0, UtilityFn::throughput());
        b.uses(j, e1, 1.0, 1.0).uses(j, e2, 2.0, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn config_validation() {
        let p = bottleneck_problem();
        let bad_eta = GradientConfig {
            eta: 0.0,
            ..GradientConfig::default()
        };
        assert!(matches!(
            GradientAlgorithm::new(&p, bad_eta),
            Err(ConfigError::BadEta(_))
        ));
        let bad_eps = GradientConfig {
            epsilon: -1.0,
            ..GradientConfig::default()
        };
        assert!(matches!(
            GradientAlgorithm::new(&p, bad_eps),
            Err(ConfigError::BadEpsilon(_))
        ));
        let bad_floor = GradientConfig {
            traffic_floor: f64::NAN,
            ..GradientConfig::default()
        };
        assert!(matches!(
            GradientAlgorithm::new(&p, bad_floor),
            Err(ConfigError::BadTrafficFloor(_))
        ));
        // the Newton driver validates through the same checks (compared
        // as text: the NaN floor is not equal to itself)
        for bad in [bad_eta, bad_eps, bad_floor] {
            assert_eq!(
                format!("{:?}", crate::NewtonGradient::new(&p, bad, 1e-6).err()),
                format!("{:?}", GradientAlgorithm::new(&p, bad).err())
            );
        }
        // and refuses a curvature floor that is not finite and positive
        // (`f64::max` alone would turn NaN into the 1e-12 floor)
        let cfg = GradientConfig::default();
        for floor in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            assert!(matches!(
                crate::NewtonGradient::new(&p, cfg, floor),
                Err(ConfigError::BadCurvatureFloor(_))
            ));
        }
        assert!(crate::NewtonGradient::new(&p, cfg, 1e-15).is_ok());
        assert!(!format!("{}", ConfigError::BadEta(0.0)).is_empty());
        // tunables that poison the marginals
        let with = |edit: fn(&mut GradientConfig)| {
            let mut c = GradientConfig::default();
            edit(&mut c);
            c
        };
        let poison = [
            (with(|c| c.wall_threshold = 1.0), "BadWallThreshold(1.0)"),
            (with(|c| c.wall_threshold = -0.5), "BadWallThreshold(-0.5)"),
            (with(|c| c.wall_strength = f64::NAN), "BadWallStrength(NaN)"),
            (with(|c| c.wall_strength = -1.0), "BadWallStrength(-1.0)"),
            (
                with(|c| c.wall_strength = f64::INFINITY),
                "BadWallStrength(inf)",
            ),
        ];
        for (bad, want) in poison {
            let want = format!("Some({want})");
            assert_eq!(format!("{:?}", GradientAlgorithm::new(&p, bad).err()), want);
            let newton = crate::NewtonGradient::new(&p, bad, 1e-6).err();
            assert_eq!(format!("{newton:?}"), want);
            assert!(!format!("{}", bad.validate().unwrap_err()).is_empty());
        }
        // every corner the checks accept builds on both drivers: the
        // paper's literal objective (no wall), the uncapped shift,
        // Gallager's opening rule and each penalty family
        let mut fine = vec![
            with(|c| c.wall_strength = 0.0),
            with(|c| c.shift_cap = 1.0),
            with(|c| c.opening_fraction = 0.0),
        ];
        for kind in [
            PenaltyKind::Reciprocal,
            PenaltyKind::ScaledReciprocal,
            PenaltyKind::LogBarrier,
        ] {
            let penalty = Penalty::new(kind, 0.98).unwrap();
            fine.push(GradientConfig {
                penalty,
                ..GradientConfig::default()
            });
        }
        for ok in fine {
            assert_eq!(ok.validate(), Ok(()));
            assert!(GradientAlgorithm::new(&p, ok).is_ok(), "{ok:?}");
            assert!(crate::NewtonGradient::new(&p, ok, 1e-6).is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn starts_fully_rejecting() {
        let p = bottleneck_problem();
        let alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let r = alg.report();
        assert_eq!(r.iterations, 0);
        assert_eq!(r.utility, 0.0);
        assert_eq!(r.admitted, vec![0.0]);
        assert_eq!(r.max_utilization, 0.0);
    }

    #[test]
    fn admission_grows_and_respects_capacity() {
        let p = bottleneck_problem();
        let cfg = GradientConfig {
            eta: 0.5,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        let r = alg.run(800);
        // the x bottleneck admits at most 10/2 = 5 units
        assert!(r.admitted[0] > 3.5, "admitted {} too low", r.admitted[0]);
        assert!(
            r.admitted[0] <= 5.0 + 1e-6,
            "admitted {} exceeds capacity",
            r.admitted[0]
        );
        assert!(r.max_utilization <= 1.0 + 1e-9);
        assert!(r.utility > 0.0);
        alg.routing().validate(alg.extended()).unwrap();
        assert!(alg.routing().is_loop_free(alg.extended()));
    }

    #[test]
    fn utility_is_near_monotone() {
        let p = bottleneck_problem();
        // larger ε smooths the barrier; with the default ε = 5e-4 and a
        // large η the equilibrium is a benign ±shift_cap limit cycle
        let cfg = GradientConfig {
            eta: 0.2,
            epsilon: 0.002,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        let mut last = 0.0;
        let mut max_drop: f64 = 0.0;
        for _ in 0..400 {
            alg.step();
            let u = alg.report().utility;
            max_drop = max_drop.max(last - u);
            last = u;
        }
        assert!(max_drop < 0.05, "utility dropped by {max_drop}");
    }

    #[test]
    fn unconstrained_problem_admits_everything() {
        let mut b = ProblemBuilder::new();
        let s = b.server(1e6);
        let t = b.server(1e6);
        let e = b.link(s, t, 1e6);
        let j = b.commodity(s, t, 5.0, UtilityFn::throughput());
        b.uses(j, e, 1.0, 1.0);
        let p = b.build().unwrap();
        let cfg = GradientConfig {
            eta: 0.5,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        let r = alg.run(500);
        assert!(r.admitted[0] > 4.9, "admitted {} of 5", r.admitted[0]);
        assert!((r.delivered[0] - r.admitted[0]).abs() < 1e-9);
    }

    #[test]
    fn run_until_stable_terminates() {
        let p = bottleneck_problem();
        let cfg = GradientConfig {
            eta: 0.3,
            epsilon: 0.002,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        let outcome = alg.run_until_stable(1e-10, 20_000);
        assert!(outcome.converged, "did not stabilize");
        assert!(outcome.iterations < 20_000);
        assert_eq!(alg.iterations(), outcome.iterations);
        let r = alg.report();
        assert!(r.admitted[0] > 3.0);
    }

    #[test]
    fn run_until_stable_reports_cap_exhaustion() {
        let p = bottleneck_problem();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        // A tolerance of zero can never be met (shifts are >= 0).
        let outcome = alg.run_until_stable(0.0, 7);
        assert_eq!(
            outcome,
            StableOutcome {
                iterations: 7,
                converged: false
            }
        );
    }

    #[test]
    fn windowed_stop_converges_like_plain_when_descending() {
        let p = bottleneck_problem();
        let cfg = GradientConfig {
            eta: 0.3,
            epsilon: 0.002,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        let outcome = alg.run_until_stable_windowed(1e-10, 200, 20_000);
        assert!(outcome.converged, "descending run should meet tolerance");
        assert!(outcome.iterations < 20_000);
        let r = alg.report();
        assert!(r.admitted[0] > 3.0);
    }

    #[test]
    fn windowed_stop_detects_limit_cycle() {
        // The default (large) step rate on the bottleneck problem
        // orbits the optimum: the total shift plateaus above any
        // useful tolerance, so the plain loop would burn the whole
        // cap. The window-min rule must cut the run short.
        let p = bottleneck_problem();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let cap = 50_000;
        let outcome = alg.run_until_stable_windowed(0.0, 50, cap);
        assert!(!outcome.converged, "tolerance of zero can never be met");
        assert!(
            outcome.iterations < cap,
            "oscillation was not detected: ran all {} iterations",
            outcome.iterations
        );
        // The stop must still leave a sensible solution behind.
        let r = alg.report();
        assert!(r.admitted[0] > 3.0);
    }

    #[test]
    fn step_stats_reflect_progress() {
        let p = bottleneck_problem();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        // initial cost = full utility loss = λ = 20
        assert!((alg.report().cost - 20.0).abs() < 1e-9);
        let s1 = alg.step();
        assert!(s1.gamma.rows > 0);
    }

    #[test]
    fn report_allocations_decompose_node_usage() {
        let p = bottleneck_problem();
        let cfg = GradientConfig {
            eta: 0.5,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        alg.run(300);
        let x = spn_graph::NodeId::from_index(1);
        let allocs = Report::node_allocations(&alg, x);
        let total: f64 = allocs.iter().map(|&(_, _, a)| a).sum();
        assert!((total - alg.flows().node_usage(x)).abs() < 1e-9);
        assert!(!allocs.is_empty());
        assert_eq!(allocs[0].0, CommodityId::from_index(0));
    }

    #[test]
    fn install_routing_resets_state() {
        let p = bottleneck_problem();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(50);
        let fresh = RoutingTable::initial(alg.extended());
        alg.install_routing(fresh);
        let r = alg.report();
        assert_eq!(r.admitted, vec![0.0]);
    }

    fn random_three() -> Problem {
        spn_model::random::RandomInstance::builder()
            .nodes(15)
            .commodities(3)
            .seed(11)
            .build()
            .unwrap()
            .problem
    }

    /// Routing fraction bits for commodity `j` over the first `l_count`
    /// edge ids.
    fn phi_bits(alg: &GradientAlgorithm, j: usize, l_count: usize) -> Vec<u64> {
        let j = CommodityId::from_index(j);
        (0..l_count)
            .map(|l| {
                alg.routing()
                    .fraction(j, spn_graph::EdgeId::from_index(l))
                    .to_bits()
            })
            .collect()
    }

    /// (traffic, marginal) bits for commodity `j` over the first
    /// `v_count` node ids.
    fn node_bits(alg: &GradientAlgorithm, j: usize, v_count: usize) -> Vec<(u64, u64)> {
        let j = CommodityId::from_index(j);
        (0..v_count)
            .map(|v| {
                let v = NodeId::from_index(v);
                (
                    alg.flows().traffic(alg.extended(), j, v).to_bits(),
                    alg.marginals().node(alg.extended(), j, v).to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn admit_preserves_survivors_bitwise() {
        let p = random_three();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        alg.run(150);
        let old_l = alg.extended().graph().edge_count();
        let old_v = alg.extended().graph().node_count();
        let phi_before: Vec<_> = (0..3).map(|j| phi_bits(&alg, j, old_l)).collect();
        let nodes_before: Vec<_> = (0..3).map(|j| node_bits(&alg, j, old_v)).collect();
        // Admit a twin of commodity 0 (same endpoints, rate, subgraph).
        let def = alg.extended().commodity_def(CommodityId::from_index(0));
        let j_new = alg.admit_commodity(def);
        assert_eq!(j_new.index(), 3);
        assert_eq!(alg.epoch(), 1);
        assert_eq!(alg.extended().num_commodities(), 4);
        for j in 0..3 {
            assert_eq!(phi_bits(&alg, j, old_l), phi_before[j], "phi moved for {j}");
            assert_eq!(
                node_bits(&alg, j, old_v),
                nodes_before[j],
                "flows/marginals moved for {j}"
            );
        }
        // The newcomer starts fully rejecting, like a fresh build would.
        assert_eq!(alg.flows().admitted(alg.extended(), j_new), 0.0);
        // And iteration proceeds from the reshaped state.
        alg.step();
        assert!(alg.utility().is_finite());
    }

    #[test]
    fn evict_preserves_survivors_bitwise() {
        let p = random_three();
        let cfg = GradientConfig {
            eta: 0.2,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        alg.run(150);
        let old_l = alg.extended().graph().edge_count();
        let old_v = alg.extended().graph().node_count();
        let victim = CommodityId::from_index(1);
        let d = alg.extended().dummy_source(victim).index();
        let er0 = alg.extended().input_edge(victim).index();
        let phi_before: Vec<_> = [0, 2].map(|j| phi_bits(&alg, j, old_l)).into();
        let nodes_before: Vec<_> = [0, 2].map(|j| node_bits(&alg, j, old_v)).into();
        alg.evict_commodity(victim);
        assert_eq!(alg.epoch(), 1);
        assert_eq!(alg.extended().num_commodities(), 2);
        for (new_j, old_row) in phi_before.iter().enumerate() {
            let after = phi_bits(&alg, new_j, old_l - 2);
            for (old_e, &bits) in old_row.iter().enumerate() {
                if old_e == er0 || old_e == er0 + 1 {
                    continue; // the victim's dummy links are gone
                }
                let new_e = if old_e > er0 + 1 { old_e - 2 } else { old_e };
                assert_eq!(after[new_e], bits, "phi moved at edge {old_e}");
            }
        }
        for (new_j, old_row) in nodes_before.iter().enumerate() {
            let after = node_bits(&alg, new_j, old_v - 1);
            for (old_v_id, &(_, marg)) in old_row.iter().enumerate() {
                if old_v_id == d {
                    continue; // the victim's dummy source is gone
                }
                let new_v = if old_v_id > d { old_v_id - 1 } else { old_v_id };
                // Marginals are preserved verbatim (not recomputed);
                // traffic rows recompute bit-identically but the test
                // pins only the preserved quantity here — flows are
                // covered by the integration suite.
                assert_eq!(after[new_v].1, marg, "marginal moved at node {old_v_id}");
                assert_eq!(
                    after[new_v].0, old_row[old_v_id].0,
                    "traffic moved at node {old_v_id}"
                );
            }
        }
        alg.step();
        assert!(alg.utility().is_finite());
    }

    #[test]
    fn evicting_the_last_commodity_panics() {
        let p = bottleneck_problem();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            alg.evict_commodity(CommodityId::from_index(0));
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap();
        assert!(msg.contains("last commodity"), "unexpected panic: {msg}");
    }

    #[test]
    fn restore_across_reshape_is_rejected() {
        let p = random_three();
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(40);
        let ck = alg.checkpoint();
        let def = alg.extended().commodity_def(CommodityId::from_index(2));
        alg.evict_commodity(CommodityId::from_index(2));
        assert_eq!(
            alg.restore(&ck),
            Err(CoreError::EpochMismatch {
                expected: 1,
                got: 0
            })
        );
        // Re-admitting the same commodity does not resurrect the epoch:
        // the buffer sizes match again, but the capture is still stale.
        alg.admit_commodity(def);
        assert!(matches!(
            alg.restore(&ck),
            Err(CoreError::EpochMismatch {
                expected: 2,
                got: 0
            })
        ));
        // A capture at the current epoch round-trips as usual.
        let ck2 = alg.checkpoint();
        alg.step();
        assert!(alg.restore(&ck2).is_ok());
    }
}
