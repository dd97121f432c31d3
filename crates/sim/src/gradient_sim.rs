//! The full gradient iteration driven by message waves.

use crate::waves::{forecast_wave, into_marginals, marginal_wave, WaveOutcome};
use spn_core::gamma::apply_gamma;
use spn_core::{ConfigError, CostModel, FlowState, GradientConfig, Marginals, RoutingTable};
use spn_model::Problem;
use spn_transform::ExtendedNetwork;

/// Accounting of one simulated gradient iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Rounds and messages of the marginal-cost wave.
    pub marginal: WaveOutcome,
    /// Rounds and messages of the flow-forecast wave.
    pub forecast: WaveOutcome,
}

impl IterationStats {
    /// Total synchronous rounds of the iteration.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.marginal.rounds + self.forecast.rounds
    }

    /// Total messages of the iteration.
    #[must_use]
    pub fn messages(&self) -> usize {
        self.marginal.messages + self.forecast.messages
    }
}

/// The gradient algorithm executed as the paper's three protocols with
/// explicit per-hop message delivery.
///
/// State evolution is numerically identical (up to floating-point
/// summation order) to [`spn_core::GradientAlgorithm`] — asserted by
/// this crate's tests — but every iteration also reports the
/// communication it would cost on a real deployment: the `O(L)` rounds
/// of the two waves and the per-link messages.
#[derive(Clone, Debug)]
pub struct GradientSim {
    ext: ExtendedNetwork,
    cost: CostModel,
    config: GradientConfig,
    routing: RoutingTable,
    state: FlowState,
    marginals: Marginals,
    iterations: usize,
    total_messages: usize,
    total_rounds: usize,
}

impl GradientSim {
    /// Builds the simulated algorithm for a validated problem.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`spn_core::GradientAlgorithm::new`].
    pub fn new(problem: &Problem, config: GradientConfig) -> Result<Self, ConfigError> {
        Self::from_extended(ExtendedNetwork::build(problem), config)
    }

    /// Builds the simulated algorithm over an existing extended network
    /// (e.g. one with failure-modified capacities).
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`spn_core::GradientAlgorithm::new`].
    pub fn from_extended(
        ext: ExtendedNetwork,
        config: GradientConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let cost = CostModel {
            penalty: config.penalty,
            epsilon: config.epsilon,
            wall_threshold: config.wall_threshold,
            wall_strength: config.wall_strength,
        };
        let routing = RoutingTable::initial(&ext);
        let (state, _) = forecast_wave(&ext, &routing);
        let (values, _) = marginal_wave(&ext, &cost, &routing, &state);
        Ok(GradientSim {
            cost,
            config,
            routing,
            state,
            marginals: into_marginals(&ext, &values),
            iterations: 0,
            total_messages: 0,
            total_rounds: 0,
            ext,
        })
    }

    /// Runs one iteration as messages; returns its communication cost.
    pub fn step(&mut self) -> IterationStats {
        apply_gamma(
            &self.ext,
            &self.cost,
            &mut self.routing,
            &self.state,
            &self.marginals,
            self.config.eta,
            self.config.traffic_floor,
            self.config.opening_fraction,
            self.config.shift_cap,
        );
        let (state, forecast) = forecast_wave(&self.ext, &self.routing);
        self.state = state;
        self.iterations += 1;
        let (values, marginal) = marginal_wave(&self.ext, &self.cost, &self.routing, &self.state);
        self.marginals = into_marginals(&self.ext, &values);
        let stats = IterationStats { marginal, forecast };
        self.total_messages += stats.messages();
        self.total_rounds += stats.rounds();
        stats
    }

    /// Current overall utility `Σ_j U_j(a_j)`.
    #[must_use]
    pub fn utility(&self) -> f64 {
        self.ext
            .commodity_ids()
            .map(|j| {
                let a = self.state.admitted(&self.ext, j);
                self.ext.commodity(j).utility.value(a)
            })
            .sum()
    }

    /// The current routing decision.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The current flow state.
    #[must_use]
    pub fn flows(&self) -> &FlowState {
        &self.state
    }

    /// The marginal costs of the last completed wave (eq. (9)).
    #[must_use]
    pub fn marginals(&self) -> &Marginals {
        &self.marginals
    }

    /// The extended network (mutable, for failure injection between
    /// iterations).
    #[must_use]
    pub fn extended_mut(&mut self) -> &mut ExtendedNetwork {
        &mut self.ext
    }

    /// The extended network.
    #[must_use]
    pub fn extended(&self) -> &ExtendedNetwork {
        &self.ext
    }

    /// Iterations simulated so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Messages sent since construction.
    #[must_use]
    pub fn total_messages(&self) -> usize {
        self.total_messages
    }

    /// Rounds elapsed since construction.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.total_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::GradientAlgorithm;
    use spn_model::random::RandomInstance;
    use spn_model::{Penalty, PenaltyKind};

    /// Both sim constructors refuse exactly what
    /// [`GradientAlgorithm::new`] refuses, with the same [`ConfigError`]
    /// (compared as text: a NaN payload is not equal to itself), and
    /// accept what it accepts.
    #[test]
    fn config_validation() {
        let p = RandomInstance::builder()
            .nodes(12)
            .commodities(2)
            .seed(3)
            .build()
            .unwrap()
            .problem;
        let d = GradientConfig::default();
        let bad = [
            GradientConfig { eta: 0.0, ..d },
            GradientConfig { epsilon: -1.0, ..d },
            GradientConfig {
                traffic_floor: f64::NAN,
                ..d
            },
            GradientConfig {
                opening_fraction: f64::INFINITY,
                ..d
            },
            GradientConfig {
                shift_cap: 0.0,
                ..d
            },
            GradientConfig {
                wall_threshold: 1.0,
                ..d
            },
            GradientConfig {
                wall_strength: f64::NAN,
                ..d
            },
            GradientConfig {
                wall_strength: f64::INFINITY,
                ..d
            },
        ];
        for cfg in bad {
            let core = format!("{:?}", GradientAlgorithm::new(&p, cfg).err());
            assert!(core.starts_with("Some("), "{cfg:?} accepted");
            let sim = GradientSim::from_extended(ExtendedNetwork::build(&p), cfg);
            assert_eq!(format!("{:?}", sim.err()), core);
            let chaos = crate::ChaosGradient::new(&p, cfg, &crate::ChaosConfig::off());
            assert_eq!(format!("{:?}", chaos.err()), core);
        }
        // every corner the core accepts builds on both sim drivers: the
        // default, no wall, the uncapped shift, Gallager's
        // opening rule and each penalty family
        let mut fine = vec![
            d,
            GradientConfig {
                wall_strength: 0.0,
                ..d
            },
            GradientConfig {
                shift_cap: 1.0,
                ..d
            },
            GradientConfig {
                opening_fraction: 0.0,
                ..d
            },
        ];
        for kind in [
            PenaltyKind::Reciprocal,
            PenaltyKind::ScaledReciprocal,
            PenaltyKind::LogBarrier,
        ] {
            let penalty = Penalty::new(kind, 0.98).unwrap();
            fine.push(GradientConfig { penalty, ..d });
        }
        for ok in fine {
            assert!(GradientAlgorithm::new(&p, ok).is_ok(), "{ok:?}");
            assert!(GradientSim::new(&p, ok).is_ok(), "{ok:?}");
            let chaos = crate::ChaosGradient::new(&p, ok, &crate::ChaosConfig::off());
            assert!(chaos.is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn sim_tracks_in_process_driver() {
        let inst = RandomInstance::builder()
            .nodes(18)
            .commodities(2)
            .seed(5)
            .build()
            .unwrap();
        let cfg = GradientConfig::default();
        let mut sim = GradientSim::new(&inst.problem, cfg).unwrap();
        let mut alg = GradientAlgorithm::new(&inst.problem, cfg).unwrap();
        for i in 0..200 {
            sim.step();
            alg.step();
            let u_sim = sim.utility();
            let u_alg = alg.report().utility;
            assert!(
                (u_sim - u_alg).abs() < 1e-6 * (1.0 + u_alg.abs()),
                "iteration {i}: sim {u_sim} vs alg {u_alg}"
            );
        }
        // routing tables agree too
        for j in sim.extended().commodity_ids() {
            for l in sim.extended().graph().edges() {
                let a = sim.routing().fraction(j, l);
                let b = alg.routing().fraction(j, l);
                assert!((a - b).abs() < 1e-9, "fraction mismatch at {l}");
            }
        }
    }

    #[test]
    fn message_counts_are_stable_per_iteration() {
        let inst = RandomInstance::builder()
            .nodes(18)
            .commodities(2)
            .seed(7)
            .build()
            .unwrap();
        let mut sim = GradientSim::new(&inst.problem, GradientConfig::default()).unwrap();
        let s1 = sim.step();
        // marginal wave broadcasts on every commodity adjacency
        // regardless of φ, so its message count is topology-constant
        let s2 = sim.step();
        assert_eq!(s1.marginal.messages, s2.marginal.messages);
        assert!(s1.rounds() > 0);
        assert_eq!(sim.total_messages(), s1.messages() + s2.messages());
        assert_eq!(sim.total_rounds(), s1.rounds() + s2.rounds());
        assert_eq!(sim.iterations(), 2);
    }

    #[test]
    fn failure_injection_reroutes() {
        use spn_model::Capacity;
        // diamond: kill one branch mid-run, utility recovers
        let inst = RandomInstance::builder()
            .nodes(20)
            .commodities(1)
            .seed(2)
            .build()
            .unwrap();
        let cfg = GradientConfig {
            eta: 0.3,
            ..GradientConfig::default()
        };
        let mut sim = GradientSim::new(&inst.problem, cfg).unwrap();
        for _ in 0..600 {
            sim.step();
        }
        let before = sim.utility();
        assert!(before > 0.0);
        // collapse the most loaded intermediate node
        let victim = sim
            .extended()
            .graph()
            .nodes()
            .filter(|&v| {
                !sim.extended().capacity(v).is_infinite()
                    && sim.extended().commodity_ids().all(|j| {
                        v != sim.extended().commodity(j).source()
                            && v != sim.extended().commodity(j).sink()
                    })
            })
            .max_by(|&a, &b| {
                sim.flows()
                    .node_usage(a)
                    .total_cmp(&sim.flows().node_usage(b))
            })
            .unwrap();
        sim.extended_mut()
            .set_capacity(victim, Capacity::finite(1e-3).unwrap());
        for _ in 0..2000 {
            sim.step();
        }
        let after = sim.utility();
        // flow avoided the dead node
        assert!(
            sim.flows().node_usage(victim) < 1e-2,
            "dead node still loaded: {}",
            sim.flows().node_usage(victim)
        );
        // and the system still delivers something
        assert!(after > 0.0);
    }
}
