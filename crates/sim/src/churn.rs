//! Seeded arrival/departure churn over a live gradient run.
//!
//! The paper's admission-control story is *online*: streams come and
//! go while the protocol keeps iterating. This module drives
//! [`GradientAlgorithm::admit_commodity`] /
//! [`GradientAlgorithm::evict_commodity`] from a deterministic,
//! seed-driven event process — a departed commodity's definition is
//! *parked* and may re-arrive later, so the long-run commodity set
//! keeps cycling without ever rebuilding the shared physical and
//! bandwidth layers. Determinism comes from the same splitmix-style
//! hash the chaos runtime uses (`crate::draws::unit_hash`):
//! a `(seed, decision index)` pair fully determines every coin, so two
//! processes with equal seeds replay the same event sequence.
//!
//! The process never evicts the last live commodity: an empty
//! commodity set has no meaningful iteration, and keeping one stream
//! alive mirrors how the soak experiments are run.

use crate::draws::unit_hash;
use spn_core::{CommodityDef, GradientAlgorithm};
use spn_model::CommodityId;

/// Tunables for a [`ChurnProcess`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Seed for every coin the process draws.
    pub seed: u64,
    /// Probability that a decision point re-admits a parked commodity
    /// (oldest first), when one is parked.
    pub arrival_probability: f64,
    /// Probability that a decision point evicts a live commodity
    /// (seed-chosen), when more than one is live.
    pub departure_probability: f64,
    /// Iterations between decision points (≥ 1).
    pub period: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0,
            arrival_probability: 0.25,
            departure_probability: 0.25,
            period: 10,
        }
    }
}

/// One reshape performed by the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A parked commodity re-entered as this id, at this iteration.
    Admitted {
        /// Iteration count when the reshape happened.
        iteration: usize,
        /// Id the commodity received on re-admission.
        id: CommodityId,
    },
    /// A live commodity left (its definition is parked), at this
    /// iteration.
    Departed {
        /// Iteration count when the reshape happened.
        iteration: usize,
        /// Id the commodity held when it was evicted.
        id: CommodityId,
    },
}

/// Summary of a [`ChurnProcess::run`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnReport {
    /// Iterations performed by this call.
    pub iterations: usize,
    /// Re-admissions performed.
    pub arrivals: usize,
    /// Evictions performed.
    pub departures: usize,
    /// Live commodities at the end of the call.
    pub live: usize,
    /// Parked commodity definitions at the end of the call.
    pub parked: usize,
    /// Total utility at the end of the call.
    pub utility: f64,
}

/// A gradient run under seeded commodity arrival/departure churn.
#[derive(Debug)]
pub struct ChurnProcess {
    alg: GradientAlgorithm,
    config: ChurnConfig,
    /// Definitions of departed commodities, oldest first.
    parked: Vec<CommodityDef>,
    /// Decision points drawn so far (the coin index).
    decisions: usize,
    events: Vec<ChurnEvent>,
}

impl ChurnProcess {
    /// Wraps a live algorithm in a churn process.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`, if their sum
    /// exceeds 1 (the coins partition a single unit draw), or if
    /// `period` is zero.
    #[must_use]
    pub fn new(alg: GradientAlgorithm, config: ChurnConfig) -> Self {
        let (a, d) = (config.arrival_probability, config.departure_probability);
        assert!(
            (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&d) && a + d <= 1.0,
            "churn probabilities must lie in [0, 1] and sum to at most 1, got {a} + {d}"
        );
        assert!(config.period > 0, "churn period must be at least 1");
        ChurnProcess {
            alg,
            config,
            parked: Vec::new(),
            decisions: 0,
            events: Vec::new(),
        }
    }

    /// Runs `iterations` steps, drawing one churn decision every
    /// `period` iterations.
    pub fn run(&mut self, iterations: usize) -> ChurnReport {
        let (mut arrivals, mut departures) = (0, 0);
        for i in 0..iterations {
            self.alg.step();
            if (i + 1) % self.config.period == 0 {
                match self.decide() {
                    Some(ChurnEvent::Admitted { .. }) => arrivals += 1,
                    Some(ChurnEvent::Departed { .. }) => departures += 1,
                    None => {}
                }
            }
        }
        ChurnReport {
            iterations,
            arrivals,
            departures,
            live: self.alg.extended().num_commodities(),
            parked: self.parked.len(),
            utility: self.alg.utility(),
        }
    }

    /// Draws one decision coin and applies the resulting reshape, if
    /// any. The unit draw is partitioned `[0, departure) → evict`,
    /// `[departure, departure + arrival) → re-admit`, rest → no-op;
    /// an evict with one live commodity or a re-admit with nothing
    /// parked falls through to a no-op.
    fn decide(&mut self) -> Option<ChurnEvent> {
        self.decisions += 1;
        let live = self.alg.extended().num_commodities();
        let coin = unit_hash(self.config.seed, self.decisions, live, self.parked.len());
        let iteration = self.alg.iterations();
        if coin < self.config.departure_probability {
            if live <= 1 {
                return None; // never evict the last live commodity
            }
            let pick = unit_hash(self.config.seed ^ 0xC0FF_EE00, self.decisions, live, 0);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let id = CommodityId::from_index((pick * live as f64) as usize % live);
            self.parked.push(self.alg.extended().commodity_def(id));
            self.alg.evict_commodity(id);
            let event = ChurnEvent::Departed { iteration, id };
            self.events.push(event);
            return Some(event);
        }
        if coin < self.config.departure_probability + self.config.arrival_probability
            && !self.parked.is_empty()
        {
            let def = self.parked.remove(0);
            let id = self.alg.admit_commodity(def);
            let event = ChurnEvent::Admitted { iteration, id };
            self.events.push(event);
            return Some(event);
        }
        None
    }

    /// The algorithm under churn.
    #[must_use]
    pub fn algorithm(&self) -> &GradientAlgorithm {
        &self.alg
    }

    /// Consumes the process, returning the algorithm.
    #[must_use]
    pub fn into_algorithm(self) -> GradientAlgorithm {
        self.alg
    }

    /// Every reshape performed so far, in order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Definitions currently parked (departed, awaiting re-admission).
    #[must_use]
    pub fn parked(&self) -> &[CommodityDef] {
        &self.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::GradientConfig;
    use spn_model::random::RandomInstance;

    fn algorithm() -> GradientAlgorithm {
        let instance = RandomInstance::builder()
            .nodes(20)
            .commodities(4)
            .seed(17)
            .build()
            .unwrap();
        GradientAlgorithm::new(
            &instance.problem,
            GradientConfig {
                eta: 0.2,
                ..GradientConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn same_seed_replays_the_same_trajectory() {
        let cfg = ChurnConfig {
            seed: 9,
            arrival_probability: 0.35,
            departure_probability: 0.35,
            period: 7,
        };
        let mut a = ChurnProcess::new(algorithm(), cfg);
        let mut b = ChurnProcess::new(algorithm(), cfg);
        let ra = a.run(400);
        let rb = b.run(400);
        assert_eq!(a.events(), b.events());
        assert!(ra.arrivals + ra.departures > 0, "no churn happened");
        assert_eq!(ra.utility.to_bits(), rb.utility.to_bits());
        assert_eq!(a.algorithm().routing(), b.algorithm().routing());
    }

    #[test]
    fn never_evicts_the_last_commodity_and_stays_finite() {
        let cfg = ChurnConfig {
            seed: 3,
            arrival_probability: 0.0,
            departure_probability: 1.0,
            period: 3,
        };
        let mut p = ChurnProcess::new(algorithm(), cfg);
        let report = p.run(120);
        assert_eq!(report.live, 1, "all but one commodity should depart");
        assert_eq!(report.departures, 3);
        assert_eq!(report.parked, 3);
        assert!(report.utility.is_finite());
    }

    #[test]
    fn zero_probability_churn_matches_a_plain_run() {
        let cfg = ChurnConfig {
            arrival_probability: 0.0,
            departure_probability: 0.0,
            ..ChurnConfig::default()
        };
        let mut p = ChurnProcess::new(algorithm(), cfg);
        let report = p.run(200);
        assert_eq!(report.arrivals + report.departures, 0);
        let mut plain = algorithm();
        plain.run(200);
        assert_eq!(report.utility.to_bits(), plain.utility().to_bits());
        assert_eq!(p.algorithm().routing(), plain.routing());
    }

    #[test]
    fn churned_run_keeps_iterating_after_reshapes() {
        let cfg = ChurnConfig {
            seed: 41,
            arrival_probability: 0.4,
            departure_probability: 0.4,
            period: 5,
        };
        let mut p = ChurnProcess::new(algorithm(), cfg);
        let report = p.run(500);
        assert!(report.utility.is_finite());
        assert!(report.live >= 1);
        assert_eq!(report.live + report.parked, 4, "commodities leaked");
        assert!(
            report.arrivals > 0 && report.departures > 0,
            "expected both event kinds: {report:?}"
        );
    }

    #[test]
    #[should_panic(expected = "churn probabilities")]
    fn rejects_overfull_probabilities() {
        let cfg = ChurnConfig {
            arrival_probability: 0.7,
            departure_probability: 0.7,
            ..ChurnConfig::default()
        };
        let _ = ChurnProcess::new(algorithm(), cfg);
    }
}
