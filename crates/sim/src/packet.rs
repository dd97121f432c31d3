//! Packet-level (discrete-time, queued) execution of a fluid solution.
//!
//! The gradient algorithm reasons about a *fluid* model: flows are
//! continuous rates and capacity constraints hold instantaneously. A
//! real stream processing system sees discrete batches arriving
//! burstily and buffers them in queues. This module closes that gap: it
//! takes a converged routing decision, derives each node's
//! resource-allocation *shares* from the fluid flows (eq. (4)), and
//! executes them in discrete time with work-conserving service —
//! a backlogged node spends its full budget in the fluid proportions.
//!
//! What this validates (experiment E14):
//!
//! * the fluid solution is *implementable*: with utilization strictly
//!   below 1 (exactly what the penalty's headroom guarantees), queues
//!   stay bounded under bursty arrivals and the delivered goodput
//!   matches the fluid prediction `a_j · g_j(sink)`;
//! * the paper's headroom argument becomes measurable: smaller ε →
//!   higher utilization → visibly larger queues and delays
//!   (`queue ∝ 1/(1 − ρ)` in the classical way).

use spn_core::{FlowState, RoutingTable};
use spn_model::CommodityId;
use spn_transform::{EdgeKind, ExtendedNetwork};

/// Configuration of the packet-level executor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketConfig {
    /// Multiplicative arrival burstiness amplitude in `[0, 1)`: each
    /// tick's injection is `a_j·(1 + amplitude·n_t)` with `n_t` an AR(1)
    /// noise in `[-1, 1]`.
    pub amplitude: f64,
    /// Correlation time (ticks) of the arrival noise.
    pub correlation: f64,
    /// Noise seed.
    pub seed: u64,
}

impl Default for PacketConfig {
    /// 30% bursts with a 50-tick correlation time.
    fn default() -> Self {
        PacketConfig {
            amplitude: 0.3,
            correlation: 50.0,
            seed: 1,
        }
    }
}

/// One (commodity, edge) service entry at a node.
#[derive(Clone, Debug)]
struct ServiceEntry {
    j: CommodityId,
    edge: spn_graph::EdgeId,
    /// Fluid input-rate through this entry (units/tick).
    rate: f64,
    /// Maximum input-rate when the node is backlogged (full budget in
    /// fluid proportions).
    surge_rate: f64,
    beta: f64,
    to: spn_graph::NodeId,
}

/// The discrete-time executor.
#[derive(Clone, Debug)]
pub struct PacketSim {
    ext: ExtendedNetwork,
    config: PacketConfig,
    /// `queue[j][v]` — buffered input units at extended node `v`.
    queue: Vec<Vec<f64>>,
    /// Per-node service lists.
    service: Vec<Vec<ServiceEntry>>,
    /// Fluid admitted rates `a_j`.
    admitted: Vec<f64>,
    /// Source-to-sink gains.
    sink_gain: Vec<f64>,
    /// AR(1) noise state per commodity.
    ou: Vec<f64>,
    delivered: Vec<f64>,
    injected: Vec<f64>,
    ticks: usize,
}

fn unit_noise(seed: u64, tick: usize, j: usize) -> f64 {
    let mut x = seed
        ^ (tick as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

impl PacketSim {
    /// Builds the executor from a converged fluid solution.
    ///
    /// `routing` and `flows` must belong to `ext` (e.g. taken from a
    /// [`spn_core::GradientAlgorithm`] after convergence).
    #[must_use]
    pub fn new(
        ext: ExtendedNetwork,
        routing: &RoutingTable,
        flows: &FlowState,
        config: PacketConfig,
    ) -> Self {
        let v_count = ext.graph().node_count();
        let j_count = ext.num_commodities();
        let mut service: Vec<Vec<ServiceEntry>> = vec![Vec::new(); v_count];
        for v in ext.graph().nodes() {
            let cap = ext.capacity(v);
            if cap.is_infinite() {
                continue;
            }
            let f_v = flows.node_usage(v);
            // work-conserving surge: scale all shares so the node can
            // spend its whole budget in fluid proportions
            let surge = if f_v > 0.0 { cap.value() / f_v } else { 0.0 };
            for j in ext.commodity_ids() {
                for l in ext.commodity_out_edges(j, v) {
                    if !matches!(ext.edge_kind(l), EdgeKind::Ingress(_) | EdgeKind::Egress(_)) {
                        continue;
                    }
                    let rate = flows.traffic(&ext, j, v) * routing.fraction(j, l);
                    if rate <= 0.0 {
                        continue;
                    }
                    service[v.index()].push(ServiceEntry {
                        j,
                        edge: l,
                        rate,
                        surge_rate: rate * surge,
                        beta: ext.beta(j, l),
                        to: ext.graph().target(l),
                    });
                }
            }
        }
        let admitted: Vec<f64> = ext
            .commodity_ids()
            .map(|j| flows.admitted(&ext, j))
            .collect();
        let sink_gain: Vec<f64> = ext
            .commodity_ids()
            .map(|j| {
                let sink = ext.commodity(j).sink();
                let source = ext.commodity(j).source();
                // delivered/admitted ratio from the fluid state (robust
                // to zero-admission commodities)
                let d = flows.delivered(&ext, j);
                let a = flows.admitted(&ext, j);
                if a > 1e-12 {
                    d / a
                } else {
                    let _ = (sink, source);
                    1.0
                }
            })
            .collect();
        PacketSim {
            config,
            queue: vec![vec![0.0; v_count]; j_count],
            service,
            admitted,
            sink_gain,
            ou: vec![0.0; j_count],
            delivered: vec![0.0; j_count],
            injected: vec![0.0; j_count],
            ticks: 0,
            ext,
        }
    }

    /// Executes one tick: bursty injection, work-conserving service in
    /// fluid proportions, sink drain.
    pub fn tick(&mut self) {
        let rho = (-1.0 / self.config.correlation).exp();
        let fresh = (1.0 - rho * rho).sqrt();
        // injection at sources
        for j in self.ext.commodity_ids() {
            let ji = j.index();
            self.ou[ji] = rho * self.ou[ji] + fresh * unit_noise(self.config.seed, self.ticks, ji);
            let burst = (1.0 + self.config.amplitude * self.ou[ji].clamp(-1.0, 1.0)).max(0.0);
            let amount = self.admitted[ji] * burst;
            let source = self.ext.commodity(j).source();
            self.queue[ji][source.index()] += amount;
            self.injected[ji] += amount;
        }
        // service, all nodes against the same snapshot; each node's
        // per-commodity queue is split across its out-edges in the
        // *fluid proportions* (the routing fractions), capped by the
        // work-conserving surge rate, so the split φ is preserved even
        // when backlogged
        let snapshot = self.queue.clone();
        for v in self.ext.graph().nodes() {
            let entries = &self.service[v.index()];
            // total fluid rate per commodity at this node
            let mut totals = vec![0.0f64; self.ext.num_commodities()];
            for entry in entries {
                totals[entry.j.index()] += entry.rate;
            }
            for entry in entries {
                let ji = entry.j.index();
                let total = totals[ji];
                if total <= 0.0 {
                    continue;
                }
                let share = entry.rate / total;
                let q = snapshot[ji][v.index()];
                let served = (q * share).min(entry.surge_rate.max(entry.rate));
                if served <= 0.0 {
                    continue;
                }
                self.queue[ji][v.index()] -= served;
                self.queue[ji][entry.to.index()] += served * entry.beta;
                let _ = entry.edge;
            }
        }
        // sinks drain
        for j in self.ext.commodity_ids() {
            let ji = j.index();
            let sink = self.ext.commodity(j).sink();
            self.delivered[ji] += self.queue[ji][sink.index()];
            self.queue[ji][sink.index()] = 0.0;
        }
        self.ticks += 1;
    }

    /// Runs `ticks` steps.
    pub fn run(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// Mean delivered rate of commodity `j`, converted to source units
    /// (comparable with the fluid `a_j`).
    #[must_use]
    pub fn delivered_rate(&self, j: CommodityId) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.delivered[j.index()] / self.sink_gain[j.index()].max(1e-12) / self.ticks as f64
    }

    /// Mean injection rate of commodity `j` (source units).
    #[must_use]
    pub fn injected_rate(&self, j: CommodityId) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.injected[j.index()] / self.ticks as f64
    }

    /// Total buffered data across all queues right now.
    #[must_use]
    pub fn total_queued(&self) -> f64 {
        self.queue.iter().flatten().sum()
    }

    /// The largest single queue right now.
    #[must_use]
    pub fn max_queue(&self) -> f64 {
        self.queue.iter().flatten().copied().fold(0.0, f64::max)
    }

    /// Mean end-to-end backlog delay estimate via Little's law:
    /// total queued / total injection rate (ticks).
    #[must_use]
    pub fn backlog_delay(&self) -> f64 {
        let rate: f64 = (0..self.admitted.len())
            .map(|ji| self.injected[ji] / self.ticks.max(1) as f64)
            .sum();
        if rate > 0.0 {
            self.total_queued() / rate
        } else {
            0.0
        }
    }

    /// Ticks executed.
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::{GradientAlgorithm, GradientConfig};
    use spn_model::random::RandomInstance;

    fn converged(seed: u64) -> GradientAlgorithm {
        let p = RandomInstance::builder()
            .nodes(18)
            .commodities(2)
            .seed(seed)
            .build()
            .unwrap()
            .problem
            .scale_demand(2.0);
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(4000);
        alg
    }

    fn sim_from(alg: &GradientAlgorithm, config: PacketConfig) -> PacketSim {
        PacketSim::new(alg.extended().clone(), alg.routing(), alg.flows(), config)
    }

    #[test]
    fn smooth_arrivals_deliver_the_fluid_rates() {
        let alg = converged(3);
        let mut sim = sim_from(
            &alg,
            PacketConfig {
                amplitude: 0.0,
                ..Default::default()
            },
        );
        sim.run(5000);
        let r = alg.report();
        for j in alg.extended().commodity_ids() {
            let fluid = r.admitted[j.index()];
            let packet = sim.delivered_rate(j);
            assert!(
                (packet - fluid).abs() < 0.05 * (1.0 + fluid),
                "{j}: packet {packet} vs fluid {fluid}"
            );
        }
    }

    #[test]
    fn bursty_arrivals_keep_queues_bounded() {
        let alg = converged(3);
        let mut sim = sim_from(
            &alg,
            PacketConfig {
                amplitude: 0.3,
                ..Default::default()
            },
        );
        sim.run(10_000);
        let q1 = sim.total_queued();
        sim.run(10_000);
        let q2 = sim.total_queued();
        // bounded: no sustained growth between epochs
        assert!(
            q2 < q1 * 2.0 + 50.0,
            "queues grow without bound: {q1} -> {q2}"
        );
        // goodput still matches fluid within a few percent
        let r = alg.report();
        for j in alg.extended().commodity_ids() {
            let fluid = r.admitted[j.index()];
            assert!(
                sim.delivered_rate(j) > 0.9 * fluid,
                "{j}: delivered {} of fluid {fluid}",
                sim.delivered_rate(j)
            );
        }
    }

    #[test]
    fn delay_estimate_is_finite_and_positive_under_bursts() {
        let alg = converged(5);
        let mut sim = sim_from(
            &alg,
            PacketConfig {
                amplitude: 0.5,
                ..Default::default()
            },
        );
        sim.run(8000);
        let d = sim.backlog_delay();
        assert!(d.is_finite());
        assert!(d >= 0.0);
        assert!(sim.max_queue() >= 0.0);
        assert_eq!(sim.ticks(), 8000);
    }

    #[test]
    fn zero_ticks_reports_zero() {
        let alg = converged(3);
        let sim = sim_from(&alg, PacketConfig::default());
        assert_eq!(
            sim.delivered_rate(spn_model::CommodityId::from_index(0)),
            0.0
        );
        assert_eq!(sim.total_queued(), 0.0);
    }
}
