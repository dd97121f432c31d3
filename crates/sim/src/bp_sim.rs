//! Message accounting for the back-pressure baseline.
//!
//! Back-pressure's per-iteration communication is trivial — "each node
//! simply exchanges the buffer levels with its neighboring nodes and
//! then makes the resource allocation decision locally … it takes just
//! `O(1)` number of message exchanges" — but the experiment harness
//! still needs the exact counts to put next to the gradient algorithm's.

use spn_baseline::{BackPressure, BackPressureConfig};
use spn_model::Problem;
use spn_transform::{EdgeKind, ExtendedNetwork};

/// Back-pressure with communication accounting.
#[derive(Clone, Debug)]
pub struct BackPressureSim {
    bp: BackPressure,
    messages_per_iteration: usize,
}

impl BackPressureSim {
    /// Builds the simulated baseline.
    #[must_use]
    pub fn new(problem: &Problem, config: BackPressureConfig) -> Self {
        let bp = BackPressure::new(problem, config);
        let messages_per_iteration = count_messages(bp.extended());
        BackPressureSim {
            bp,
            messages_per_iteration,
        }
    }

    /// Runs one round; back-pressure always costs one synchronous round
    /// and [`Self::messages_per_iteration`] messages.
    pub fn step(&mut self) {
        self.bp.step();
    }

    /// Messages exchanged per iteration: each node sends its buffer
    /// level for commodity `j` to the tail of every commodity-`j` link
    /// pointing at it (the upstream decision needs the downstream
    /// level).
    #[must_use]
    pub fn messages_per_iteration(&self) -> usize {
        self.messages_per_iteration
    }

    /// Rounds per iteration (always 1 — that is the point of the
    /// baseline).
    #[must_use]
    pub fn rounds_per_iteration(&self) -> usize {
        1
    }

    /// The wrapped algorithm.
    #[must_use]
    pub fn inner(&self) -> &BackPressure {
        &self.bp
    }
}

fn count_messages(ext: &ExtendedNetwork) -> usize {
    let mut messages = 0;
    for j in ext.commodity_ids() {
        for l in ext.graph().edges() {
            if ext.in_commodity(j, l)
                && matches!(ext.edge_kind(l), EdgeKind::Ingress(_) | EdgeKind::Egress(_))
            {
                messages += 1;
            }
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::random::RandomInstance;

    #[test]
    fn message_count_is_topology_constant() {
        let inst = RandomInstance::builder()
            .nodes(20)
            .commodities(2)
            .seed(3)
            .build()
            .unwrap();
        let mut sim = BackPressureSim::new(&inst.problem, BackPressureConfig::default());
        let m = sim.messages_per_iteration();
        assert!(m > 0);
        sim.step();
        sim.step();
        assert_eq!(sim.messages_per_iteration(), m);
        assert_eq!(sim.rounds_per_iteration(), 1);
        assert_eq!(sim.inner().iterations(), 2);
    }

    #[test]
    fn counts_only_real_commodity_edges() {
        // one commodity, one link: ingress + egress = 2 messages; the
        // two dummy links are not counted
        use spn_model::builder::ProblemBuilder;
        use spn_model::UtilityFn;
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let t = b.server(10.0);
        let e = b.link(s, t, 5.0);
        let j = b.commodity(s, t, 2.0, UtilityFn::throughput());
        b.uses(j, e, 1.0, 1.0);
        let sim = BackPressureSim::new(&b.build().unwrap(), BackPressureConfig::default());
        assert_eq!(sim.messages_per_iteration(), 2);
    }
}
