//! Property-based tests for the simulator crate.

use proptest::prelude::*;
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_model::random::RandomInstance;
use spn_model::Problem;
use spn_sim::{ChaosConfig, ChaosGradient, GradientSim, PacketConfig, PacketSim, Schedule};

fn instance(seed: u64) -> Problem {
    RandomInstance::builder()
        .nodes(14)
        .commodities(2)
        .seed(seed)
        .build()
        .expect("valid instance")
        .problem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Message-level execution matches the in-process driver for any
    /// seed and iteration count.
    #[test]
    fn sim_matches_core(seed in 0u64..25, iters in 1usize..60) {
        let p = instance(seed);
        let cfg = GradientConfig::default();
        let mut sim = GradientSim::new(&p, cfg).unwrap();
        let mut alg = GradientAlgorithm::new(&p, cfg).unwrap();
        for _ in 0..iters {
            sim.step();
            alg.step();
        }
        let (a, b) = (sim.utility(), alg.report().utility);
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
    }

    /// Wave accounting is stable: message counts per iteration are
    /// topology-determined for the marginal wave, and rounds are
    /// positive and bounded by the node count.
    #[test]
    fn wave_accounting_bounded(seed in 0u64..25) {
        let p = instance(seed);
        let mut sim = GradientSim::new(&p, GradientConfig::default()).unwrap();
        let s1 = sim.step();
        let s2 = sim.step();
        prop_assert_eq!(s1.marginal.messages, s2.marginal.messages);
        prop_assert!(s1.rounds() > 0);
        // rounds bounded by twice the extended node count (two waves)
        prop_assert!(s1.rounds() <= 2 * sim.extended().graph().node_count());
    }

    /// Any schedule keeps the routing table valid and loop-free.
    #[test]
    fn schedules_preserve_invariants(
        seed in 0u64..20,
        fraction in 0.05f64..1.0,
        iters in 10usize..200,
    ) {
        let p = instance(seed);
        let cfg = GradientConfig::default();
        let chaos = ChaosConfig {
            participation: Schedule::Random { fraction, seed },
            ..ChaosConfig::off()
        };
        let mut alg = ChaosGradient::new(&p, cfg, &chaos).unwrap();
        for _ in 0..iters {
            alg.step().unwrap();
        }
        alg.routing().validate(alg.extended()).unwrap();
        prop_assert!(alg.routing().is_loop_free(alg.extended()));
        prop_assert!(alg.utility() >= 0.0);
        prop_assert!(alg.updates_applied() <= iters * 3 * alg.extended().graph().node_count());
    }

    /// Packet execution conserves data: cumulative deliveries (in
    /// source units) never exceed cumulative injections, and queues are
    /// non-negative.
    #[test]
    fn packet_execution_conserves(seed in 0u64..15, amplitude in 0.0f64..0.6) {
        let p = instance(seed);
        let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
        alg.run(1500);
        let mut sim = PacketSim::new(
            alg.extended().clone(),
            alg.routing(),
            alg.flows(),
            PacketConfig { amplitude, correlation: 20.0, seed },
        );
        sim.run(3000);
        for j in alg.extended().commodity_ids() {
            let delivered = sim.delivered_rate(j) * sim.ticks() as f64;
            let injected = sim.injected_rate(j) * sim.ticks() as f64;
            prop_assert!(
                delivered <= injected + 1e-6 * (1.0 + injected),
                "{j}: delivered {delivered} > injected {injected}"
            );
        }
        prop_assert!(sim.total_queued() >= -1e-9);
        prop_assert!(sim.max_queue() >= 0.0);
    }
}
