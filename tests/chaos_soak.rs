//! Chaos soak — the acceptance gate of the fault-injection runtime.
//!
//! One seeded [`spn::sim::ChaosConfig`] layers message loss, bounded
//! staleness, duplicated Γ updates, capacity jitter, and two transient
//! node failures over the gradient iteration. The soak asserts the
//! three robustness claims end to end:
//!
//! 1. **No NaN/Inf ever enters the iteration state** — the watchdog's
//!    non-finite counter stays zero and the final state scans clean.
//! 2. **Every injected incident is reported, none panics** — each
//!    scheduled fault shows up in the incident log as failed *and*
//!    restored, at the scheduled clocks.
//! 3. **Utility recovers** — after the restorations, the run's
//!    tail-mean utility is ≥95% of what the same iteration achieves
//!    under the same message noise without the failures.

use spn::core::{CoreError, GradientConfig};
use spn::model::random::RandomInstance;
use spn::sim::{ChaosConfig, ChaosGradient, ChaosIncident, FaultTarget, ScheduledFault};
use spn::transform::NodeKind;

const ITERS: usize = 2500;

fn problem() -> spn::model::Problem {
    RandomInstance::builder()
        .nodes(16)
        .commodities(2)
        .seed(4)
        .build()
        .unwrap()
        .problem
}

fn config() -> GradientConfig {
    GradientConfig {
        eta: 0.2,
        ..GradientConfig::default()
    }
}

/// Two intermediate processing nodes (never a commodity source/sink).
fn victims(run: &ChaosGradient) -> (spn::graph::NodeId, spn::graph::NodeId) {
    let ext = run.extended();
    let mut picks = ext.graph().nodes().filter(|&v| {
        matches!(ext.node_kind(v), NodeKind::Processing(_))
            && ext
                .commodity_ids()
                .all(|j| v != ext.commodity(j).source() && v != ext.commodity(j).sink())
    });
    let a = picks.next().expect("an intermediate node");
    let b = picks.next().expect("a second intermediate node");
    (a, b)
}

fn noise() -> ChaosConfig {
    ChaosConfig {
        seed: 0x50A4_50A4,
        message_loss: 0.05,
        stale_prob: 0.15,
        max_staleness: 3,
        duplicate_prob: 0.02,
        checkpoint_interval: 100,
        ..ChaosConfig::off()
    }
}

#[test]
fn seeded_chaos_soak_recovers_and_reports_every_incident() {
    let p = problem();
    let cfg = config();

    let probe = ChaosGradient::new(&p, cfg, &ChaosConfig::off()).unwrap();
    let (v1, v2) = victims(&probe);

    let faults = vec![
        ScheduledFault {
            at: 400,
            duration: 300,
            target: FaultTarget::Node(v1),
        },
        ScheduledFault {
            at: 550,
            duration: 300,
            target: FaultTarget::Node(v2),
        },
    ];
    let chaos = ChaosConfig {
        faults: faults.clone(),
        ..noise()
    };

    // Noise-only comparator: same seed, same loss/staleness, no faults.
    let mut baseline = ChaosGradient::new(&p, cfg, &noise()).unwrap();
    let mut run = ChaosGradient::new(&p, cfg, &chaos).unwrap();
    let tail_start = ITERS - ITERS / 10;
    let (mut base_tail, mut run_tail) = (0.0, 0.0);
    for i in 0..ITERS {
        baseline.step().expect("noise-only step cannot fail");
        run.step().expect("soak step must not error");
        // claim 1, continuously: the trajectory never goes non-finite
        assert!(run.utility().is_finite(), "utility non-finite at step {i}");
        if i >= tail_start {
            base_tail += baseline.utility();
            run_tail += run.utility();
        }
    }

    // claim 1: nothing non-finite was ever observed, and the final
    // state itself scans clean
    assert_eq!(run.watchdog().non_finite_total(), 0);
    run.watchdog()
        .preflight(
            run.iterations(),
            run.flows(),
            run.marginals(),
            run.routing(),
        )
        .expect("final state is finite");

    // claim 2: every scheduled fault is in the log, failed and restored
    for f in &faults {
        let FaultTarget::Node(node) = f.target else {
            unreachable!()
        };
        assert!(
            run.incidents()
                .contains(&ChaosIncident::NodeFailed { clock: f.at, node }),
            "fault at {} not reported as failed",
            f.at
        );
        assert!(
            run.incidents().contains(&ChaosIncident::NodeRestored {
                clock: f.at + f.duration,
                node
            }),
            "fault at {} not reported as restored",
            f.at
        );
    }
    // ... and the environment is actually healed
    assert_eq!(
        run.extended().capacity(v1).value(),
        probe.extended().capacity(v1).value()
    );
    assert_eq!(
        run.extended().capacity(v2).value(),
        probe.extended().capacity(v2).value()
    );

    // claim 3: tail-mean utility within 95% of the noise-only run
    assert!(
        run_tail >= 0.95 * base_tail,
        "post-fault tail {run_tail} below 95% of noise-only tail {base_tail}"
    );
    // routing is still a valid, loop-free decision
    run.routing().validate(run.extended()).unwrap();
    assert!(run.routing().is_loop_free(run.extended()));
}

#[test]
fn corruption_mid_soak_is_rolled_back_not_panicked() {
    let p = problem();
    let mut run = ChaosGradient::new(&p, config(), &noise()).unwrap();
    for _ in 0..500 {
        run.step().unwrap();
    }
    let healthy = run.utility();
    // poison a marginal the commodity actually holds (its source's)
    let ext = run.extended().clone();
    let j = spn::model::CommodityId::from_index(0);
    run.received_mut()
        .set_node(&ext, j, ext.commodity(j).source(), f64::NAN);
    let outcome = run.step().expect("corruption is recoverable");
    assert!(outcome.rolled_back);
    assert!(run
        .incidents()
        .iter()
        .any(|i| matches!(i, ChaosIncident::Corruption { .. })));
    assert!(run
        .incidents()
        .iter()
        .any(|i| matches!(i, ChaosIncident::RolledBack { .. })));
    // the NaN was caught before the (later-observed) state was polluted
    assert_eq!(run.watchdog().non_finite_total(), 0);
    for _ in 0..200 {
        run.step().unwrap();
    }
    assert!(run.utility().is_finite());
    assert!(run.utility() > 0.5 * healthy);
}

#[test]
fn chaos_errors_are_values_not_panics() {
    let p = problem();
    let probe = ChaosGradient::new(&p, config(), &ChaosConfig::off()).unwrap();
    let dummy = probe
        .extended()
        .dummy_source(spn::model::CommodityId::from_index(0));
    let bad = ChaosConfig {
        faults: vec![ScheduledFault {
            at: 0,
            duration: 0,
            target: FaultTarget::Node(dummy),
        }],
        ..ChaosConfig::off()
    };
    let mut run = ChaosGradient::new(&p, config(), &bad).unwrap();
    let err = run.step().expect_err("dummy target must be rejected");
    assert_eq!(err, CoreError::NotProcessingNode { node: dummy });
    // the error formats a human-readable message via std::error::Error
    let msg = err.to_string();
    assert!(msg.contains("not a physical processing node"), "{msg}");
}
