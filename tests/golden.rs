//! Golden regression tests: every run in this workspace is
//! deterministic, so exact values pin down behavior. If an intentional
//! algorithm change shifts these numbers, update them *and* re-run the
//! experiment suite so EXPERIMENTS.md stays truthful.
//!
//! The pinned values are tied to the vendored deterministic PRNG (see
//! `vendor/rand`): random instances are a function of the seed *and*
//! that generator, so swapping the generator regenerates these anchors.
//!
//! Golden literals keep every digit of the measured value on purpose —
//! the tolerance in `close` is relative, and truncated anchors would
//! hide drift in the low bits.
#![allow(clippy::excessive_precision)]

use spn::baseline::{BackPressure, BackPressureConfig};
use spn::core::{GradientAlgorithm, GradientConfig};
use spn::model::random::RandomInstance;
use spn::solver::arcflow::solve_linear_utility;

fn close(actual: f64, golden: f64, what: &str) {
    assert!(
        (actual - golden).abs() <= 1e-6 * (1.0 + golden.abs()),
        "{what}: {actual} drifted from golden {golden}"
    );
}

/// The Figure 4 instance (seed 1, ×3 overload): LP optimum and the
/// gradient utility after exactly 2,000 iterations.
#[test]
fn golden_fig4_instance() {
    let problem = RandomInstance::builder()
        .seed(1)
        .build()
        .unwrap()
        .problem
        .scale_demand(3.0);
    let opt = solve_linear_utility(&problem).unwrap();
    close(opt.objective, 34.423_508_077_739_065, "lp optimum");

    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    let report = alg.run(2000);
    // regenerate with: cargo test --release golden -- --nocapture
    // (prints below on mismatch)
    let golden_utility = report.utility; // self-check structure first
    assert!(golden_utility > 0.0);
    eprintln!("gradient@2000 = {:.15}", report.utility);
    eprintln!("admitted = {:?}", report.admitted);
    close(
        report.utility,
        32.916_189_332_579_862,
        "gradient utility @2000",
    );
}

/// Instance generation is stable across releases: the seed-1 default
/// instance has a fixed shape and demand.
#[test]
fn golden_instance_shape() {
    let p = RandomInstance::builder().seed(1).build().unwrap().problem;
    assert_eq!(p.graph().node_count(), 40);
    assert_eq!(p.graph().edge_count(), 46);
    assert_eq!(p.num_commodities(), 3);
    close(p.total_demand(), 105.602_703_834_668_01, "total demand");
}

/// Back-pressure determinism anchor (default config, 1,000 rounds).
#[test]
fn golden_back_pressure() {
    let p = RandomInstance::builder().seed(1).build().unwrap().problem;
    let mut bp = BackPressure::new(&p, BackPressureConfig::default());
    let r = bp.run(1000);
    eprintln!(
        "bp@1000 utility = {:.15}, queued = {:.15}",
        r.utility, r.total_queued
    );
    close(
        r.utility,
        26.951_113_692_138_598,
        "bp windowed utility @1000",
    );
}
