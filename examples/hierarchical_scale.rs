//! End-to-end run at datacenter scale: generate a hierarchical
//! (regions × racks × servers) instance, converge the sparse-by-default
//! gradient engine with the oscillation-aware stopping rule, then churn
//! a tenant — park it, let the survivors re-settle, and re-admit it —
//! reporting system utility at each stage.
//!
//! This is the scale-tier workflow in miniature: the same generator,
//! engine defaults, and stopping rule the 10k-node CI gate
//! (`scale_smoke`) and the benchmark's 50k-node `scale_steady` workload
//! use, at a size that finishes in seconds.
//!
//! Run with: `cargo run --release --example hierarchical_scale`

use spn::core::{GradientAlgorithm, GradientConfig, StableOutcome};
use spn::model::hierarchy::HierarchicalInstance;
use spn::model::CommodityId;

/// Human-readable reason a windowed run stopped.
fn describe(outcome: &StableOutcome, cap: usize) -> &'static str {
    if outcome.converged {
        "tolerance met"
    } else if outcome.iterations < cap {
        "shift norm plateaued"
    } else {
        "iteration cap"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 4 regions × 10 racks × 25 servers = 1,000 physical nodes, with
    // 8 tenant commodities whose sources and sinks respect locality.
    // The seed makes every run identical.
    let instance = HierarchicalInstance::builder()
        .regions(4)
        .racks_per_region(10)
        .servers_per_rack(25)
        .commodities(8)
        .seed(42)
        .build()?;
    // Moderate demand so the routing genuinely settles instead of
    // saturating every bottleneck.
    let problem = instance.problem.scale_demand(0.2);
    println!(
        "instance: {} nodes ({} regions x {} racks x {} servers), {} tenants",
        instance.config.total_nodes(),
        instance.config.regions,
        instance.config.racks_per_region,
        instance.config.servers_per_rack,
        problem.num_commodities(),
    );

    // Every sweep of the step walks only the arcs that carry a nonzero
    // routing fraction.
    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default())?;

    // The windowed rule stops either on genuine convergence (total
    // routing shift under tolerance) or when the shift norm stops
    // improving for a full window — the limit-cycle regime a plain
    // tolerance check would spin in until the cap.
    const WINDOW: usize = 1000;
    const CAP: usize = 20_000;
    let outcome = alg.run_until_stable_windowed(1e-3, WINDOW, CAP);
    let report = alg.report();
    println!(
        "settled after {} iterations ({}): utility {:.3}, max utilization {:.1}%",
        outcome.iterations,
        describe(&outcome, CAP),
        report.utility,
        100.0 * report.max_utilization,
    );
    let full_utility = report.utility;

    // A tenant departs: park its definition, evict it from the live
    // run, and let the survivors re-settle. No rebuild — the engine
    // reshapes its own state.
    let departing = CommodityId::from_index(problem.num_commodities() - 1);
    let parked = alg.extended().commodity_def(departing);
    alg.evict_commodity(departing);
    let outcome = alg.run_until_stable_windowed(1e-3, WINDOW, CAP);
    let report = alg.report();
    println!(
        "tenant {departing} parked: re-settled in {} iterations ({}), utility {:.3}",
        outcome.iterations,
        describe(&outcome, CAP),
        report.utility,
    );

    // The tenant returns. Online admission restores the commodity and
    // settles it against the other tenants' load before the first step
    // (the admission phase); the gradient takes it from there.
    let returned = alg.admit_commodity(parked);
    let outcome = alg.run_until_stable_windowed(1e-3, WINDOW, CAP);
    let report = alg.report();
    println!(
        "tenant {returned} re-admitted: re-settled in {} iterations ({}), utility {:.3}",
        outcome.iterations,
        describe(&outcome, CAP),
        report.utility,
    );

    let recovered = report.utility / full_utility;
    println!(
        "utility recovered to {:.1}% of the pre-churn level",
        100.0 * recovered,
    );
    if recovered < 0.99 {
        return Err(format!("utility did not recover: {recovered:.4}").into());
    }
    Ok(())
}
