//! Failure drill: converge on a random network, kill the hottest
//! intermediate server, and watch the distributed algorithm reroute and
//! re-admit — the recovery §3 of the paper says penalty headroom buys.
//!
//! Run with: `cargo run --release --example failure_drill`

use spn::core::GradientConfig;
use spn::model::random::RandomInstance;
use spn::sim::failure::fail_node;
use spn::sim::GradientSim;
use spn::transform::NodeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = RandomInstance::builder()
        .nodes(30)
        .commodities(2)
        .seed(21)
        .build()?
        .problem
        .scale_demand(2.0);

    let mut sim = GradientSim::new(&problem, GradientConfig::default())?;
    for _ in 0..6000 {
        sim.step();
    }
    let before = sim.utility();
    println!("converged: utility {before:.3} after 6000 iterations");
    println!(
        "protocol cost so far: {} messages over {} rounds",
        sim.total_messages(),
        sim.total_rounds()
    );

    // Pick the busiest intermediate processing server.
    let ext = sim.extended();
    let victim = ext
        .graph()
        .nodes()
        .filter(|&v| {
            matches!(ext.node_kind(v), NodeKind::Processing(_))
                && ext
                    .commodity_ids()
                    .all(|j| v != ext.commodity(j).source() && v != ext.commodity(j).sink())
        })
        .max_by(|&a, &b| {
            sim.flows()
                .node_usage(a)
                .total_cmp(&sim.flows().node_usage(b))
        })
        .expect("network has intermediate servers");
    let victim_load = sim.flows().node_usage(victim);
    println!("\nfailing server {victim} (load {victim_load:.2}) ...");
    fail_node(sim.extended_mut(), victim)?;

    let mut trough = before;
    for burst in [50usize, 200, 750, 3000] {
        for _ in 0..burst {
            sim.step();
            trough = trough.min(sim.utility());
        }
        println!(
            "  +{:>4} iterations: utility {:.3} ({:.1}% of pre-failure), victim load {:.4}",
            burst,
            sim.utility(),
            100.0 * sim.utility() / before,
            sim.flows().node_usage(victim)
        );
    }
    println!(
        "\ntrough was {:.1}% of pre-failure utility; traffic now routes around",
        100.0 * trough / before
    );
    println!("the dead server with no structural reconfiguration.");
    Ok(())
}
