//! **E3 — penalty weight ε sweep** (§3 prose: the penalty yields "a
//! solution that is nearly the optimal solution … A penalty function may
//! also prevent a node resource from being completely allocated. In
//! practice, such remaining capacity could be used to better accommodate
//! changing demands, or for faster recovery in the case of node or link
//! failures.")
//!
//! Rows: ε, final fraction of the LP optimum, the *headroom* the penalty
//! preserves (1 − max utilization), worst dip. Larger ε trades utility
//! for headroom — exactly the tradeoff the paper describes. ε is a
//! constant of each run, as in the paper.
//!
//! Usage: `eps_sweep [seed] [iters]`

use spn_bench::{fmt_opt, lp_optimum, paper_instance, run_gradient};
use spn_core::GradientConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12_000);

    let problem = paper_instance(seed).scale_demand(3.0); // overloaded, as in fig4
    let optimum = lp_optimum(&problem);
    println!("# eps_sweep: seed={seed} iters={iters} optimum={optimum:.6}");
    println!("epsilon\tit95\tfinal_frac\theadroom\tmax_dip");
    for epsilon in [0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005] {
        let cfg = GradientConfig {
            epsilon,
            ..GradientConfig::default()
        };
        let s = run_gradient(&problem, cfg, iters, optimum);
        println!(
            "{epsilon}\t{}\t{:.4}\t{:.4}\t{:.4}",
            fmt_opt(s.it95),
            s.final_utility / optimum,
            1.0 - s.max_utilization,
            s.max_dip
        );
    }
}
