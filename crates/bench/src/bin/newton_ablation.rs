//! **E12 (extension) — step-rule ablation: fixed η vs Newton scaling.**
//!
//! Gallager's minimum-delay paper (the basis of §5) notes that step
//! sizes should relate to the objective's second derivatives. This
//! experiment compares the paper's fixed-η rule against the
//! curvature-scaled rule of `spn_core::newton` on the Figure 4
//! instance, at several damping levels.
//!
//! Usage: `newton_ablation [seed] [iters]`

use spn_bench::{fmt_opt, lp_optimum, paper_instance};
use spn_core::{GradientAlgorithm, GradientConfig, NewtonGradient};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12_000);

    let problem = paper_instance(seed).scale_demand(3.0);
    let optimum = lp_optimum(&problem);
    println!("# newton_ablation: seed={seed} iters={iters} optimum={optimum:.6}");
    println!("rule\tit90\tit95\tfinal_frac\tmax_util");

    for eta in [0.02, 0.04, 0.08] {
        let cfg = GradientConfig {
            eta,
            ..GradientConfig::default()
        };
        let mut alg = GradientAlgorithm::new(&problem, cfg).expect("valid");
        let (mut it90, mut it95) = (None, None);
        for i in 0..iters {
            alg.step();
            let u = alg.report().utility;
            if it90.is_none() && u >= 0.90 * optimum {
                it90 = Some(i + 1);
            }
            if it95.is_none() && u >= 0.95 * optimum {
                it95 = Some(i + 1);
            }
        }
        let r = alg.report();
        println!(
            "fixed_eta={eta}\t{}\t{}\t{:.4}\t{:.4}",
            fmt_opt(it90),
            fmt_opt(it95),
            r.utility / optimum,
            r.max_utilization
        );
    }

    for (damping, floor) in [
        (0.1, 1e-6),
        (0.3, 1e-6),
        (0.3, 1e-3),
        (0.3, 1e-2),
        (1.0, 1e-3),
    ] {
        let cfg = GradientConfig {
            eta: damping,
            ..GradientConfig::default()
        };
        let mut alg = NewtonGradient::new(&problem, cfg, floor).expect("valid");
        let (mut it90, mut it95) = (None, None);
        for i in 0..iters {
            alg.step();
            let u = alg.utility();
            if it90.is_none() && u >= 0.90 * optimum {
                it90 = Some(i + 1);
            }
            if it95.is_none() && u >= 0.95 * optimum {
                it95 = Some(i + 1);
            }
        }
        let r = alg.report();
        println!(
            "newton_damping={damping}_floor={floor}\t{}\t{}\t{:.4}\t{:.4}",
            fmt_opt(it90),
            fmt_opt(it95),
            r.utility / optimum,
            r.max_utilization
        );
    }
}
