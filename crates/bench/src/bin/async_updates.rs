//! **E10 (extension) — asynchronous operation.**
//!
//! The paper's protocol is synchronous; a deployable system cannot be.
//! This experiment runs the same algorithm with only a fraction `p` of
//! the `(commodity, router)` pairs applying their Γ update each
//! iteration (a deterministic random schedule), plus a round-robin
//! schedule, and measures the cost of asynchrony two ways:
//!
//! * in *iterations* — an async run needs ~`1/p` times more;
//! * in *applied updates* — the true work measure, where degradation is
//!   mild (the algorithm is robust to stale decisions elsewhere).
//!
//! The runs are [`ChaosGradient`] with every fault off and only the
//! participation schedule set.
//!
//! Usage: `async_updates [seed] [iters]`

use spn_bench::{fmt_opt, lp_optimum, paper_instance};
use spn_core::GradientConfig;
use spn_sim::{ChaosConfig, ChaosGradient, Schedule};

fn run(
    problem: &spn_model::Problem,
    schedule: Schedule,
    iters: usize,
    optimum: f64,
) -> (Option<usize>, Option<usize>, f64, usize) {
    let chaos = ChaosConfig {
        participation: schedule,
        ..ChaosConfig::off()
    };
    let mut alg =
        ChaosGradient::new(problem, GradientConfig::default(), &chaos).expect("valid config");
    let mut it95_iters = None;
    let mut it95_updates = None;
    for i in 0..iters {
        alg.step().expect("no scheduled faults");
        if it95_iters.is_none() && alg.utility() >= 0.95 * optimum {
            it95_iters = Some(i + 1);
            it95_updates = Some(alg.updates_applied());
        }
    }
    (
        it95_iters,
        it95_updates,
        alg.utility(),
        alg.updates_applied(),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60_000);

    let problem = paper_instance(seed).scale_demand(3.0);
    let optimum = lp_optimum(&problem);
    println!("# async_updates: seed={seed} iters={iters} optimum={optimum:.6}");
    println!("schedule\tit95_iters\tit95_updates\tfinal_frac\ttotal_updates");
    let schedules: Vec<(String, Schedule)> = vec![
        ("sync".into(), Schedule::Synchronous),
        (
            "random_p0.5".into(),
            Schedule::Random {
                fraction: 0.5,
                seed: 7,
            },
        ),
        (
            "random_p0.25".into(),
            Schedule::Random {
                fraction: 0.25,
                seed: 7,
            },
        ),
        (
            "random_p0.1".into(),
            Schedule::Random {
                fraction: 0.1,
                seed: 7,
            },
        ),
        ("round_robin_4".into(), Schedule::RoundRobin { period: 4 }),
    ];
    for (name, schedule) in schedules {
        let (it_iters, it_updates, final_u, total) = run(&problem, schedule, iters, optimum);
        println!(
            "{name}\t{}\t{}\t{:.4}\t{total}",
            fmt_opt(it_iters),
            fmt_opt(it_updates),
            final_u / optimum
        );
    }
}
