//! Shared experiment plumbing for the `spn-bench` binaries.
//!
//! Every binary regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results). Output is TSV on
//! stdout with `#`-prefixed metadata lines so runs can be piped
//! straight into plotting tools.

pub mod svg;

use spn_core::{GradientAlgorithm, GradientConfig};
use spn_model::random::{RandomInstance, RandomInstanceConfig};
use spn_model::Problem;
use spn_solver::arcflow::solve_linear_utility;

/// The paper's evaluation instance family: 40 nodes, 3 commodities,
/// capacities `U[1,100]`, gains `U[1,10]`, costs `U[1,5]`.
#[must_use]
pub fn paper_instance(seed: u64) -> Problem {
    RandomInstance::builder()
        .seed(seed)
        .build()
        .expect("default configuration always yields a valid instance")
        .problem
}

/// A smaller instance for fast sweeps.
#[must_use]
pub fn small_instance(seed: u64, nodes: usize, commodities: usize) -> Problem {
    RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()
        .expect("valid instance")
        .problem
}

/// A layered instance with controlled pipeline depth (for the
/// message-cost experiment).
#[must_use]
pub fn layered_instance(seed: u64, depth: usize, commodities: usize) -> Problem {
    let nodes = (commodities + 1 + depth * 2 + commodities).max(12);
    RandomInstance::generate(RandomInstanceConfig {
        nodes,
        commodities,
        seed,
        stages: depth..=depth,
        width: 2..=2,
        ..RandomInstanceConfig::default()
    })
    .expect("valid layered instance")
    .problem
}

/// The LP optimum of a linear-utility instance (the Figure 4 reference
/// line).
///
/// # Panics
///
/// Panics if the instance's utilities are not linear.
#[must_use]
pub fn lp_optimum(problem: &Problem) -> f64 {
    solve_linear_utility(problem)
        .expect("linear-utility instance solves")
        .objective
}

/// Result of tracking one algorithm run against a reference optimum.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Utility at each recorded iteration.
    pub utilities: Vec<f64>,
    /// First feasible iteration reaching 90% of the reference.
    pub it90: Option<usize>,
    /// First feasible iteration reaching 95% of the reference.
    pub it95: Option<usize>,
    /// Final utility.
    pub final_utility: f64,
    /// Largest drop below the running peak (0 = monotone).
    pub max_dip: f64,
    /// Final max node/link utilization.
    pub max_utilization: f64,
}

/// Runs the gradient algorithm for `iterations`, recording utility each
/// iteration and convergence milestones against `reference`. A
/// milestone counts only at a feasible iterate (`max_utilization ≤ 1`,
/// to 1e-9): utility bought over capacity is not utility reached.
#[must_use]
pub fn run_gradient(
    problem: &Problem,
    config: GradientConfig,
    iterations: usize,
    reference: f64,
) -> RunSummary {
    let mut alg = GradientAlgorithm::new(problem, config).expect("valid config");
    let mut utilities = Vec::with_capacity(iterations);
    let mut it90 = None;
    let mut it95 = None;
    let mut peak: f64 = 0.0;
    let mut max_dip: f64 = 0.0;
    for i in 0..iterations {
        alg.step();
        let report = alg.report();
        let u = report.utility;
        utilities.push(u);
        if u > peak {
            peak = u;
        } else {
            max_dip = max_dip.max(peak - u);
        }
        let feasible = report.max_utilization <= 1.0 + 1e-9;
        if it90.is_none() && feasible && u >= 0.90 * reference {
            it90 = Some(i + 1);
        }
        if it95.is_none() && feasible && u >= 0.95 * reference {
            it95 = Some(i + 1);
        }
    }
    let report = alg.report();
    RunSummary {
        utilities,
        it90,
        it95,
        final_utility: report.utility,
        max_dip,
        max_utilization: report.max_utilization,
    }
}

/// Log-spaced sample indices over `[1, n]` (for Figure 4's log-scale
/// iteration axis), deduplicated and always including `n`.
#[must_use]
pub fn log_ticks(n: usize, points: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(points + 1);
    for p in 0..points {
        let frac = p as f64 / (points.saturating_sub(1).max(1)) as f64;
        let idx = (n as f64).powf(frac).round() as usize;
        let idx = idx.clamp(1, n);
        if out.last() != Some(&idx) {
            out.push(idx);
        }
    }
    if out.last() != Some(&n) {
        out.push(n);
    }
    out
}

/// Formats an `Option<usize>` milestone for TSV output.
#[must_use]
pub fn fmt_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_build() {
        let p = paper_instance(1);
        assert_eq!(p.graph().node_count(), 40);
        let q = small_instance(2, 15, 2);
        assert_eq!(q.num_commodities(), 2);
        let l = layered_instance(3, 6, 1);
        assert!(l.graph().node_count() >= 12);
    }

    #[test]
    fn lp_optimum_positive() {
        assert!(lp_optimum(&small_instance(1, 15, 2)) > 0.0);
    }

    #[test]
    fn run_gradient_tracks_milestones() {
        let p = small_instance(4, 15, 2);
        let opt = lp_optimum(&p);
        let s = run_gradient(
            &p,
            GradientConfig {
                eta: 0.3,
                ..GradientConfig::default()
            },
            2000,
            opt,
        );
        assert_eq!(s.utilities.len(), 2000);
        assert!(s.final_utility > 0.0);
        if let (Some(a), Some(b)) = (s.it90, s.it95) {
            assert!(a <= b);
        }
    }

    /// With the wall off, seed 66 of the overloaded paper family first
    /// reaches 90 % of the LP (iteration 1 452) while 0.3 % over
    /// capacity, and stays over it: no milestone may count.
    #[test]
    fn milestones_skip_iterates_over_capacity() {
        let p = paper_instance(66).scale_demand(3.0);
        let opt = lp_optimum(&p);
        let cfg = GradientConfig {
            wall_strength: 0.0,
            ..GradientConfig::default()
        };
        let s = run_gradient(&p, cfg, 1_500, opt);
        assert!(
            s.utilities.iter().any(|&u| u >= 0.90 * opt),
            "utility never crossed 90 %"
        );
        assert!(s.max_utilization > 1.0 + 1e-9, "run ended feasible");
        assert_eq!(s.it90, None);
        assert_eq!(s.it95, None);
    }

    /// Seed 92 of the overloaded paper family reaches 90 % of the LP at
    /// a feasible iterate (iteration 399). Under blocked sets it never
    /// did in 6 000 iterations: the tags froze it short of 90 %
    /// (DESIGN.md §4a item 5, EXPERIMENTS E15).
    #[test]
    fn default_run_reaches_90_percent_without_blocked_sets() {
        let p = paper_instance(92).scale_demand(3.0);
        let opt = lp_optimum(&p);
        let s = run_gradient(&p, GradientConfig::default(), 600, opt);
        assert!(
            s.it90.is_some(),
            "never reached 90 %: {}",
            s.final_utility / opt
        );
    }

    #[test]
    fn log_ticks_are_increasing_and_bounded() {
        let t = log_ticks(10_000, 30);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*t.last().unwrap(), 10_000);
        assert_eq!(t[0], 1);
        let tiny = log_ticks(1, 5);
        assert_eq!(tiny, vec![1]);
    }

    #[test]
    fn fmt_opt_formats() {
        assert_eq!(fmt_opt(Some(3)), "3");
        assert_eq!(fmt_opt(None), "-");
    }
}
