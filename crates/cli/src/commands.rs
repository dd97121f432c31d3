//! The `spn` subcommands, as library functions writing to any
//! `io::Write` (so tests can capture output).

use crate::args::{ArgError, ParsedArgs};
use spn_baseline::{AdmissionPolicy, BackPressure, BackPressureConfig};
use spn_core::{GradientAlgorithm, GradientConfig};
use spn_model::random::RandomInstance;
use spn_model::spec::ProblemSpec;
use spn_model::Problem;
use spn_sim::{PacketConfig, PacketSim};
use spn_solver::arcflow::solve_linear_utility_with_prices;
use spn_solver::piecewise::sandwich;
use spn_transform::ExtendedNetwork;
use std::fmt;
use std::io::Write;

/// CLI failures with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Filesystem problems.
    Io(std::io::Error),
    /// Manifest parse problems.
    Json(serde_json::Error),
    /// Instance validation problems.
    Model(spn_model::ModelError),
    /// Solver problems.
    Solve(spn_solver::SolveError),
    /// Algorithm configuration problems.
    Config(spn_core::ConfigError),
    /// Unknown command word.
    UnknownCommand(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "manifest parse error: {e}"),
            CliError::Model(e) => write!(f, "invalid instance: {e}"),
            CliError::Solve(e) => write!(f, "solver error: {e}"),
            CliError::Config(e) => write!(f, "bad configuration: {e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `spn help`)")
            }
        }
    }
}

impl std::error::Error for CliError {}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::$variant(e)
            }
        }
    };
}
impl_from!(Args, ArgError);
impl_from!(Io, std::io::Error);
impl_from!(Json, serde_json::Error);
impl_from!(Model, spn_model::ModelError);
impl_from!(Solve, spn_solver::SolveError);
impl_from!(Config, spn_core::ConfigError);

/// Dispatches a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Any [`CliError`]; the binary prints it to stderr and exits nonzero.
pub fn run(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => generate(args, out),
        "info" => info(args, out),
        "solve" => solve(args, out),
        "gradient" => gradient(args, out),
        "backpressure" => backpressure(args, out),
        "dot" => dot(args, out),
        "compare" => compare(args, out),
        "packet" => packet(args, out),
        "help" => {
            write!(out, "{}", help_text())?;
            Ok(())
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The `spn help` text.
#[must_use]
pub fn help_text() -> &'static str {
    "spn — stream processing networks with max utility (ICDCS 2007)\n\
     \n\
     USAGE: spn <command> [args]\n\
     \n\
     COMMANDS:\n\
     \x20 generate [--nodes 40] [--commodities 3] [--seed 0] [--out FILE]\n\
     \x20     generate a random instance manifest (JSON to stdout or --out)\n\
     \x20 info <manifest.json>\n\
     \x20     validate and summarize an instance\n\
     \x20 solve <manifest.json> [--segments 40]\n\
     \x20     centralized optimum (LP for linear utilities, sandwich bounds otherwise)\n\
     \x20 gradient <manifest.json> [--iters 5000] [--eta 0.04] [--epsilon 0.0005] [--tol TOL]\n\
     \x20     run the distributed gradient algorithm; with --tol, stop as soon\n\
     \x20     as the per-step routing shift drops below TOL (prints converged)\n\
     \x20 backpressure <manifest.json> [--rounds 50000] [--v 50000] [--gain 0.01]\n\
     \x20     run the back-pressure baseline\n\
     \x20 dot <manifest.json> [--extended]\n\
     \x20     Graphviz export of the physical (or extended) graph\n\
     \x20 compare <manifest.json> [--iters 8000] [--rounds 80000]\n\
     \x20     LP optimum vs gradient vs back-pressure, side by side\n\
     \x20 packet <manifest.json> [--iters 8000] [--ticks 20000] [--amplitude 0.3]\n\
     \x20     converge, then execute the fluid solution with queues and bursts\n\
     \x20 help\n"
}

fn load(args: &ParsedArgs) -> Result<Problem, CliError> {
    let path = args.positional(0, "manifest")?;
    let json = std::fs::read_to_string(path)?;
    Ok(ProblemSpec::from_json(&json)?.into_problem()?)
}

fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let nodes = args.opt("nodes", 40usize)?;
    let commodities = args.opt("commodities", 3usize)?;
    let seed = args.opt("seed", 0u64)?;
    let inst = RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()?;
    let json = ProblemSpec::from(&inst.problem).to_json()?;
    match args.options.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &json)?;
            writeln!(
                out,
                "wrote {path} ({nodes} nodes, {commodities} commodities, seed {seed})"
            )?;
        }
        _ => writeln!(out, "{json}")?,
    }
    Ok(())
}

fn info(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let g = problem.graph();
    writeln!(out, "nodes\t{}", g.node_count())?;
    writeln!(out, "links\t{}", g.edge_count())?;
    writeln!(out, "commodities\t{}", problem.num_commodities())?;
    writeln!(out, "total_offered_load\t{:.4}", problem.total_demand())?;
    for j in problem.commodity_ids() {
        let c = problem.commodity(j);
        let depth =
            spn_graph::paths::longest_path_len(g, |e| problem.in_overlay(j, e)).unwrap_or(0);
        writeln!(
            out,
            "commodity\t{}\tsource n{}\tsink n{}\tlambda {:.3}\tutility {}\tdepth {}\tgain(sink) {:.3}",
            j.index(),
            c.source().index(),
            c.sink().index(),
            c.max_rate,
            c.utility,
            depth,
            problem.gain(j, c.sink()),
        )?;
    }
    let ext = ExtendedNetwork::build(&problem);
    writeln!(
        out,
        "extended_graph\t{} nodes\t{} edges",
        ext.graph().node_count(),
        ext.graph().edge_count()
    )?;
    Ok(())
}

fn solve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let all_linear = problem
        .commodities()
        .iter()
        .all(|c| matches!(c.utility, spn_model::UtilityFn::Linear { .. }));
    if all_linear {
        let (sol, prices) = solve_linear_utility_with_prices(&problem)?;
        writeln!(out, "optimal_utility\t{:.6}", sol.objective)?;
        for j in problem.commodity_ids() {
            writeln!(
                out,
                "admitted\t{}\t{:.6}",
                j.index(),
                sol.admitted[j.index()]
            )?;
        }
        for v in problem.graph().nodes() {
            if prices.node[v.index()] > 1e-9 {
                writeln!(
                    out,
                    "node_shadow_price\tn{}\t{:.6}",
                    v.index(),
                    prices.node[v.index()]
                )?;
            }
        }
        for e in problem.graph().edges() {
            if prices.link[e.index()] > 1e-9 {
                writeln!(
                    out,
                    "link_shadow_price\te{}\t{:.6}",
                    e.index(),
                    prices.link[e.index()]
                )?;
            }
        }
    } else {
        let segments = args.opt("segments", 40usize)?;
        let (lower, upper) = sandwich(&problem, segments)?;
        writeln!(
            out,
            "optimal_utility_bracket\t[{:.6}, {:.6}]",
            lower.objective, upper.objective
        )?;
        for j in problem.commodity_ids() {
            writeln!(
                out,
                "admitted_lower\t{}\t{:.6}",
                j.index(),
                lower.admitted[j.index()]
            )?;
        }
    }
    Ok(())
}

fn gradient(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let iters = args.opt("iters", 5000usize)?;
    let tol = args.opt("tol", 0.0f64)?;
    let config = GradientConfig {
        eta: args.opt("eta", GradientConfig::default().eta)?,
        epsilon: args.opt("epsilon", GradientConfig::default().epsilon)?,
        ..GradientConfig::default()
    };
    let mut alg = GradientAlgorithm::new(&problem, config)?;
    let report = if tol > 0.0 {
        let outcome = alg.run_until_stable(tol, iters);
        writeln!(out, "converged\t{}", outcome.converged)?;
        alg.report()
    } else {
        alg.run(iters)
    };
    writeln!(out, "iterations\t{}", report.iterations)?;
    writeln!(out, "utility\t{:.6}", report.utility)?;
    writeln!(out, "max_utilization\t{:.4}", report.max_utilization)?;
    for j in problem.commodity_ids() {
        writeln!(
            out,
            "commodity\t{}\tadmitted {:.4} of {:.4}\tdelivered {:.4}",
            j.index(),
            report.admitted[j.index()],
            problem.commodity(j).max_rate,
            report.delivered[j.index()],
        )?;
    }
    Ok(())
}

fn backpressure(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let rounds = args.opt("rounds", 50_000usize)?;
    let v = args.opt("v", 50_000.0f64)?;
    let gain = args.opt("gain", 0.01f64)?;
    let config = BackPressureConfig {
        policy: AdmissionPolicy::Linear { v },
        transfer_gain: (gain > 0.0).then_some(gain),
        window: 2000,
        ..BackPressureConfig::default()
    };
    let mut bp = BackPressure::new(&problem, config);
    let report = bp.run(rounds);
    writeln!(out, "rounds\t{}", report.iterations)?;
    writeln!(out, "utility\t{:.6}", report.utility)?;
    writeln!(out, "total_queued\t{:.2}", report.total_queued)?;
    for j in problem.commodity_ids() {
        writeln!(
            out,
            "commodity\t{}\tgoodput {:.4}\tinjection {:.4}",
            j.index(),
            report.delivered[j.index()],
            report.admitted[j.index()],
        )?;
    }
    Ok(())
}

fn compare(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let iters = args.opt("iters", 8000usize)?;
    let rounds = args.opt("rounds", 80_000usize)?;

    let all_linear = problem
        .commodities()
        .iter()
        .all(|c| matches!(c.utility, spn_model::UtilityFn::Linear { .. }));
    let optimum = if all_linear {
        solve_linear_utility_with_prices(&problem)?.0.objective
    } else {
        sandwich(&problem, 40)?.1.objective // upper bound as reference
    };

    let mut grad = GradientAlgorithm::new(&problem, GradientConfig::default())?;
    let grad_report = grad.run(iters);

    let bp_cfg = BackPressureConfig {
        policy: AdmissionPolicy::Linear { v: 50_000.0 },
        transfer_gain: Some(0.01),
        window: 2000,
        ..BackPressureConfig::default()
    };
    let mut bp = BackPressure::new(&problem, bp_cfg);
    let bp_report = bp.run(rounds);

    writeln!(out, "method	utility	frac_of_optimum	work")?;
    writeln!(out, "centralized_lp	{optimum:.4}	1.0000	1 solve")?;
    writeln!(
        out,
        "gradient	{:.4}	{:.4}	{iters} iterations",
        grad_report.utility,
        grad_report.utility / optimum
    )?;
    writeln!(
        out,
        "back_pressure	{:.4}	{:.4}	{rounds} rounds",
        bp_report.utility,
        bp_report.utility / optimum
    )?;
    writeln!(
        out,
        "
per-commodity admitted (gradient) / goodput (back-pressure):"
    )?;
    for j in problem.commodity_ids() {
        writeln!(
            out,
            "  j{}	λ {:.2}	gradient {:.3}	bp {:.3}",
            j.index(),
            problem.commodity(j).max_rate,
            grad_report.admitted[j.index()],
            bp_report.delivered[j.index()],
        )?;
    }
    Ok(())
}

fn packet(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    let iters = args.opt("iters", 8000usize)?;
    let ticks = args.opt("ticks", 20_000usize)?;
    let amplitude = args.opt("amplitude", 0.3f64)?;
    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default())?;
    let report = alg.run(iters);
    let mut sim = PacketSim::new(
        alg.extended().clone(),
        alg.routing(),
        alg.flows(),
        PacketConfig {
            amplitude,
            ..PacketConfig::default()
        },
    );
    sim.run(ticks);
    writeln!(out, "fluid_utility	{:.4}", report.utility)?;
    for j in problem.commodity_ids() {
        writeln!(
            out,
            "commodity	{}	fluid {:.4}	packet_goodput {:.4}",
            j.index(),
            report.admitted[j.index()],
            sim.delivered_rate(j),
        )?;
    }
    writeln!(out, "total_queued	{:.2}", sim.total_queued())?;
    writeln!(out, "backlog_delay_ticks	{:.2}", sim.backlog_delay())?;
    Ok(())
}

fn dot(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(args)?;
    if args.switch("extended") {
        let ext = ExtendedNetwork::build(&problem);
        write!(out, "{}", spn_transform::view::to_dot(&ext))?;
    } else {
        let g = problem.graph();
        let rendered = spn_graph::dot::to_dot(
            g,
            |v| format!("srv{} C={}", v.index(), problem.node_capacity(v)),
            |e| format!("B={}", problem.edge_bandwidth(e)),
        );
        write!(out, "{rendered}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, CliError> {
        let parsed = ParsedArgs::parse(tokens.iter().map(ToString::to_string))?;
        let mut buf = Vec::new();
        run(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn temp_manifest(nodes: usize, seed: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spn-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // one file per call: tests run in parallel, and a shared path
        // could be read while another test rewrites it
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!(
            "inst-{nodes}-{seed}-{}-{call}.json",
            std::process::id()
        ));
        let inst = RandomInstance::builder()
            .nodes(nodes)
            .commodities(2)
            .seed(seed)
            .build()
            .unwrap();
        std::fs::write(&path, ProblemSpec::from(&inst.problem).to_json().unwrap()).unwrap();
        path
    }

    #[test]
    fn help_lists_all_commands() {
        let out = run_tokens(&["help"]).unwrap();
        for cmd in [
            "generate",
            "info",
            "solve",
            "gradient",
            "backpressure",
            "dot",
            "compare",
            "packet",
        ] {
            assert!(out.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run_tokens(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn generate_to_stdout_is_valid_json() {
        let out = run_tokens(&["generate", "--nodes", "14", "--commodities", "2"]).unwrap();
        let spec = ProblemSpec::from_json(&out).unwrap();
        assert_eq!(spec.node_capacities.len(), 14);
        spec.into_problem().unwrap();
    }

    #[test]
    fn info_summarizes() {
        let path = temp_manifest(14, 5);
        let out = run_tokens(&["info", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("nodes\t14"));
        assert!(out.contains("commodities\t2"));
        assert!(out.contains("extended_graph"));
    }

    #[test]
    fn solve_reports_optimum_and_prices() {
        let path = temp_manifest(14, 6);
        let out = run_tokens(&["solve", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("optimal_utility"));
        assert!(out.contains("admitted\t0"));
    }

    #[test]
    fn gradient_runs_and_reports() {
        let path = temp_manifest(14, 7);
        let out = run_tokens(&[
            "gradient",
            path.to_str().unwrap(),
            "--iters",
            "200",
            "--eta",
            "0.3",
        ])
        .unwrap();
        assert!(out.contains("iterations\t200"));
        assert!(out.contains("utility\t"));
        // Without --tol there is no convergence report.
        assert!(!out.contains("converged"));
    }

    #[test]
    fn gradient_with_tol_stops_early_and_reports_convergence() {
        let path = temp_manifest(14, 7);
        let out = run_tokens(&[
            "gradient",
            path.to_str().unwrap(),
            "--iters",
            "20000",
            "--eta",
            "0.3",
            "--tol",
            "1e-10",
        ])
        .unwrap();
        assert!(out.contains("converged\ttrue"), "output: {out}");
        let iters: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("iterations\t"))
            .unwrap()
            .parse()
            .unwrap();
        assert!(iters < 20_000, "tolerance never met: {iters}");
    }

    #[test]
    fn gradient_with_unreachable_tol_reports_cap_exhaustion() {
        let path = temp_manifest(14, 7);
        let out = run_tokens(&[
            "gradient",
            path.to_str().unwrap(),
            "--iters",
            "25",
            "--tol",
            "1e-300",
        ])
        .unwrap();
        assert!(out.contains("converged\tfalse"), "output: {out}");
        assert!(out.contains("iterations\t25"));
    }

    #[test]
    fn backpressure_runs_and_reports() {
        let path = temp_manifest(14, 8);
        let out = run_tokens(&[
            "backpressure",
            path.to_str().unwrap(),
            "--rounds",
            "500",
            "--v",
            "100",
        ])
        .unwrap();
        assert!(out.contains("rounds\t500"));
        assert!(out.contains("goodput"));
    }

    #[test]
    fn dot_renders_both_views() {
        let path = temp_manifest(14, 9);
        let plain = run_tokens(&["dot", path.to_str().unwrap()]).unwrap();
        assert!(plain.starts_with("digraph"));
        assert!(plain.contains("srv0"));
        let extended = run_tokens(&["dot", path.to_str().unwrap(), "--extended"]).unwrap();
        assert!(extended.contains("bw0"));
        assert!(extended.contains("dummy0"));
    }

    #[test]
    fn compare_runs_all_three_methods() {
        let path = temp_manifest(14, 10);
        let out = run_tokens(&[
            "compare",
            path.to_str().unwrap(),
            "--iters",
            "300",
            "--rounds",
            "500",
        ])
        .unwrap();
        assert!(out.contains("centralized_lp"));
        assert!(out.contains("gradient"));
        assert!(out.contains("back_pressure"));
        assert!(out.contains("per-commodity"));
    }

    #[test]
    fn packet_executes_fluid_solution() {
        let path = temp_manifest(14, 11);
        let out = run_tokens(&[
            "packet",
            path.to_str().unwrap(),
            "--iters",
            "400",
            "--ticks",
            "2000",
        ])
        .unwrap();
        assert!(out.contains("fluid_utility"));
        assert!(out.contains("packet_goodput"));
        assert!(out.contains("backlog_delay_ticks"));
    }

    #[test]
    fn missing_manifest_is_io_error() {
        assert!(matches!(
            run_tokens(&["info", "/nonexistent/path.json"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn corrupt_manifest_is_json_error() {
        let dir = std::env::temp_dir().join("spn-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            run_tokens(&["info", path.to_str().unwrap()]),
            Err(CliError::Json(_))
        ));
    }
}
