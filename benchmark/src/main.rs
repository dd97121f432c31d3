//! The repository's benchmark. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! run.sh [--seed N] [--trace] [--smoke] [--seconds S]    every workload, one process each
//! run.sh compare A.json B.json                           two result files of one commit
//! run.sh manifest                                        print BENCHMARK.json
//! ```

mod compare;
mod registry;
mod report;
mod stats;
mod suite;
mod surface;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Plan;

/// Parsed command line of a run (single workload or suite).
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

/// Parses run options. `--trace` takes an optional `0`/`1` (the driver
/// always passes one; by hand the bare flag means "traced").
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                out.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.traced = false;
                    i += 1;
                }
                Some("1") => {
                    out.traced = true;
                    i += 1;
                }
                _ => out.traced = true,
            },
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

/// Where `out/` lives: next to this package's manifest (`run.sh`
/// exports its own directory; the compile-time path is the fallback for
/// a binary started by hand).
fn out_dir() -> PathBuf {
    std::env::var_os("SPN_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn run_one(name: &str, args: &RunArgs) -> ExitCode {
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            1.0
        } else {
            registry::RUN_SECONDS as f64
        }),
        traced: args.traced,
        smoke: args.smoke,
    };
    let mut tracer = trace::Tracer::new(plan.traced);
    let Some(outcome) = workloads::run(name, &plan, &mut tracer) else {
        eprintln!("no workload named `{name}`");
        return ExitCode::from(2);
    };
    if let Err(why) = tracer.write(
        &out_dir().join(format!("trace-{name}.json")),
        name,
        plan.seed,
    ) {
        eprintln!("could not write the trace: {why}");
        return ExitCode::from(2);
    }
    print!("{}", outcome.table(name, plan.traced));
    if let Err(why) = outcome.validate(plan.traced) {
        eprintln!("{name}: {why}");
        return ExitCode::from(2);
    }
    println!(
        "detail {}",
        outcome.detail_json(name, plan.seed, plan.traced)
    );
    println!("{}", outcome.result_json(plan.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", registry::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) if args.len() == 3 => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("usage: compare A.json B.json");
                ExitCode::from(2)
            }
        },
        _ => match parse_run_args(&args) {
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
            Ok(run) => match run.workload.clone() {
                Some(name) => run_one(&name, &run),
                None => suite::run(&args, &run, &out_dir()),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_run_args(&args)
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = parse("--workload churn_400 --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("churn_400"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (7, Some(10.0), false, false)
        );
        assert!(
            parse("--workload x --seed 7 --seconds 10 --trace 1")
                .unwrap()
                .traced
        );
    }

    #[test]
    fn the_bare_trace_flag_and_defaults_parse() {
        let a = parse("--trace --smoke").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.traced, a.smoke),
            (None, 1, true, true)
        );
        assert!(parse("--seed 2 --trace").unwrap().traced);
        assert!(!parse("").unwrap().traced);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--bogus").is_err());
    }
}
