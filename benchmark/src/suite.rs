//! Suite mode: every workload, one OS process each, one results file.
//!
//! A process per workload keeps `peak_rss_mb` per workload and keeps one
//! workload's heap layout from colouring the next one's timings.

use crate::registry::WORKLOADS;
use crate::RunArgs;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Host facts recorded with every results file.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "{{\"nproc\":{nproc},\"loadavg_at_start\":\"{}\"}}",
        load.join(" ")
    )
}

/// Runs each workload as a child process with the caller's options,
/// echoes its table, and writes the collected `detail` objects to
/// `out/results-seed<N>[-trace][-smoke].json`.
pub fn run(args: &[String], parsed: &RunArgs, out_dir: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(why) => {
            eprintln!("cannot locate the benchmark binary: {why}");
            return ExitCode::from(2);
        }
    };
    let host = host_json();
    let mut details = Vec::new();
    let mut failed = false;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(args)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(why) => {
                eprintln!("{}: could not start: {why}", workload.name);
                failed = true;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines() {
            match line.strip_prefix("detail ") {
                Some(detail) => details.push(detail.to_string()),
                None if line.starts_with('{') => {} // the driver's result line
                None => println!("{line}"),
            }
        }
        if !output.status.success() {
            eprintln!("{}: exited with {}", workload.name, output.status);
            failed = true;
        }
    }
    let mut name = format!("results-seed{}", parsed.seed);
    if parsed.traced {
        name.push_str("-trace");
    }
    if parsed.smoke {
        name.push_str("-smoke");
    }
    let path = out_dir.join(format!("{name}.json"));
    let mut doc = format!(
        "{{\"host\":{host},\"seed\":{},\"trace\":{},\"smoke\":{},\"runs\":[\n",
        parsed.seed,
        u8::from(parsed.traced),
        parsed.smoke
    );
    writeln!(doc, "{}", details.join(",\n")).expect("string write");
    doc.push_str("]}\n");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(why) => {
            eprintln!("could not write {}: {why}", path.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
