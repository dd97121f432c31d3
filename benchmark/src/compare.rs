//! `compare A.json B.json`: do two result files of one commit agree?
//!
//! One row per (workload, metric) with both medians and quartiles.
//! Exits non-zero unless every timing metric's medians agree within the
//! metric's bound and every count metric is identical. Per-layer
//! metrics carry no bound and are listed without a verdict.

use crate::registry;
use serde::{DeError, Deserialize, Value};
use std::path::Path;
use std::process::ExitCode;

/// The vendored `serde_json` parses into any `Deserialize`; this is the
/// identity one.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Json(value.clone()))
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn number(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

/// One metric of one workload in a results file.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    value: f64,
    q1: f64,
    q3: f64,
}

fn rows(text: &str) -> Result<Vec<Row>, String> {
    let Json(doc) = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let runs = field(&doc, "runs")?
        .as_seq()
        .ok_or("`runs` is not a list")?;
    for run in runs {
        let workload = field(run, "workload")?
            .as_str()
            .ok_or("`workload` is not a string")?;
        if !field(run, "correct")?.as_bool().unwrap_or(false) {
            return Err(format!("{workload}: the run reports incorrect outputs"));
        }
        let metrics = field(run, "metrics")?
            .as_map()
            .ok_or("`metrics` is not a map")?;
        for (metric, v) in metrics {
            out.push(Row {
                workload: workload.to_string(),
                metric: metric.clone(),
                value: number(v, "value")?,
                q1: number(v, "q1")?,
                q3: number(v, "q3")?,
            });
        }
    }
    Ok(out)
}

/// The verdict on one pair of rows: `None` for an unbounded metric.
fn agrees(metric: &str, a: f64, b: f64) -> Option<bool> {
    let m = registry::end_to_end(metric)?;
    Some(if m.exact {
        a.to_bits() == b.to_bits()
    } else {
        (b - a).abs() <= m.bound * a.abs()
    })
}

/// Compares two parsed files; returns the table and whether they agree.
fn compare(a: &[Row], b: &[Row]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut table = String::new();
    let mut ok = true;
    writeln!(
        table,
        "# {:<16} {:<30} {:>14} {:>27} {:>14} {:>27} {:>8}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "B/A-1"
    )
    .expect("string write");
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            writeln!(
                table,
                "{:<18} {:<30} missing from B",
                ra.workload, ra.metric
            )
            .expect("string write");
            ok = false;
            continue;
        };
        let verdict = match agrees(&ra.metric, ra.value, rb.value) {
            None => "-",
            Some(true) => "ok",
            Some(false) => {
                ok = false;
                "DIFFERS"
            }
        };
        let delta = if ra.value == 0.0 {
            0.0
        } else {
            (rb.value / ra.value - 1.0) * 100.0
        };
        writeln!(
            table,
            "{:<18} {:<30} {:>14.6} [{:>12.6},{:>12.6}] {:>14.6} [{:>12.6},{:>12.6}] {:>+7.2}%  {verdict}",
            ra.workload, ra.metric, ra.value, ra.q1, ra.q3, rb.value, rb.q1, rb.q3, delta
        )
        .expect("string write");
    }
    for rb in b {
        if !a
            .iter()
            .any(|r| r.workload == rb.workload && r.metric == rb.metric)
        {
            writeln!(
                table,
                "{:<18} {:<30} missing from A",
                rb.workload, rb.metric
            )
            .expect("string write");
            ok = false;
        }
    }
    (table, ok)
}

/// Entry point of `run.sh compare`.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| rows(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, ok) = compare(&a, &b);
            print!("{table}");
            if ok {
                println!("# the two files agree");
                ExitCode::SUCCESS
            } else {
                println!("# the two files DISAGREE");
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    fn file(settle_s: f64, settle_iters: f64) -> String {
        let mut o = Outcome::default();
        for m in registry::END_TO_END {
            o.set_exact(m.name, 1.0);
        }
        o.set_exact("settle_s", settle_s);
        o.set_exact("settle_iters", settle_iters);
        format!(
            "{{\"host\":{{\"nproc\":2}},\"seed\":1,\"runs\":[\n{}\n]}}",
            o.detail_json("fig4_cold", 1, false)
        )
    }

    #[test]
    fn files_round_trip_and_agree_with_themselves() {
        let a = rows(&file(2.0, 100.0)).unwrap();
        assert_eq!(a.len(), registry::END_TO_END.len());
        let (table, ok) = compare(&a, &a);
        assert!(ok, "{table}");
        assert!(table.contains("settle_iters"));
    }

    #[test]
    fn timings_may_differ_within_the_bound_counts_may_not() {
        let a = rows(&file(2.0, 100.0)).unwrap();
        let bound = registry::end_to_end("settle_s").unwrap().bound;
        let near = rows(&file(2.0 * (1.0 + 0.9 * bound), 100.0)).unwrap();
        assert!(compare(&a, &near).1);
        let far = rows(&file(2.0 * (1.0 + 1.1 * bound), 100.0)).unwrap();
        assert!(!compare(&a, &far).1);
        let recount = rows(&file(2.0, 101.0)).unwrap();
        let (table, ok) = compare(&a, &recount);
        assert!(!ok && table.contains("DIFFERS"));
    }

    #[test]
    fn missing_rows_and_incorrect_runs_are_refused() {
        let a = rows(&file(2.0, 100.0)).unwrap();
        assert!(!compare(&a, &a[1..]).1);
        assert!(!compare(&a[1..], &a).1);
        let bad = file(2.0, 100.0).replace("\"correct\":true", "\"correct\":false");
        assert!(rows(&bad).unwrap_err().contains("incorrect"));
        assert!(rows("{}").is_err());
    }
}
