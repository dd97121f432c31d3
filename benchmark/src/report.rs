//! What one run of one workload produces, and how it is printed.
//!
//! The last line of standard output is the driver's result object
//! (`correct`, `attempted`, `failed`, `metrics`). The line before it,
//! prefixed `detail `, carries the same metrics with quartiles and
//! sample counts for the suite's results file and `compare`.

use crate::registry::{END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number with the spread of the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The reported value (a median for timings).
    pub value: f64,
    /// First quartile of the samples (`value` when there is one).
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Value {
    /// A number that is not a summary of samples (a count, a ratio).
    pub fn exact(value: f64) -> Value {
        Value {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `samples`.
    pub fn median_of(samples: &[f64]) -> Value {
        let [q1, value, q3] = stats::quartiles(samples);
        Value {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// The noise floor of repeated timings of identical work: the
    /// [`FLOOR_PERCENTILE`](crate::workloads::FLOOR_PERCENTILE) of
    /// `samples`, with their quartiles for context.
    pub fn floor_of(samples: &mut [f64]) -> Value {
        Value::percentile_of(samples, crate::workloads::FLOOR_PERCENTILE)
    }

    /// The `p`-th percentile of `samples`, with the sample's own
    /// quartiles for context.
    pub fn percentile_of(samples: &mut [f64], p: f64) -> Value {
        stats::sort(samples);
        Value {
            value: stats::percentile(samples, p),
            q1: stats::percentile(samples, 25.0),
            q3: stats::percentile(samples, 75.0),
            n: samples.len(),
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: settle episodes plus output checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Metric values by registry name (end-to-end and per-layer).
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: Value) {
        self.metrics.insert(name, value);
    }

    /// Records a plain number.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::exact(value));
    }

    /// Counts one attempted operation; `result` says whether it passed.
    pub fn attempt(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(format!("{}: {why}", what()));
        }
    }

    /// Whether every operation and every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn names(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Checks the contract before printing: an untraced run must carry
    /// every end-to-end metric, finite and non-zero. Per-layer metrics
    /// a workload does not exercise default to `0`.
    ///
    /// # Errors
    ///
    /// Names the first missing, zero or non-finite metric.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        for (name, _) in Self::names(traced) {
            match self.metrics.get(name) {
                Some(v) if !v.value.is_finite() => return Err(format!("{name} is {}", v.value)),
                Some(v) if !traced && v.value == 0.0 => return Err(format!("{name} is zero")),
                None if !traced => return Err(format!("{name} was not measured")),
                _ => {}
            }
        }
        Ok(())
    }

    /// The human-readable table.
    pub fn table(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let kind = if traced { "per-layer" } else { "end-to-end" };
        writeln!(out, "# {workload}: {kind} metrics").expect("string write");
        writeln!(
            out,
            "# {:<34} {:>16} {:<6} {:>14} {:>14} {:>8}",
            "metric", "value", "unit", "q1", "q3", "n"
        )
        .expect("string write");
        for (name, unit) in Self::names(traced) {
            let v = self.metrics.get(name).copied().unwrap_or(Value::exact(0.0));
            writeln!(
                out,
                "{name:<36} {:>16.6} {unit:<6} {:>14.6} {:>14.6} {:>8}",
                v.value, v.q1, v.q3, v.n
            )
            .expect("string write");
        }
        for f in &self.failures {
            writeln!(out, "FAIL {f}").expect("string write");
        }
        out
    }

    /// The `detail` object: metrics with quartiles and sample counts.
    pub fn detail_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            u8::from(traced),
            self.correct(),
            self.attempted,
            self.failures.len()
        );
        for (i, (name, unit)) in Self::names(traced).into_iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(Value::exact(0.0));
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"q1\":{},\"q3\":{},\"n\":{}}}",
                num(v.value),
                num(v.q1),
                num(v.q3),
                v.n
            )
            .expect("string write");
        }
        out.push_str("}}");
        out
    }

    /// The driver's result object (exactly four keys).
    pub fn result_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, (name, unit)) in Self::names(traced).into_iter().enumerate() {
            let v = self.metrics.get(name).map_or(0.0, |v| v.value);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
            .expect("string write");
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits (Rust prints the shortest string
/// that round-trips); non-finite values cannot be encoded and are
/// refused earlier by [`Outcome::validate`].
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), the
/// product's state plus whatever the benchmark holds alongside it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_registered_metric_and_four_keys() {
        let mut o = Outcome::default();
        for m in END_TO_END {
            o.set_exact(m.name, 1.5);
        }
        o.attempt(|| "check".into(), Ok(()));
        assert!(o.validate(false).is_ok());
        let line = o.result_json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        // a traced line lists the per-layer metrics instead, zero-filled
        let traced = o.result_json(true);
        assert!(traced.contains("\"trace.overhead\": {\"value\": 0"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn validate_refuses_missing_zero_and_nan() {
        let mut o = Outcome::default();
        assert!(o.validate(false).unwrap_err().contains("not measured"));
        for m in END_TO_END {
            o.set_exact(m.name, 2.0);
        }
        o.set_exact("settle_s", 0.0);
        assert!(o.validate(false).unwrap_err().contains("settle_s is zero"));
        o.set_exact("settle_s", f64::NAN);
        assert!(o.validate(false).unwrap_err().contains("settle_s is NaN"));
        // per-layer metrics may be absent (reported as 0) but not NaN
        assert!(Outcome::default().validate(true).is_ok());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.attempt(|| "episode 3".into(), Err("missed the target".into()));
        o.attempt(|| "episode 4".into(), Ok(()));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failures.len()), (2, 1));
        assert!(o
            .result_json(true)
            .contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
