//! The benchmark's contract in one table: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is printed from this file (`run.sh manifest`) and
//! a unit test keeps the two equal.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the one-line reason it exists.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count the program computes, not a clock reading: two runs of
    /// one commit with one seed must agree exactly (`compare` enforces
    /// it; the bound above only governs cross-commit regressions).
    pub exact: bool,
}

/// A metric of one layer (traced runs only; no bound).
pub struct Layer {
    /// Metric name, `<crate>.<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Seconds one run measures for (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The five workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig4_cold",
        why: "256 tiny paper-family instances from cold: every commodity dirty, so per-step fixed cost and the full sweeps do all the work; active set, O(V) lanes and mesh do none",
    },
    Workload {
        name: "scale_steady",
        why: "one 50k-node, 64-tenant hierarchy near convergence: the active set skips most chains and the O(V) lanes (cost-cache scan, totals reduce) dominate; the only large set-up",
    },
    Workload {
        name: "churn_400",
        why: "400 nodes / 32 commodities under a seeded evict-readmit, demand and capacity script: the same core layers through the write path (reshape, invalidation, dense rebuild)",
    },
    Workload {
        name: "mesh_uds_small",
        why: "4-region Unix-socket mesh on 40-node paper instances: transport-dominated (most of an iteration is inside Transport calls); core sweeps are negligible",
    },
    Workload {
        name: "mesh_uds_wide",
        why: "the same mesh on 160-node / 16-commodity instances: worker-dominated (four full-mirror dense sweeps plus codec), so transport work moves little here",
    },
];

const fn timing(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// End-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    timing("setup_s", "s", Better::Lower, 0.25),
    timing("settle_s", "s", Better::Lower, 0.25),
    count("settle_iters", "count", Better::Lower, 0.25),
    timing("steps_per_s", "1/s", Better::Higher, 0.25),
    timing("step_p50_us", "us", Better::Lower, 0.25),
    timing("step_p95_us", "us", Better::Lower, 0.25),
    count("utility_ratio", "ratio", Better::Higher, 0.05),
    timing("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics. A workload that does not exercise a layer reports
/// `0` for it (README.md lists which workload feeds which metric).
pub const PER_LAYER: &[Layer] = &[
    // workload shape
    layer("workload.candidates", "count", Better::Lower),
    layer("workload.rejected", "count", Better::Lower),
    layer("settle.episodes", "count", Better::Higher),
    layer("settle.p50_ms", "ms", Better::Lower),
    layer("settle.p90_ms", "ms", Better::Lower),
    // set-up, by public call
    layer("model.generate_s", "s", Better::Lower),
    layer("solver.lp_s", "s", Better::Lower),
    layer("transform.build_s", "s", Better::Lower),
    layer("core.algorithm.new_s", "s", Better::Lower),
    // one core iteration and its five full sweeps
    layer("core.step.us", "us", Better::Lower),
    layer("core.cost.full_us", "us", Better::Lower),
    layer("core.blocked.sweep_us", "us", Better::Lower),
    layer("core.gamma.apply_us", "us", Better::Lower),
    layer("core.flows.sweep_us", "us", Better::Lower),
    layer("core.marginals.sweep_us", "us", Better::Lower),
    layer("core.step.sweeps_over_step", "ratio", Better::Higher),
    layer("core.live_arcs", "count", Better::Lower),
    layer("core.routers", "count", Better::Lower),
    layer("core.gamma.rows", "count", Better::Lower),
    // the write path
    layer("core.algorithm.admit_us", "us", Better::Lower),
    layer("core.algorithm.evict_us", "us", Better::Lower),
    layer("transform.add_commodity_us", "us", Better::Lower),
    layer("transform.remove_commodity_us", "us", Better::Lower),
    // the worker pool (noisy on a shared host; moves no end-to-end metric)
    layer("core.pool.threads", "count", Better::Higher),
    layer("core.pool.t2_step_us", "us", Better::Lower),
    layer("core.pool.t2_over_t1", "ratio", Better::Lower),
    // the paper's Figure 4 comparison (informational)
    layer("core.newton.step_us", "us", Better::Lower),
    layer("core.newton.iters_to_90", "count", Better::Lower),
    layer("baseline.step_us", "us", Better::Lower),
    layer("baseline.iters_to_90", "count", Better::Lower),
    layer("baseline.iters_over_gradient", "ratio", Better::Higher),
    // one mesh iteration: transport calls and the workers' self time
    layer("mesh.iter.us", "us", Better::Lower),
    layer("mesh.transport.begin_tick_us", "us", Better::Lower),
    layer("mesh.transport.ready_us", "us", Better::Lower),
    layer("mesh.transport.send_us", "us", Better::Lower),
    layer("mesh.transport.deliver_us", "us", Better::Lower),
    layer("mesh.transport.share", "ratio", Better::Lower),
    layer("mesh.transport.not_ready_polls", "count", Better::Lower),
    layer("mesh.transport.sends_per_iter", "count", Better::Lower),
    layer("mesh.worker.phase_us", "us", Better::Lower),
    // the wire
    layer("mesh.wire.bytes_per_iter", "B", Better::Lower),
    layer("mesh.wire.frames_per_iter", "count", Better::Lower),
    layer("mesh.wire.rows_sent", "count", Better::Lower),
    layer("mesh.wire.rows_suppressed", "count", Better::Higher),
    layer("mesh.wire.suppression_ratio", "ratio", Better::Higher),
    layer("mesh.wire.resyncs", "count", Better::Lower),
    layer("mesh.wire.decode_ns_per_byte", "ns/B", Better::Lower),
    layer("mesh.wire.encode_ns_per_byte", "ns/B", Better::Lower),
    layer("mesh.wire.walk_ns_per_byte", "ns/B", Better::Lower),
    layer("mesh.incidents", "count", Better::Lower),
    // bypass legs
    layer("mesh.inproc.iter_us", "us", Better::Lower),
    layer("mesh.tcp.iter_us", "us", Better::Lower),
    layer("mesh.over_core", "ratio", Better::Lower),
    layer("mesh.lossy.iters_to_90", "count", Better::Lower),
    layer("mesh.lossy.bytes_per_iter", "B", Better::Lower),
    layer("mesh.lossy.resyncs", "count", Better::Lower),
    // what tracing itself costs
    layer("trace.overhead", "ratio", Better::Lower),
];

/// Looks up an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn registry_obeys_the_manifest_grammar() {
        let mut seen = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
