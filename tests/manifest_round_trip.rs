//! Experiment manifests: a problem serialized to JSON and reloaded
//! yields byte-identical behavior from both the solver and the
//! distributed algorithm (reproducibility across processes).

use spn::core::{GradientAlgorithm, GradientConfig};
use spn::model::random::RandomInstance;
use spn::model::spec::ProblemSpec;
use spn::sim::draws::unit_hash;
use spn::solver::arcflow::solve_linear_utility;

#[test]
fn reloaded_manifest_reproduces_results_exactly() {
    let original = RandomInstance::builder()
        .nodes(20)
        .commodities(2)
        .seed(33)
        .build()
        .unwrap()
        .problem;
    let json = ProblemSpec::from(&original).to_json().unwrap();
    let reloaded = ProblemSpec::from_json(&json)
        .unwrap()
        .into_problem()
        .unwrap();

    // LP optima agree to the bit (identical arithmetic on identical data)
    let a = solve_linear_utility(&original).unwrap();
    let b = solve_linear_utility(&reloaded).unwrap();
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());

    // gradient trajectories agree to the bit
    let mut x = GradientAlgorithm::new(&original, GradientConfig::default()).unwrap();
    let mut y = GradientAlgorithm::new(&reloaded, GradientConfig::default()).unwrap();
    for _ in 0..200 {
        x.step();
        y.step();
    }
    assert_eq!(x.report().utility.to_bits(), y.report().utility.to_bits());
    assert_eq!(x.report().admitted.len(), y.report().admitted.len());
    for (p, q) in x.report().admitted.iter().zip(&y.report().admitted) {
        assert_eq!(p.to_bits(), q.to_bits());
    }
}

#[test]
fn manifest_survives_double_round_trip() {
    let problem = RandomInstance::builder()
        .nodes(16)
        .commodities(3)
        .seed(7)
        .build()
        .unwrap()
        .problem;
    let spec1 = ProblemSpec::from(&problem);
    let json1 = spec1.to_json().unwrap();
    let spec2 = ProblemSpec::from_json(&json1).unwrap();
    let json2 = spec2.to_json().unwrap();
    assert_eq!(json1, json2, "JSON encoding must be a fixed point");
}

/// The JSON number tokens of `text`, as byte spans.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let starts = bytes[at] == b'-' || bytes[at].is_ascii_digit();
        // a digit inside a string (a key or a tag) is no number token
        let in_word = at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        if starts && !in_word {
            let end = at
                + bytes[at..]
                    .iter()
                    .position(|&b| !(b.is_ascii_digit() || b"+-.eE".contains(&b)))
                    .unwrap_or(bytes.len() - at);
            spans.push((at, end));
            at = end;
        } else {
            at += 1;
        }
    }
    spans
}

/// One seeded mutant of `spec`, as manifest text: one to three numbers
/// replaced by an extreme value, an index field redrawn (out of range
/// or a self-loop among the draws), an element deleted, or the text
/// truncated. `draw(k)` is the mutant's `k`-th uniform draw.
fn manifest_mutant(spec: &ProblemSpec, draw: impl Fn(usize) -> f64) -> String {
    const VALUES: [&str; 14] = [
        "0",
        "-1",
        "1",
        "1e308",
        "1e-320",
        "4294967295",
        "4294967296",
        "2",
        "0.5",
        "-0",
        "1e-9",
        "-1e308",
        "3",
        "18446744073709551616",
    ];
    let pick = |k: usize, n: usize| ((draw(k) * n as f64) as usize).min(n.max(1) - 1);
    let mut spec = spec.clone();
    match pick(0, 4) {
        // number substitutions, in the text
        0 => {
            let mut text = spec.to_json().unwrap();
            for k in 0..1 + pick(1, 3) {
                let spans = number_spans(&text);
                let (start, end) = spans[pick(2 + 2 * k, spans.len())];
                text.replace_range(start..end, VALUES[pick(3 + 2 * k, VALUES.len())]);
            }
            return text;
        }
        // index edits: an endpoint or an overlay edge index redrawn
        1 => {
            let (n, m) = (spec.node_capacities.len(), spec.edges.len());
            let node = pick(2, n + 2) as u32;
            let c = pick(3, spec.commodities.len());
            match pick(1, 5) {
                0 if m > 0 => spec.edges[pick(3, m)].src = node,
                1 if m > 0 => spec.edges[pick(3, m)].dst = node,
                2 => spec.commodities[c].source = node,
                3 => spec.commodities[c].sink = node,
                _ => {
                    let overlay = &mut spec.commodities[c].overlay;
                    if !overlay.is_empty() {
                        let at = pick(4, overlay.len());
                        overlay[at].edge = pick(5, m + 2) as u32;
                    }
                }
            }
        }
        // element deletions
        2 => match pick(1, 4) {
            0 => {
                let at = pick(2, spec.node_capacities.len());
                spec.node_capacities.remove(at);
            }
            1 if !spec.edges.is_empty() => {
                let at = pick(2, spec.edges.len());
                spec.edges.remove(at);
            }
            2 => {
                let at = pick(2, spec.commodities.len());
                spec.commodities.remove(at);
            }
            _ => {
                let c = pick(2, spec.commodities.len());
                let overlay = &mut spec.commodities[c].overlay;
                if !overlay.is_empty() {
                    let at = pick(3, overlay.len());
                    overlay.remove(at);
                }
            }
        },
        // truncations
        _ => {
            let text = spec.to_json().unwrap();
            return text[..pick(1, text.len())].to_string();
        }
    }
    spec.to_json().unwrap()
}

/// ROADMAP item 23, the manifest boundary under a seeded mutation
/// corpus (Finding 11: a self-loop edge used to reach `DiGraph::add_edge`'s
/// assert). Every mutant goes through `from_json → into_problem →
/// solve_linear_utility → GradientAlgorithm::new → 50 steps → report`
/// under `catch_unwind`: none panics, each either stops at an error or
/// runs, and both outcomes occur.
#[test]
fn a_seeded_manifest_mutation_corpus_never_panics() {
    const SEED: u64 = 0x4D41_4E49;
    const INSTANCES: u64 = 10;
    const MUTANTS: usize = 210;
    let mut panics = Vec::new();
    let (mut refused, mut ran) = (0, 0);
    for instance in 0..INSTANCES {
        let problem = RandomInstance::builder()
            .nodes(8)
            .commodities(1 + instance as usize % 2)
            .seed(instance + 1)
            .build()
            .unwrap()
            .problem;
        let spec = ProblemSpec::from(&problem);
        for k in 0..MUTANTS {
            let draw = |d: usize| unit_hash(SEED ^ instance, k, d, 0);
            let text = manifest_mutant(&spec, draw);
            let outcome = std::panic::catch_unwind(|| {
                let problem = ProblemSpec::from_json(&text)
                    .map_err(|e| e.to_string())?
                    .into_problem()
                    .map_err(|e| e.to_string())?;
                solve_linear_utility(&problem).map_err(|e| e.to_string())?;
                let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default())
                    .map_err(|e| e.to_string())?;
                for _ in 0..50 {
                    alg.step();
                }
                Ok::<_, String>(alg.report().utility)
            });
            match outcome {
                Err(_) => panics.push((instance, k, text)),
                Ok(Err(_)) => refused += 1,
                Ok(Ok(_)) => ran += 1,
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {} mutants panicked; first: instance {}, mutant {}:\n{}",
        panics.len(),
        INSTANCES as usize * MUTANTS,
        panics[0].0,
        panics[0].1,
        panics[0].2
    );
    assert!(INSTANCES as usize * MUTANTS >= 2000);
    assert!(refused > 0 && ran > 0, "{refused} refused, {ran} ran");
}
