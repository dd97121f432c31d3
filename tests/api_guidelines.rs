//! API-guideline conformance checks: public types are Send + Sync
//! (usable across threads), implement Debug, and errors are real
//! `std::error::Error`s.

fn assert_send_sync<T: Send + Sync>() {}
fn assert_debug<T: std::fmt::Debug>() {}
fn assert_error<T: std::error::Error>() {}

#[test]
fn core_types_are_send_sync_debug() {
    assert_send_sync::<spn::graph::DiGraph>();
    assert_send_sync::<spn::model::Problem>();
    assert_send_sync::<spn::transform::ExtendedNetwork>();
    assert_send_sync::<spn::core::GradientAlgorithm>();
    assert_send_sync::<spn::core::RoutingTable>();
    assert_send_sync::<spn::core::FlowState>();
    assert_send_sync::<spn::baseline::BackPressure>();
    assert_send_sync::<spn::sim::GradientSim>();
    assert_send_sync::<spn::sim::PacketSim>();
    assert_send_sync::<spn::solver::OptimalSolution>();
    assert_send_sync::<spn::solver::LinearProgram>();

    assert_debug::<spn::graph::DiGraph>();
    assert_debug::<spn::model::Problem>();
    assert_debug::<spn::transform::ExtendedNetwork>();
    assert_debug::<spn::core::GradientAlgorithm>();
    assert_debug::<spn::core::Report>();
    assert_debug::<spn::baseline::BackPressureReport>();
}

#[test]
fn mesh_wire_types_are_send_sync_debug() {
    assert_send_sync::<spn::mesh::MeshRuntime<spn::mesh::SocketTransport>>();
    assert_send_sync::<spn::mesh::RegionWorker>();
    assert_send_sync::<spn::mesh::FrameBuf>();
    assert_send_sync::<spn::mesh::Inbox>();
    assert_send_sync::<spn::mesh::LinkWireStats>();
    assert_send_sync::<spn::mesh::MeshWireStats>();
    assert_send_sync::<spn::core::gamma::GammaScratch>();
    assert_send_sync::<spn::core::LiveArcSweeps>();

    assert_debug::<spn::mesh::MeshReport>();
    assert_debug::<spn::mesh::MeshIncident>();
    assert_debug::<spn::mesh::FrameBuf>();
    assert_debug::<spn::mesh::Inbox>();
    assert_debug::<spn::mesh::LinkWireStats>();
    assert_debug::<spn::mesh::MeshWireStats>();
    assert_debug::<spn::core::gamma::GammaScratch>();
    assert_debug::<spn::core::LiveArcSweeps>();

    assert_error::<spn::mesh::WireError>();
    assert_send_sync::<spn::mesh::WireError>();
}

#[test]
fn error_types_implement_error() {
    assert_error::<spn::model::ModelError>();
    assert_error::<spn::core::ConfigError>();
    assert_error::<spn::solver::LpFailure>();
    assert_error::<spn::solver::SolveError>();
    assert_error::<spn::graph::CycleError>();
    // errors must also be Send + Sync to cross thread boundaries
    assert_send_sync::<spn::model::ModelError>();
    assert_send_sync::<spn::core::ConfigError>();
    assert_send_sync::<spn::solver::SolveError>();
}

/// Parallel use: solve independent instances on worker threads.
#[test]
fn algorithms_run_on_worker_threads() {
    use spn::core::{GradientAlgorithm, GradientConfig};
    use spn::model::random::RandomInstance;
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let p = RandomInstance::builder()
                    .nodes(14)
                    .commodities(2)
                    .seed(seed)
                    .build()
                    .unwrap()
                    .problem;
                let mut alg = GradientAlgorithm::new(&p, GradientConfig::default()).unwrap();
                alg.run(200).utility
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("worker completed") >= 0.0);
    }
}

/// Knob ratchet: `GradientConfig` is destructured and rebuilt with no
/// `..`, so a new field does not compile until this test names it —
/// every added knob shows up in review (9 today, one of them the inert
/// `threads` shim).
#[test]
#[allow(deprecated)] // `threads`, kept only for the frozen benchmark
fn gradient_config_knobs_are_listed() {
    use spn::core::GradientConfig;
    let GradientConfig {
        eta,
        epsilon,
        penalty,
        traffic_floor,
        opening_fraction,
        shift_cap,
        wall_threshold,
        wall_strength,
        threads,
    } = GradientConfig::default();
    let rebuilt = GradientConfig {
        eta,
        epsilon,
        penalty,
        traffic_floor,
        opening_fraction,
        shift_cap,
        wall_threshold,
        wall_strength,
        threads,
    };
    assert_eq!(rebuilt, GradientConfig::default());
    assert_eq!(rebuilt.validate(), Ok(()));
}

/// Export ratchet: the number of `pub fn`s in each library crate's
/// `src/` (not `pub(crate)` / `pub(super)`), pinned. A `pub fn` that no
/// other crate calls hides from `dead_code`, so a new export must be
/// declared here: raise the crate's pin in the same change. When an
/// export is narrowed or deleted, lower the pin.
///
/// Exemption: `Report::node_allocations` (spn-core) stays `pub` though
/// no other crate calls it — it is the one place §4's local resource
/// allocation is exposed (the `algorithm` module doc, PAPER_MAP).
const PUB_FNS: [(&str, usize); 8] = [
    ("baseline", 12),
    ("core", 97),
    ("graph", 36),
    ("mesh", 55),
    ("model", 82),
    ("sim", 56),
    ("solver", 17),
    ("transform", 53),
];

fn count_pub_fns(dir: &std::path::Path) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("readable src dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            count += count_pub_fns(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            count += text
                .lines()
                .map(str::trim_start)
                .filter(|l| {
                    ["pub fn ", "pub const fn ", "pub unsafe fn "]
                        .iter()
                        .any(|p| l.starts_with(p))
                })
                .count();
        }
    }
    count
}

#[test]
fn library_exports_are_declared() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for (krate, pinned) in PUB_FNS {
        let found = count_pub_fns(&root.join(krate).join("src"));
        assert!(
            found <= pinned,
            "spn-{krate} has {found} `pub fn`s, {pinned} declared: if another crate \
             calls the new one, raise its pin in PUB_FNS (tests/api_guidelines.rs); \
             otherwise make it `pub(crate)`"
        );
        assert_eq!(
            found, pinned,
            "spn-{krate} has {found} `pub fn`s, {pinned} declared: lower its pin in PUB_FNS"
        );
    }
}
