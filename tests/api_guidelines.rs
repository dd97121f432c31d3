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
    assert_send_sync::<spn::mesh::MeshRuntime<spn::mesh::Lossless>>();
    assert_send_sync::<spn::mesh::MeshRuntime<spn::mesh::Chaotic>>();
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
