//! # spn — stream processing networks with max utility
//!
//! A production-quality Rust reproduction of *"Distributed Resource
//! Management and Admission Control of Stream Processing Systems with Max
//! Utility"* (Xia, Towsley, Zhang — ICDCS 2007).
//!
//! This facade crate re-exports the whole workspace so downstream users
//! can depend on a single crate:
//!
//! * [`graph`] — directed-graph substrate (topological order and cycle
//!   detection, reachability, paths).
//! * [`model`] — the stream processing model: commodities, shrinkage
//!   factors, utilities, penalties, capacities, and the seeded random
//!   instance generator matching the paper's evaluation setup.
//! * [`transform`] — the paper's §3 graph transformations: bandwidth
//!   nodes (unifying CPU and link resources) and dummy nodes (mapping
//!   admission control into routing).
//! * [`solver`] — centralized optimum: a from-scratch dense simplex LP
//!   solver with an arc-flow encoding of the shrinkage multicommodity
//!   flow problem and piecewise-linear concave utilities.
//! * [`core`] — **the paper's contribution**: the distributed
//!   gradient-based algorithm for joint admission control, routing and
//!   resource allocation (§4–5).
//! * [`baseline`] — the back-pressure comparator from the authors'
//!   earlier SIGMETRICS 2006 work.
//! * [`sim`] — a round-based message-passing simulator that runs the
//!   distributed protocols as explicit messages, counts them, and injects
//!   failures.
//! * [`mesh`] — the region-sharded mesh runtime: workers own disjoint
//!   server ranges, each router with the server that runs it, exchange
//!   serialized Γ rows — one tick per iteration — over a
//!   fault-injectable transport, and recover through retries,
//!   heartbeats, and epoch-fenced checkpoints.
//!
//! # Quickstart
//!
//! ```
//! use spn::model::random::{RandomInstance, RandomInstanceConfig};
//! use spn::core::{GradientAlgorithm, GradientConfig};
//!
//! // A small seeded instance in the style of the paper's evaluation.
//! let instance = RandomInstance::builder()
//!     .nodes(12)
//!     .commodities(2)
//!     .seed(7)
//!     .build()
//!     .expect("valid instance");
//! let problem = instance.problem;
//!
//! let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default())
//!     .expect("well-formed problem");
//! for _ in 0..200 {
//!     alg.step();
//! }
//! let report = alg.report();
//! assert!(report.utility >= 0.0);
//! # let _ = RandomInstanceConfig::default();
//! ```

pub use spn_baseline as baseline;
pub use spn_core as core;
pub use spn_graph as graph;
pub use spn_mesh as mesh;
pub use spn_model as model;
pub use spn_sim as sim;
pub use spn_solver as solver;
pub use spn_transform as transform;
