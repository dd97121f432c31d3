//! The paper's primary contribution: a **distributed gradient-based
//! algorithm for joint source admission control, data routing, and
//! resource allocation** in stream processing networks (§4–5 of Xia,
//! Towsley, Zhang — ICDCS 2007).
//!
//! The algorithm runs on the extended graph of
//! [`spn_transform::ExtendedNetwork`], where both resource types are
//! per-node constraints and admission control has become routing at the
//! dummy sources. Its state is a routing variable set
//! ([`routing::RoutingTable`]); each iteration
//!
//! 1. forecasts flows under the current decision ([`flows`], eqs. (3)–(5)),
//! 2. sweeps marginal costs upstream from the sinks ([`marginals`],
//!    eq. (9)) with loop-freedom tags piggybacked ([`blocked`],
//!    eq. (18)), and
//! 3. applies the routing update Γ ([`gamma`], eqs. (14)–(17)).
//!
//! [`GradientAlgorithm`] drives the loop and reports solutions in
//! problem terms (admitted rates, utility, physical loads);
//! [`metrics::ConvergenceTracker`] answers the evaluation's questions
//! (iterations to 95% of optimal, monotonicity).
//!
//! # Example
//!
//! ```
//! use spn_core::{GradientAlgorithm, GradientConfig};
//! use spn_model::random::RandomInstance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instance = RandomInstance::builder().nodes(15).commodities(2).seed(3).build()?;
//! let mut alg = GradientAlgorithm::new(
//!     &instance.problem,
//!     GradientConfig { eta: 0.2, ..GradientConfig::default() },
//! )?;
//! let report = alg.run(300);
//! assert!(report.utility > 0.0); // admission grew from zero
//! assert!(report.max_utilization <= 1.0 + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod active;
pub mod algorithm;
pub mod blocked;
pub mod checkpoint;
pub mod cost;
pub mod flows;
pub mod gamma;
pub mod health;
pub mod marginals;
pub mod metrics;
pub mod newton;
pub mod routing;
mod step;
pub mod workspace;

pub use active::LiveArcSweeps;
pub use algorithm::{
    ConfigError, GradientAlgorithm, GradientConfig, Report, StableOutcome, StepStats,
};
pub use checkpoint::Checkpoint;
pub use cost::{CostModel, TotalCostCache};
pub use flows::FlowState;
pub use health::{
    Action, CoreError, HealthReport, Incident, StateDomain, Watchdog, WatchdogConfig,
};
pub use marginals::Marginals;
pub use newton::NewtonGradient;
pub use routing::RoutingTable;
pub use spn_transform::CommodityDef;
pub use workspace::IterationWorkspace;
