//! Round-based message-level simulator of the distributed protocols.
//!
//! `spn-core` runs the gradient algorithm as synchronous in-process
//! sweeps. This crate executes the *same* iteration as the paper
//! describes it operationally — per-node protocol state, messages
//! delivered one hop per round — and accounts for the communication:
//!
//! * [`waves`] — the marginal-cost wave (upstream) and flow-forecast
//!   wave (downstream) with per-round scheduling and message counters;
//! * [`gradient_sim::GradientSim`] — the full iteration (waves + local
//!   Γ update), state-equivalent to [`spn_core::GradientAlgorithm`]
//!   up to floating-point summation order;
//! * [`bp_sim::BackPressureSim`] — the baseline with its `O(1)`-round,
//!   fixed-message-count accounting;
//! * [`failure`] — capacity-collapse failure injection and recovery
//!   measurement (experiment E8);
//! * [`chaos`] — the one fault-injecting gradient driver: seeded
//!   message loss, bounded staleness, duplicated updates, scheduled
//!   transient failures, capacity jitter and partial-participation
//!   schedules (experiments E8b and E10), guarded by `spn_core`'s
//!   non-finite scan and checkpoint/rollback recovery;
//! * [`draws`] — the seeded fault-draw primitives (`unit_hash` and the
//!   salted coin families) shared by [`chaos`] and the `spn-mesh`
//!   transport, so every fault injector replays from one generator;
//! * [`churn`] — seeded online commodity arrival/departure driving
//!   `spn_core`'s incremental admit/evict reshapes mid-run;
//! * [`packet`] — discrete-time queued execution of a converged fluid
//!   solution under bursty arrivals (experiment E14: the fluid model is
//!   implementable, and penalty headroom buys bounded queues).
//!
//! Together these regenerate the paper's §6 message-cost discussion:
//! a gradient iteration costs `O(L)` rounds (`L` = longest pipeline
//! path) while a back-pressure iteration costs `O(1)` (experiment E4).

pub mod bp_sim;
pub mod chaos;
pub mod churn;
pub mod draws;
pub mod failure;
pub mod gradient_sim;
pub mod packet;
pub mod waves;

pub use bp_sim::BackPressureSim;
pub use chaos::{
    ChaosConfig, ChaosGradient, ChaosIncident, ChaosStep, FaultPlan, FaultTarget, Schedule,
    ScheduledFault,
};
pub use churn::{ChurnConfig, ChurnEvent, ChurnProcess, ChurnReport};
pub use gradient_sim::{GradientSim, IterationStats};
pub use packet::{PacketConfig, PacketSim};
pub use waves::WaveOutcome;
