//! Inert shims of the retired blocked sets (§5, eqs. (14) and (18)).
//!
//! Gallager's blocked sets keep a routing update from closing a loop.
//! Every commodity subgraph here is a DAG by construction
//! (`ExtendedNetwork::add_commodity` refuses a cycle, and
//! [`RoutingTable::is_loop_free`](crate::routing::RoutingTable::is_loop_free)
//! checks it), so the tags could only shape trajectories — and on the
//! paper family they shaped them badly (DESIGN.md §4a, item 5).
//! No driver computes them: Γ moves mass toward the cheapest out-edge
//! with no blocked set.
//!
//! What is left are names the frozen `benchmark/` surface still calls:
//! [`BlockedTags::none`], [`compute_tags_into`] and the ignored `_tags`
//! parameter of [`apply_gamma_ws`](crate::gamma::apply_gamma_ws). They
//! do nothing; the next `[benchmark]` PR removes them.

use crate::cost::CostModel;
use crate::flows::FlowState;
use crate::marginals::Marginals;
use crate::routing::RoutingTable;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;

/// Inert shim: an empty tag set, accepted and ignored. Kept only so the
/// frozen `benchmark/` surface compiles; the next `[benchmark]` PR
/// removes it.
#[deprecated(note = "ignored: no driver has blocked sets; the next benchmark PR removes it")]
#[derive(Clone, Debug)]
pub struct BlockedTags;

#[allow(deprecated)]
impl BlockedTags {
    /// The empty tag set.
    #[must_use]
    pub fn none(_ext: &ExtendedNetwork) -> Self {
        BlockedTags
    }
}

/// Inert shim: computes nothing. Kept only so the frozen `benchmark/`
/// surface compiles; the next `[benchmark]` PR removes it.
#[deprecated(note = "ignored: no driver has blocked sets; the next benchmark PR removes it")]
#[allow(clippy::too_many_arguments, deprecated)] // the retired signature
pub fn compute_tags_into(
    _ext: &ExtendedNetwork,
    _cost: &CostModel,
    _routing: &RoutingTable,
    _state: &FlowState,
    _marginals: &Marginals,
    _eta: f64,
    _traffic_floor: f64,
    _out: &mut BlockedTags,
    _pool: Option<Infallible>,
) {
}
