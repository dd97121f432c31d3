//! The paper's §3 graph transformations.
//!
//! The original problem allocates two different resources — computing
//! power per node and bandwidth per link — and needs admission control
//! at sources even though the optimal injection rates are unknown until
//! the optimization is solved. Two transformations reduce it to a pure
//! routing problem with a single per-node resource constraint:
//!
//! 1. **Bandwidth nodes** — every physical edge `(i, k)` is split
//!    through a new node `n_ik` of capacity `B_ik`. The *ingress* half
//!    `(i, n_ik)` inherits the processing parameters `(c^j_ik, β^j_ik)`;
//!    the *egress* half `(n_ik, k)` costs one unit of `n_ik`'s resource
//!    (bandwidth) per unit of flow and conserves it (`c = 1`, `β = 1`).
//!    After this, "the original problem of allocating two different
//!    resources is transformed into a unified resource allocation
//!    problem with a single resource constraint on each node."
//!
//! 2. **Dummy nodes** — every commodity gets an unconstrained dummy
//!    source `s̄_j` receiving the full offered load `λ_j`, a *dummy
//!    input link* `(s̄_j, s_j)` carrying the admitted traffic `a_j`, and
//!    a *dummy difference link* `(s̄_j, sink_j)` carrying the rejected
//!    remainder `λ_j − a_j` at a cost equal to the utility loss
//!    `Y(x) = U_j(λ_j) − U_j(λ_j − x)` (eq. (1)). Maximizing utility is
//!    then exactly minimizing total cost over the extended graph, and
//!    admission control *is* routing at `s̄_j`.
//!
//! The result is an [`ExtendedNetwork`]: an original graph with `N`
//! nodes, `M` edges and `J` commodities becomes a new graph with
//! `N + M + J` nodes and `2M + 2J` edges (checked by tests).

pub mod extended;
pub mod view;

pub use extended::{CommodityDef, EdgeKind, ExtendedNetwork, MemberView, NodeKind};
