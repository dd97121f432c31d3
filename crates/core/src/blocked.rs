//! Blocked sets `B_i(j)` for loop-freedom (§5, eq. (18)).
//!
//! A node `k` is *blocked* relative to destination `j` if some routing
//! path from `k` to `j` contains an **improper sticky link** `(l, m)`:
//! one with positive fraction routed toward non-decreasing marginal cost
//! (`φ_lm(j) > 0` and `∂A/∂r_l(j) ≤ ∂A/∂r_m(j)`) that this iteration's
//! update cannot close (eq. (18)). Nodes learn this through a tag
//! piggybacked on the marginal-cost broadcast: a node tags its value if
//! it has such a link or if any positive-fraction downstream neighbor's
//! value arrived tagged. The blocked set `B_i(j)` then contains the
//! out-neighbors `k` of `i` with `φ_ik(j) = 0` whose broadcast was
//! tagged — and the Γ update may not move mass onto them.
//!
//! In Gallager's general setting this is what prevents routing loops.
//! In this system the per-commodity extended subgraphs are DAGs, so
//! loops are impossible regardless; we implement the mechanism faithfully
//! (it also shapes trajectories by delaying mass shifts toward congested
//! regions) and expose a switch to disable it for ablation (experiment
//! code compares both).
//!
//! [`compute_tags_into`] reuses the caller's tag buffer (no heap
//! allocation once warm); [`compute_tags`] is the allocating wrapper.
//! Each commodity writes only its own row.

use crate::cost::CostModel;
use crate::flows::{FlowState, UsageView};
use crate::marginals::Marginals;
use crate::routing::RoutingTable;
use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;

/// Per-commodity tag vectors, stored flat (`tagged[j·V + v]`): node
/// `v`'s broadcast for destination `j` carried the blocking tag.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockedTags {
    pub(crate) tagged: Vec<bool>,
    pub(crate) v_count: usize,
}

impl BlockedTags {
    /// A tag set that blocks nothing (used when the mechanism is
    /// disabled).
    #[must_use]
    pub fn none(ext: &ExtendedNetwork) -> Self {
        let v_count = ext.graph().node_count();
        BlockedTags {
            tagged: vec![false; ext.num_commodities() * v_count],
            v_count,
        }
    }

    /// Builds a tag set from raw per-commodity vectors (crate-internal:
    /// used by tests and by the simulator, which computes tags from
    /// received messages).
    ///
    /// # Panics
    ///
    /// Panics if the per-commodity rows have unequal lengths.
    #[doc(hidden)]
    #[must_use]
    pub fn from_raw(rows: Vec<Vec<bool>>) -> Self {
        let v_count = rows.first().map_or(0, Vec::len);
        let mut tagged = Vec::with_capacity(rows.len() * v_count);
        for row in &rows {
            assert_eq!(row.len(), v_count, "tag row length mismatch");
            tagged.extend_from_slice(row);
        }
        BlockedTags { tagged, v_count }
    }

    /// Resizes the buffer for `ext` and clears every tag — the
    /// allocation-free equivalent of [`BlockedTags::none`] once warm.
    pub fn reset(&mut self, ext: &ExtendedNetwork) {
        self.v_count = ext.graph().node_count();
        self.tagged.clear();
        self.tagged
            .resize(ext.num_commodities() * self.v_count, false);
    }

    /// Whether node `v`'s broadcast for destination `j` was tagged.
    #[must_use]
    pub fn is_tagged(&self, j: CommodityId, v: NodeId) -> bool {
        self.tagged[j.index() * self.v_count + v.index()]
    }

    /// Commodity-`j` tag row, indexed by extended node.
    pub(crate) fn row(&self, j: CommodityId) -> &[bool] {
        &self.tagged[j.index() * self.v_count..(j.index() + 1) * self.v_count]
    }

    /// Whether the Γ update at node `i` may *not* move mass onto the
    /// edge toward `k`: true exactly when `k ∈ B_i(j)`, i.e. `k` is
    /// tagged and the current fraction is zero.
    #[must_use]
    pub fn is_blocked(
        &self,
        routing: &RoutingTable,
        j: CommodityId,
        l: spn_graph::EdgeId,
        ext: &ExtendedNetwork,
    ) -> bool {
        routing.fraction(j, l) == 0.0 && self.is_tagged(j, ext.graph().target(l))
    }
}

/// One commodity's reverse tag sweep (caller-cleared row). `phi` is the
/// commodity's fraction row, `t_row`/`d_row` its traffic and marginal
/// rows, and `usage` the shared usage totals — the only cross-commodity
/// data the sweep reads.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub(crate) fn tag_sweep(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    t_row: &[f64],
    usage: UsageView<'_>,
    d_row: &[f64],
    eta: f64,
    traffic_floor: f64,
    j: CommodityId,
    tagged: &mut [bool],
) {
    for &v in ext.topo_order(j).iter().rev() {
        let mut tag = false;
        let t_v = t_row[v.index()];
        let dv = d_row[v.index()];
        for &l in ext.commodity_out_slice(j, v) {
            let phi = phi[l.index()];
            if phi <= 0.0 {
                continue;
            }
            let head = ext.graph().target(l);
            // inherited tag travels every positive-fraction link
            if tagged[head.index()] {
                tag = true;
                break;
            }
            // improper link: routes toward non-decreasing marginal
            let dm = d_row[head.index()];
            if dv <= dm && t_v > traffic_floor {
                // sticky (eq. (18)): this iteration cannot close it
                let excess = cost.edge_marginal_view(ext, usage, j, l, dm) - dv;
                if phi >= eta * excess / t_v {
                    tag = true;
                    break;
                }
            }
        }
        tagged[v.index()] = tag;
    }
}

/// [`tag_sweep`] over a commodity's live-arc sub-list (the active-set
/// engine's tag pass). The caller pre-fills the row with `false`; only
/// router entries are recomputed — the dense sweep writes `false` for
/// every node without positive-fraction out-edges, so the result is
/// identical. Live arcs have `phi > 0` by construction, which is
/// exactly the dense sweep's per-arc filter; the early-`break` visits
/// the same arcs in the same order.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub(crate) fn tag_sweep_active(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    t_row: &[f64],
    usage: UsageView<'_>,
    d_row: &[f64],
    eta: f64,
    traffic_floor: f64,
    j: CommodityId,
    tagged: &mut [bool],
    arc_len: &[u32],
    arcs: &[EdgeId],
    live: usize,
) {
    let routers = ext.commodity_routers_topo(j);
    let mut idx = live;
    for r in (0..routers.len()).rev() {
        let v = routers[r];
        let n = arc_len[r] as usize;
        idx -= n;
        let row = &arcs[idx..idx + n];
        let mut tag = false;
        let t_v = t_row[v.index()];
        let dv = d_row[v.index()];
        for &l in row {
            let phi = phi[l.index()];
            debug_assert!(phi > 0.0, "live arc {l} with non-positive fraction");
            let head = ext.graph().target(l);
            // inherited tag travels every positive-fraction link
            if tagged[head.index()] {
                tag = true;
                break;
            }
            // improper link: routes toward non-decreasing marginal
            let dm = d_row[head.index()];
            if dv <= dm && t_v > traffic_floor {
                // sticky (eq. (18)): this iteration cannot close it
                let excess = cost.edge_marginal_view(ext, usage, j, l, dm) - dv;
                if phi >= eta * excess / t_v {
                    tag = true;
                    break;
                }
            }
        }
        tagged[v.index()] = tag;
    }
    debug_assert_eq!(idx, 0, "live-arc prefix mismatch for {j}");
}

/// Computes the blocking tags for every commodity into a caller-owned
/// tag set (one reverse sweep per commodity, mirroring the §5 broadcast
/// protocol) — the dense reference sweep, allocation-free once warm.
///
/// `_pool` is an inert shim: `None` is its only value. It exists so the
/// frozen `benchmark/` surface compiles; the next `[benchmark]` PR
/// removes it.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub fn compute_tags_into(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    eta: f64,
    traffic_floor: f64,
    out: &mut BlockedTags,
    _pool: Option<Infallible>,
) {
    out.reset(ext);
    let v_count = out.v_count;
    for (ji, row) in out.tagged.chunks_mut(v_count.max(1)).enumerate() {
        let j = CommodityId::from_index(ji);
        tag_sweep(
            ext,
            cost,
            routing.row(j),
            state.t_row(j),
            state.usage_view(),
            marginals.row(j),
            eta,
            traffic_floor,
            j,
            row,
        );
    }
}

/// Computes the blocking tags for every commodity (allocating wrapper
/// over [`compute_tags_into`]).
///
/// `eta` is the Γ scale factor and `traffic_floor` the threshold below
/// which a node's traffic is treated as zero (eq. (18) divides by
/// `t_l(j)`; with no traffic the update can close any link instantly, so
/// the link is never sticky).
#[must_use]
pub fn compute_tags(
    ext: &ExtendedNetwork,
    cost: &CostModel,
    routing: &RoutingTable,
    state: &FlowState,
    marginals: &Marginals,
    eta: f64,
    traffic_floor: f64,
) -> BlockedTags {
    let mut out = BlockedTags::none(ext);
    compute_tags_into(
        ext,
        cost,
        routing,
        state,
        marginals,
        eta,
        traffic_floor,
        &mut out,
        None,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::compute_flows;
    use crate::marginals::compute_marginals;
    use spn_model::builder::ProblemBuilder;
    use spn_model::{Penalty, UtilityFn};

    fn cm() -> CostModel {
        CostModel::new(Penalty::default(), 0.2)
    }

    fn diamond() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(30.0);
        let x = b.server(5.0); // tight
        let y = b.server(40.0);
        let t = b.server(30.0);
        let e_sx = b.link(s, x, 15.0);
        let e_sy = b.link(s, y, 25.0);
        let e_xt = b.link(x, t, 15.0);
        let e_yt = b.link(y, t, 25.0);
        let j = b.commodity(s, t, 6.0, UtilityFn::throughput());
        b.uses(j, e_sx, 2.0, 1.0)
            .uses(j, e_sy, 1.5, 1.0)
            .uses(j, e_xt, 1.0, 1.0)
            .uses(j, e_yt, 2.5, 1.0);
        ExtendedNetwork::build(&b.build().unwrap())
    }

    #[test]
    fn none_blocks_nothing() {
        let ext = diamond();
        let tags = BlockedTags::none(&ext);
        let j = CommodityId::from_index(0);
        for v in ext.graph().nodes() {
            assert!(!tags.is_tagged(j, v));
        }
    }

    #[test]
    fn zero_load_network_is_untagged() {
        // full rejection: all marginals inside the network are tiny and
        // decrease strictly toward the sink, no improper links
        let ext = diamond();
        let rt = RoutingTable::initial(&ext);
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let tags = compute_tags(&ext, &cm(), &rt, &fs, &m, 0.04, 1e-12);
        let j = CommodityId::from_index(0);
        for v in ext.graph().nodes() {
            assert!(!tags.is_tagged(j, v), "{v} tagged in an idle network");
        }
    }

    #[test]
    fn tags_propagate_upstream_of_improper_links() {
        // force an improper link: route everything through the tight
        // node x, creating a steep marginal at x while the alternative
        // at s is flat. Then the s→x link routes toward a *higher*
        // marginal and (with large eta excess) is sticky.
        let ext = diamond();
        let j = CommodityId::from_index(0);
        let mut rt = RoutingTable::initial(&ext);
        rt.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 1.0), (ext.difference_edge(j), 0.0)],
        );
        let s = ext.commodity(j).source();
        let outs: Vec<_> = ext.commodity_out_edges(j, s).collect();
        // all mass toward x (outs[0] is the s→bw(sx) ingress)
        rt.set_row(&ext, j, s, &[(outs[0], 1.0), (outs[1], 0.0)]);
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        // an artificial marginal inversion: make the bw node of s→x look
        // worse than its own downstream. Rather than fabricating, check
        // the mechanism on whatever the real marginals are: if any
        // improper sticky link exists, its upstream nodes must be tagged.
        let tags = compute_tags(&ext, &cm(), &rt, &fs, &m, 1e6, 1e-12);
        // with an enormous eta the stickiness condition (18) is hard to
        // satisfy, so this may or may not tag; with eta → 0 every
        // improper link is sticky:
        let tags_small = compute_tags(&ext, &cm(), &rt, &fs, &m, 1e-12, 1e-12);
        let any_improper = ext.graph().nodes().any(|v| {
            ext.commodity_out_edges(j, v).any(|l| {
                rt.fraction(j, l) > 0.0
                    && m.node(j, v) <= m.node(j, ext.graph().target(l))
                    && v != ext.commodity(j).sink()
            })
        });
        if any_improper {
            assert!(
                ext.graph().nodes().any(|v| tags_small.is_tagged(j, v)),
                "improper link exists but nothing tagged at eta→0"
            );
        }
        // sanity: tag sets shrink (weakly) as eta grows
        for v in ext.graph().nodes() {
            if tags.is_tagged(j, v) {
                assert!(tags_small.is_tagged(j, v));
            }
        }
    }

    #[test]
    fn blocked_requires_zero_fraction() {
        let ext = diamond();
        let j = CommodityId::from_index(0);
        let rt = RoutingTable::initial(&ext);
        let mut tags = BlockedTags::none(&ext);
        // tag everything; only φ=0 edges become blocked
        tags.tagged.iter_mut().for_each(|b| *b = true);
        for v in ext.graph().nodes() {
            for l in ext.commodity_out_edges(j, v) {
                let blocked = tags.is_blocked(&rt, j, l, &ext);
                assert_eq!(blocked, rt.fraction(j, l) == 0.0);
            }
        }
    }

    #[test]
    fn into_variant_matches_fresh_on_a_reused_buffer() {
        let ext = diamond();
        let j = CommodityId::from_index(0);
        let mut rt = RoutingTable::initial(&ext);
        rt.set_row(
            &ext,
            j,
            ext.dummy_source(j),
            &[(ext.input_edge(j), 1.0), (ext.difference_edge(j), 0.0)],
        );
        let fs = compute_flows(&ext, &rt);
        let m = compute_marginals(&ext, &cm(), &rt, &fs);
        let reference = compute_tags(&ext, &cm(), &rt, &fs, &m, 1e-12, 1e-12);
        let mut reused = BlockedTags::none(&ext);
        for _ in 0..2 {
            compute_tags_into(&ext, &cm(), &rt, &fs, &m, 1e-12, 1e-12, &mut reused, None);
            assert_eq!(reused, reference);
        }
    }
}
