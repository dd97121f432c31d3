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

use crate::active::LiveRow;
use crate::cost::CostModel;
use crate::flows::{FlowState, UsageView};
use crate::marginals::Marginals;
use crate::routing::RoutingTable;
use spn_graph::NodeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::convert::Infallible;

/// Per-commodity tag rows, ragged and keyed by member position
/// (`tagged[ext.member_range(j)][p]`): member `p`'s broadcast for
/// destination `j` carried the blocking tag. A node outside the
/// commodity broadcasts nothing for it and is never tagged.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockedTags {
    pub(crate) tagged: Vec<bool>,
}

impl BlockedTags {
    /// A tag set that blocks nothing (used when the mechanism is
    /// disabled).
    #[must_use]
    pub fn none(ext: &ExtendedNetwork) -> Self {
        BlockedTags {
            tagged: vec![false; ext.member_total()],
        }
    }

    /// Builds a tag set from raw per-commodity vectors indexed by
    /// extended node (crate-internal: used by tests and by the
    /// simulator, which computes tags from received messages). Entries
    /// at nodes outside a commodity are not kept.
    ///
    /// # Panics
    ///
    /// Panics unless there is one row per commodity, each with one
    /// entry per extended node.
    #[doc(hidden)]
    #[must_use]
    pub fn from_raw(ext: &ExtendedNetwork, rows: &[Vec<bool>]) -> Self {
        assert_eq!(rows.len(), ext.num_commodities(), "one row per commodity");
        let mut tagged = Vec::with_capacity(ext.member_total());
        for (j, row) in ext.commodity_ids().zip(rows) {
            assert_eq!(
                row.len(),
                ext.graph().node_count(),
                "tag row length mismatch"
            );
            tagged.extend(ext.commodity_member_nodes(j).iter().map(|v| row[v.index()]));
        }
        BlockedTags { tagged }
    }

    /// Resizes the buffer for `ext` and clears every tag — the
    /// allocation-free equivalent of [`BlockedTags::none`] once warm.
    pub fn reset(&mut self, ext: &ExtendedNetwork) {
        self.tagged.clear();
        self.tagged.resize(ext.member_total(), false);
    }

    /// Whether node `v`'s broadcast for destination `j` was tagged
    /// (`false` for a node outside the commodity).
    #[must_use]
    pub fn is_tagged(&self, ext: &ExtendedNetwork, j: CommodityId, v: NodeId) -> bool {
        ext.member_pos(j, v)
            .is_some_and(|p| self.tagged[ext.member_range(j).start + p])
    }

    /// Commodity-`j` tag row, indexed by member position.
    pub(crate) fn row(&self, ext: &ExtendedNetwork, j: CommodityId) -> &[bool] {
        &self.tagged[ext.member_range(j)]
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
        routing.fraction(j, l) == 0.0 && self.is_tagged(ext, j, ext.graph().target(l))
    }
}

/// One commodity's reverse tag sweep (caller-cleared row). `phi` is the
/// commodity's fraction row, `t_row`/`d_row` its traffic and marginal
/// rows and `tagged` its tag row (all three by member position), and
/// `usage` the shared usage totals — the only cross-commodity data the
/// sweep reads.
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
    let m = ext.members(j);
    for &p in m.topo().iter().rev() {
        let p = p as usize;
        let mut tag = false;
        let t_v = t_row[p];
        let dv = d_row[p];
        let (out, heads) = m.out_arcs(p);
        for (&l, &head) in out.iter().zip(heads) {
            let phi = phi[l.index()];
            if phi <= 0.0 {
                continue;
            }
            // inherited tag travels every positive-fraction link
            if tagged[head as usize] {
                tag = true;
                break;
            }
            // improper link: routes toward non-decreasing marginal
            let dm = d_row[head as usize];
            if dv <= dm && t_v > traffic_floor {
                // sticky (eq. (18)): this iteration cannot close it
                let excess = cost.edge_marginal_view(ext, usage, j, l, dm) - dv;
                if phi >= eta * excess / t_v {
                    tag = true;
                    break;
                }
            }
        }
        tagged[p] = tag;
    }
}

/// [`tag_sweep`] over a commodity's live-arc row (the sparse engine's
/// tag pass). The caller pre-fills the row with `false`; only
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
    row: LiveRow<'_>,
) {
    let routers = ext.members(j).routers_topo();
    let mut idx = row.live;
    for r in (0..routers.len()).rev() {
        let p = routers[r] as usize;
        let n = row.lens[r] as usize;
        idx -= n;
        let mut tag = false;
        let t_v = t_row[p];
        let dv = d_row[p];
        for (l, head) in row.span(idx, n) {
            let phi = phi[l.index()];
            debug_assert!(phi > 0.0, "live arc {l} with non-positive fraction");
            // inherited tag travels every positive-fraction link
            if tagged[head] {
                tag = true;
                break;
            }
            // improper link: routes toward non-decreasing marginal
            let dm = d_row[head];
            if dv <= dm && t_v > traffic_floor {
                // sticky (eq. (18)): this iteration cannot close it
                let excess = cost.edge_marginal_view(ext, usage, j, l, dm) - dv;
                if phi >= eta * excess / t_v {
                    tag = true;
                    break;
                }
            }
        }
        tagged[p] = tag;
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
    for j in ext.commodity_ids() {
        tag_sweep(
            ext,
            cost,
            routing.row(j),
            state.t_row(ext, j),
            state.usage_view(),
            marginals.row(ext, j),
            eta,
            traffic_floor,
            j,
            &mut out.tagged[ext.member_range(j)],
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
            assert!(!tags.is_tagged(&ext, j, v));
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
            assert!(!tags.is_tagged(&ext, j, v), "{v} tagged in an idle network");
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
                    && m.node(&ext, j, v) <= m.node(&ext, j, ext.graph().target(l))
                    && v != ext.commodity(j).sink()
            })
        });
        if any_improper {
            assert!(
                ext.graph()
                    .nodes()
                    .any(|v| tags_small.is_tagged(&ext, j, v)),
                "improper link exists but nothing tagged at eta→0"
            );
        }
        // sanity: tag sets shrink (weakly) as eta grows
        for v in ext.graph().nodes() {
            if tags.is_tagged(&ext, j, v) {
                assert!(tags_small.is_tagged(&ext, j, v));
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
