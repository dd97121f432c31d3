//! Per-node gains and the paper's Property 1.
//!
//! Property 1 states that the product of shrinkage factors `β` along any
//! two paths with the same endpoints is identical — otherwise the amount
//! of output delivered to the sink would depend on the route taken, and
//! "the resulting outcome does not depend on the processing path" would
//! fail. Equivalently, there is a per-node *gain* `g_j(n)` — the amount
//! of commodity-`j` output observed at `n` per unit admitted at the
//! source — with `g_j(s_j) = 1` and `β^j_ik = g_j(k) / g_j(i)`.
//!
//! This module converts between the two representations:
//! [`gains_from_betas`] reconstructs gains from edge factors (detecting
//! Property 1 violations in `O(N + M)` instead of enumerating paths),
//! and [`betas_from_gains`] derives consistent factors from gains, which
//! is exactly how the paper's evaluation instantiates `β` ("the `g_nj`
//! parameters are real numbers uniformly distributed in [1, 10], from
//! which we then obtain the shrinkage parameter by setting
//! `β^j_ik = g^j_k / g^j_i`").

use crate::commodity::CommodityId;
use crate::error::ModelError;
use spn_graph::topo::topological_order_filtered;
use spn_graph::{DiGraph, NodeId};

/// Relative tolerance for gain-consistency checks.
///
/// Instances built from gains are consistent to machine precision;
/// hand-authored `β` tables are accepted if all paths agree within this
/// relative factor.
pub(crate) const GAIN_TOLERANCE: f64 = 1e-9;

/// Reconstructs per-node gains for one commodity from its per-edge
/// shrinkage factors.
///
/// `in_overlay[e]` selects the commodity's edges and `beta[e]` gives
/// `β^j` for selected edges (other entries are ignored). The returned
/// vector has `g = 1.0` for the source and for every node unreachable
/// from it (the paper's convention: "If node n is not reachable from
/// `s_j`, we also set `g_n(j) = 1`").
///
/// # Errors
///
/// * [`ModelError::CommodityCycle`] if the overlay is cyclic;
/// * [`ModelError::InconsistentShrinkage`] if two paths imply different
///   gains for some node (Property 1 violation).
pub fn gains_from_betas(
    graph: &DiGraph,
    commodity: CommodityId,
    source: NodeId,
    in_overlay: &[bool],
    beta: &[f64],
) -> Result<Vec<f64>, ModelError> {
    let mut gain = vec![1.0; graph.node_count()];
    for (v, g) in reached_gains(graph, commodity, source, in_overlay, beta)? {
        gain[v.index()] = g;
    }
    Ok(gain)
}

/// [`gains_from_betas`] as the sparse list it really is: `(node, gain)`
/// for the source and every node reachable from it over the overlay,
/// ascending by node. Every other node's gain is `1.0` by convention
/// and is not listed — on a placed task graph that is almost all of
/// them, which is why [`crate::Problem`] caches this form.
///
/// # Errors
///
/// As [`gains_from_betas`].
pub(crate) fn reached_gains(
    graph: &DiGraph,
    commodity: CommodityId,
    source: NodeId,
    in_overlay: &[bool],
    beta: &[f64],
) -> Result<Vec<(NodeId, f64)>, ModelError> {
    debug_assert_eq!(in_overlay.len(), graph.edge_count());
    debug_assert_eq!(beta.len(), graph.edge_count());
    let order = topological_order_filtered(graph, |e| in_overlay[e.index()]).map_err(|cycle| {
        ModelError::CommodityCycle {
            commodity,
            node: cycle.node_in_cycle,
        }
    })?;

    let mut gain: Vec<Option<f64>> = vec![None; graph.node_count()];
    gain[source.index()] = Some(1.0);
    for v in order {
        let Some(gv) = gain[v.index()] else { continue };
        for &e in graph.out_edges(v) {
            if !in_overlay[e.index()] {
                continue;
            }
            let t = graph.target(e);
            let implied = gv * beta[e.index()];
            match gain[t.index()] {
                None => gain[t.index()] = Some(implied),
                Some(existing) => {
                    let scale = existing.abs().max(implied.abs()).max(1.0);
                    if (existing - implied).abs() > GAIN_TOLERANCE * scale {
                        return Err(ModelError::InconsistentShrinkage {
                            commodity,
                            edge: e,
                            expected_gain: existing,
                            actual_gain: implied,
                        });
                    }
                }
            }
        }
    }
    Ok(graph
        .nodes()
        .filter_map(|v| gain[v.index()].map(|g| (v, g)))
        .collect())
}

/// Derives per-edge shrinkage factors `β^j_ik = g_j(k)/g_j(i)` from
/// per-node gains, for the selected overlay edges (other entries are
/// `1.0`).
///
/// # Panics
///
/// Panics in debug builds if `gains` or `in_overlay` have the wrong
/// length; any non-positive gain yields a non-positive `β` that problem
/// validation will reject.
#[must_use]
pub fn betas_from_gains(graph: &DiGraph, in_overlay: &[bool], gains: &[f64]) -> Vec<f64> {
    debug_assert_eq!(in_overlay.len(), graph.edge_count());
    debug_assert_eq!(gains.len(), graph.node_count());
    graph
        .edges()
        .map(|e| {
            if in_overlay[e.index()] {
                let (s, t) = graph.endpoints(e);
                gains[t.index()] / gains[s.index()]
            } else {
                1.0
            }
        })
        .collect()
}

/// Checks Property 1 exhaustively by comparing `β` products along every
/// source→`goal` path (up to `path_limit` paths per goal node).
///
/// This is `O(paths)` and intended for tests; production validation uses
/// [`gains_from_betas`].
#[must_use]
pub fn property1_holds_by_enumeration(
    graph: &DiGraph,
    source: NodeId,
    in_overlay: &[bool],
    beta: &[f64],
    path_limit: usize,
) -> bool {
    for goal in graph.nodes() {
        let paths = spn_graph::paths::enumerate_paths(graph, source, goal, path_limit, |e| {
            in_overlay[e.index()]
        });
        let mut product: Option<f64> = None;
        for p in paths {
            let mut acc = 1.0;
            for w in p.windows(2) {
                let e = graph
                    .edges()
                    .find(|&e| {
                        in_overlay[e.index()] && graph.source(e) == w[0] && graph.target(e) == w[1]
                    })
                    .expect("path edge exists");
                acc *= beta[e.index()];
            }
            match product {
                None => product = Some(acc),
                Some(prev) => {
                    if (prev - acc).abs() > GAIN_TOLERANCE * prev.abs().max(acc.abs()).max(1.0) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 -> 1 -> 3, 0 -> 2 -> 3.
    fn diamond() -> (DiGraph, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[2], n[3]);
        (g, n)
    }

    #[test]
    fn round_trip_gains_betas() {
        let (g, n) = diamond();
        let overlay = vec![true; 4];
        let gains = vec![1.0, 2.0, 4.0, 6.0];
        let beta = betas_from_gains(&g, &overlay, &gains);
        assert_eq!(beta, vec![2.0, 3.0, 4.0, 1.5]);
        let re = gains_from_betas(&g, CommodityId::from_index(0), n[0], &overlay, &beta).unwrap();
        assert_eq!(re, gains);
        assert!(property1_holds_by_enumeration(
            &g, n[0], &overlay, &beta, 100
        ));
    }

    #[test]
    fn detects_property1_violation() {
        let (g, n) = diamond();
        let overlay = vec![true; 4];
        // path via 1 multiplies to 6, via 2 to 8 — inconsistent at node 3
        let beta = vec![2.0, 3.0, 4.0, 2.0];
        let err =
            gains_from_betas(&g, CommodityId::from_index(0), n[0], &overlay, &beta).unwrap_err();
        assert!(matches!(err, ModelError::InconsistentShrinkage { .. }));
        assert!(!property1_holds_by_enumeration(
            &g, n[0], &overlay, &beta, 100
        ));
    }

    #[test]
    fn unreachable_nodes_get_unit_gain() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        // n2 isolated
        let overlay = vec![true];
        let beta = vec![0.5];
        let gains =
            gains_from_betas(&g, CommodityId::from_index(0), n[0], &overlay, &beta).unwrap();
        assert_eq!(gains, vec![1.0, 0.5, 1.0]);
    }

    #[test]
    fn overlay_filter_ignores_foreign_edges() {
        let (g, n) = diamond();
        // only the upper path belongs to the overlay; lower-path betas
        // are junk and must be ignored
        let overlay = vec![true, true, false, false];
        let beta = vec![2.0, 3.0, f64::NAN, -7.0];
        let gains =
            gains_from_betas(&g, CommodityId::from_index(0), n[0], &overlay, &beta).unwrap();
        assert_eq!(gains, vec![1.0, 2.0, 1.0, 6.0]);
    }

    #[test]
    fn cycle_is_reported() {
        let mut g = DiGraph::new();
        let n = g.add_nodes(2);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]);
        let err = gains_from_betas(
            &g,
            CommodityId::from_index(2),
            n[0],
            &[true, true],
            &[1.0, 1.0],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::CommodityCycle { commodity, .. }
            if commodity == CommodityId::from_index(2)));
    }

    #[test]
    fn tolerance_accepts_rounding_noise() {
        let (g, n) = diamond();
        let overlay = vec![true; 4];
        let beta = vec![2.0, 3.0, 4.0, 1.5 * (1.0 + 1e-12)];
        assert!(gains_from_betas(&g, CommodityId::from_index(0), n[0], &overlay, &beta).is_ok());
    }
}
