//! Routing variable sets `φ` (§4).
//!
//! `φ_ik(j)` is the fraction of node `i`'s commodity-`j` traffic
//! processed over extended edge `(i, k)`. A valid routing decision has
//! `φ ≥ 0`, `Σ_k φ_ik(j) = 1` at every node that can forward commodity
//! `j` (its *routers*), and `φ_ik(j) = 0` on edges outside the
//! commodity. Admission control lives in the same table: at the dummy
//! source, the fraction on the dummy input link is the admitted share of
//! `λ_j` and the fraction on the difference link is the rejected share.

use spn_graph::{EdgeId, NodeId};
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;
use std::cell::Cell;
use std::collections::VecDeque;

/// Tolerance for `Σ_k φ_ik(j) = 1` checks.
pub const FRACTION_TOLERANCE: f64 = 1e-7;

/// The routing decision `φ = {φ_ik(j)}` over an extended network.
///
/// Stored as one flat row-major buffer (`phi[j·L + l]`): a commodity's
/// fractions are one contiguous row.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingTable {
    /// `phi[j·L + l]` — fraction for commodity `j` on extended edge `l`.
    phi: Vec<f64>,
    /// Extended edge count `L` (the row stride).
    l_count: usize,
}

impl RoutingTable {
    /// The paper's initial decision in our implementation: **fully
    /// rejecting** every commodity (the dummy source routes everything
    /// down the difference link), with interior nodes pre-routed along
    /// shortest-hop paths to their sink.
    ///
    /// This is always feasible (zero network load), loop-free, and lets
    /// admission *grow* as the gradient shifts mass onto the input link
    /// — the paper's "admission control becomes routing" in action.
    #[must_use]
    pub fn initial(ext: &ExtendedNetwork) -> Self {
        let l_count = ext.graph().edge_count();
        let mut phi = vec![0.0; ext.num_commodities() * l_count];
        for j in ext.commodity_ids() {
            seed_initial_row(
                &mut phi[j.index() * l_count..(j.index() + 1) * l_count],
                ext,
                j,
            );
        }
        RoutingTable { phi, l_count }
    }

    /// Restrides the table for a commodity just appended to `ext`:
    /// survivors' rows are copied bit-for-bit into the wider stride
    /// (their fractions on the new dummy links stay zero — foreign
    /// edges), and the newcomer's row is seeded exactly as
    /// [`RoutingTable::initial`] would seed it on a fresh build.
    pub(crate) fn admit(&mut self, ext: &ExtendedNetwork, j: CommodityId) {
        let new_l = ext.graph().edge_count();
        let old_l = self.l_count;
        let survivors = j.index();
        debug_assert_eq!(ext.num_commodities(), survivors + 1);
        debug_assert_eq!(self.phi.len(), survivors * old_l);
        let mut phi = vec![0.0; (survivors + 1) * new_l];
        for ji in 0..survivors {
            phi[ji * new_l..ji * new_l + old_l]
                .copy_from_slice(&self.phi[ji * old_l..(ji + 1) * old_l]);
        }
        seed_initial_row(&mut phi[survivors * new_l..], ext, j);
        self.phi = phi;
        self.l_count = new_l;
    }

    /// Restrides the table after commodity row `jr` was removed and the
    /// two dummy-link columns at `er0`/`er0 + 1` excised. Survivors'
    /// fractions are preserved bit-for-bit (the excised columns are
    /// foreign to them and hold zeros); rows after `jr` shift down one.
    pub(crate) fn evict(&mut self, jr: usize, er0: usize) {
        let old_l = self.l_count;
        let old_rows = self.phi.len() / old_l;
        debug_assert!(jr < old_rows && er0 + 1 < old_l);
        let mut w = 0;
        for ji in 0..old_rows {
            if ji == jr {
                continue;
            }
            for li in 0..old_l {
                if li == er0 || li == er0 + 1 {
                    debug_assert_eq!(
                        self.phi[ji * old_l + li],
                        0.0,
                        "survivor held mass on a departed dummy link"
                    );
                    continue;
                }
                self.phi[w] = self.phi[ji * old_l + li];
                w += 1;
            }
        }
        self.phi.truncate(w);
        self.l_count = old_l - 2;
    }

    /// The fraction `φ_ik(j)` on extended edge `l`.
    #[must_use]
    pub fn fraction(&self, j: CommodityId, l: EdgeId) -> f64 {
        self.phi[j.index() * self.l_count + l.index()]
    }

    /// Sets the fraction on an edge (no normalization; callers must keep
    /// router rows summing to one — see [`RoutingTable::set_row`]).
    pub fn set_fraction(&mut self, j: CommodityId, l: EdgeId, value: f64) {
        self.phi[j.index() * self.l_count + l.index()] = value;
    }

    /// Replaces all fractions at router `v` for commodity `j` with the
    /// given `(edge, fraction)` pairs after normalizing them to sum to
    /// one, clamping tiny negatives to zero.
    ///
    /// # Panics
    ///
    /// Panics if the total mass is not positive (a router must forward
    /// somewhere).
    pub fn set_row(
        &mut self,
        ext: &ExtendedNetwork,
        j: CommodityId,
        v: NodeId,
        row: &[(EdgeId, f64)],
    ) {
        apply_row(self.row_cells(j), ext.commodity_out_slice(j, v), row);
    }

    /// Nodes that must carry a full unit of routing mass for commodity
    /// `j`: every non-sink node with at least one commodity-`j`
    /// out-edge (the dummy source included). Delegates to the extended
    /// network's precomputed router list.
    pub fn routers<'a>(
        &'a self,
        ext: &'a ExtendedNetwork,
        j: CommodityId,
    ) -> impl Iterator<Item = NodeId> + 'a {
        ext.commodity_routers(j).iter().copied()
    }

    /// The commodity-`j` fraction row, indexed by extended edge.
    pub(crate) fn row(&self, j: CommodityId) -> &[f64] {
        &self.phi[j.index() * self.l_count..(j.index() + 1) * self.l_count]
    }

    /// The commodity-`j` fraction row as shared cells — the view the Γ
    /// update reads a row through and applies it through (std's safe
    /// `Cell::from_mut(..).as_slice_of_cells()`; plain loads and stores).
    pub(crate) fn row_cells(&mut self, j: CommodityId) -> &[Cell<f64>] {
        let row = &mut self.phi[j.index() * self.l_count..(j.index() + 1) * self.l_count];
        Cell::from_mut(row).as_slice_of_cells()
    }

    /// The whole flat row-major buffer, read-only — checkpointing and
    /// health scans walk it without the per-edge lookup.
    pub(crate) fn flat(&self) -> &[f64] {
        &self.phi
    }

    /// The whole flat row-major buffer, for a checkpoint restore's
    /// straight copy.
    pub(crate) fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.phi
    }

    /// Checks structural validity: fractions within `[0, 1]`, zero off
    /// the commodity subgraph, rows summing to one at every router.
    ///
    /// Returns a human-readable description of the first violation.
    ///
    /// # Errors
    ///
    /// Returns `Err` describing the violated invariant.
    pub fn validate(&self, ext: &ExtendedNetwork) -> Result<(), String> {
        for j in ext.commodity_ids() {
            for l in ext.graph().edges() {
                let f = self.fraction(j, l);
                if !ext.in_commodity(j, l) && f != 0.0 {
                    return Err(format!("{j}: nonzero fraction {f} on foreign edge {l}"));
                }
                if !(0.0..=1.0 + FRACTION_TOLERANCE).contains(&f) {
                    return Err(format!("{j}: fraction {f} out of range on {l}"));
                }
            }
            for v in self.routers(ext, j) {
                let sum: f64 = ext
                    .commodity_out_edges(j, v)
                    .map(|l| self.fraction(j, l))
                    .sum();
                if (sum - 1.0).abs() > FRACTION_TOLERANCE {
                    return Err(format!("{j}: router {v} fractions sum to {sum}"));
                }
            }
        }
        Ok(())
    }

    /// `true` if the positive-fraction subgraph of every commodity is
    /// acyclic (loop-freedom, the property the paper's blocked sets
    /// protect).
    #[must_use]
    pub fn is_loop_free(&self, ext: &ExtendedNetwork) -> bool {
        ext.commodity_ids().all(|j| {
            !spn_graph::scc::has_nontrivial_scc_filtered(ext.graph(), |l| self.fraction(j, l) > 0.0)
        })
    }

    /// The admitted fraction of `λ_j` (the routing share of the dummy
    /// input link).
    #[must_use]
    pub fn admitted_fraction(&self, ext: &ExtendedNetwork, j: CommodityId) -> f64 {
        self.fraction(j, ext.input_edge(j))
    }
}

/// Seeds one commodity's initial decision (fully rejecting, interior
/// nodes pre-routed along shortest-hop paths) into a zeroed `row` —
/// the per-commodity body of [`RoutingTable::initial`], shared with the
/// online-admission restride so a newcomer starts bit-identically to a
/// fresh build. Works on the commodity's members only: a backward BFS
/// from the sink over its in-arcs, then one pass over its routers.
fn seed_initial_row(row: &mut [f64], ext: &ExtendedNetwork, j: CommodityId) {
    let m = ext.members(j);
    let sink = ext
        .member_pos(j, ext.commodity(j).sink())
        .expect("the difference link ends at the sink");
    // Minimum number of commodity edges from each member to the sink.
    let mut hops = vec![usize::MAX; m.len()];
    let mut queue = VecDeque::from([sink]);
    hops[sink] = 0;
    while let Some(p) = queue.pop_front() {
        for &tail in m.in_arcs(p).1 {
            let tail = tail as usize;
            if hops[tail] == usize::MAX {
                hops[tail] = hops[p] + 1;
                queue.push_back(tail);
            }
        }
    }
    row[ext.difference_edge(j).index()] = 1.0;
    for &p in m.routers() {
        let p = p as usize;
        if p == m.dummy() {
            continue;
        }
        // Route everything along the hop-shortest out-edge.
        let (out, heads) = m.out_arcs(p);
        let best = out
            .iter()
            .zip(heads)
            .min_by_key(|&(_, &head)| hops[head as usize])
            .expect("a router has an out-edge");
        row[best.0.index()] = 1.0;
    }
}

/// Row-view form of [`RoutingTable::set_row`]: normalizes `row` to sum
/// to one (clamping tiny negatives) and writes it over the router's
/// commodity out-edges `out` in `phi`, zeroing the rest of them first.
/// Shared with the Γ update, which reads the row and applies it through
/// one shared cell view of the commodity's fractions. Every index
/// touched here belongs to the router's out-edge set, which no other
/// router's update overlaps (each edge has exactly one source).
/// Allocation-free.
///
/// # Panics
///
/// Panics if the total mass is not positive.
pub(crate) fn apply_row(phi: &[Cell<f64>], out: &[EdgeId], row: &[(EdgeId, f64)]) {
    let total = row_mass(row);
    for &l in out {
        phi[l.index()].set(0.0);
    }
    for &(l, f) in row {
        phi[l.index()].set(f.max(0.0) / total);
    }
}

/// The mass a staged row normalizes by: its fractions summed with tiny
/// negatives clamped to zero.
///
/// # Panics
///
/// Panics if it is not positive (a router must forward somewhere).
fn row_mass(row: &[(EdgeId, f64)]) -> f64 {
    let mut total = 0.0;
    for &(_, f) in row {
        debug_assert!(
            f > -FRACTION_TOLERANCE,
            "fraction {f} significantly negative"
        );
        total += f.max(0.0);
    }
    assert!(total > 0.0, "a router must keep positive total mass");
    total
}

/// Change-tracking variant of [`apply_row`] for the active-set engine.
/// Requires `row` to cover every out-edge of the router (all Γ row
/// producers do), so no zero-fill pass is needed: each entry is compared
/// bitwise against the stored fraction and written only when it differs.
///
/// Returns `(value_changed, support_changed)` — whether any fraction's
/// bits changed, and whether any fraction crossed zero (the live-arc
/// sub-list must be rebuilt).
///
/// # Panics
///
/// Panics if the total mass is not positive.
pub(crate) fn apply_row_tracked(
    phi: &[Cell<f64>],
    out: &[EdgeId],
    row: &[(EdgeId, f64)],
) -> (bool, bool) {
    debug_assert_eq!(
        row.len(),
        out.len(),
        "tracked rows must cover every out-edge of the router"
    );
    let total = row_mass(row);
    let mut value_changed = false;
    let mut support_changed = false;
    for &(l, f) in row {
        let new = f.max(0.0) / total;
        let old = phi[l.index()].get();
        if old.to_bits() != new.to_bits() {
            value_changed = true;
            support_changed |= (old != 0.0) != (new != 0.0);
            phi[l.index()].set(new);
        }
    }
    (value_changed, support_changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::UtilityFn;

    fn diamond_ext() -> ExtendedNetwork {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let x = b.server(10.0);
        let y = b.server(10.0);
        let t = b.server(10.0);
        let e_sx = b.link(s, x, 5.0);
        let e_sy = b.link(s, y, 5.0);
        let e_xt = b.link(x, t, 5.0);
        let e_yt = b.link(y, t, 5.0);
        let j = b.commodity(s, t, 4.0, UtilityFn::throughput());
        b.uses(j, e_sx, 1.0, 1.0)
            .uses(j, e_sy, 1.0, 1.0)
            .uses(j, e_xt, 1.0, 1.0)
            .uses(j, e_yt, 1.0, 1.0);
        ExtendedNetwork::build(&b.build().unwrap())
    }

    #[test]
    fn initial_routing_is_valid_and_fully_rejecting() {
        let ext = diamond_ext();
        let rt = RoutingTable::initial(&ext);
        rt.validate(&ext).unwrap();
        let j = CommodityId::from_index(0);
        assert_eq!(rt.admitted_fraction(&ext, j), 0.0);
        assert_eq!(rt.fraction(j, ext.difference_edge(j)), 1.0);
        assert!(rt.is_loop_free(&ext));
    }

    #[test]
    fn initial_routing_splits_nothing() {
        let ext = diamond_ext();
        let rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        // every interior router sends everything to exactly one edge
        for v in rt.routers(&ext, j) {
            let nonzero = ext
                .commodity_out_edges(j, v)
                .filter(|&l| rt.fraction(j, l) > 0.0)
                .count();
            assert_eq!(nonzero, 1, "router {v} splits initially");
        }
    }

    #[test]
    fn set_row_normalizes() {
        let ext = diamond_ext();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        let outs: Vec<EdgeId> = ext.commodity_out_edges(j, s).collect();
        assert_eq!(outs.len(), 2);
        rt.set_row(&ext, j, s, &[(outs[0], 3.0), (outs[1], 1.0)]);
        assert!((rt.fraction(j, outs[0]) - 0.75).abs() < 1e-12);
        assert!((rt.fraction(j, outs[1]) - 0.25).abs() < 1e-12);
        rt.validate(&ext).unwrap();
    }

    #[test]
    fn set_row_clamps_negative_noise() {
        let ext = diamond_ext();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        let outs: Vec<EdgeId> = ext.commodity_out_edges(j, s).collect();
        rt.set_row(&ext, j, s, &[(outs[0], 1.0), (outs[1], -1e-12)]);
        assert_eq!(rt.fraction(j, outs[1]), 0.0);
        rt.validate(&ext).unwrap();
    }

    #[test]
    fn validate_catches_bad_rows() {
        let ext = diamond_ext();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        let s = ext.commodity(j).source();
        let outs: Vec<EdgeId> = ext.commodity_out_edges(j, s).collect();
        rt.set_fraction(j, outs[0], 0.7); // breaks the sum
        assert!(rt.validate(&ext).is_err());
    }

    #[test]
    fn validate_catches_foreign_edges() {
        let ext = diamond_ext();
        let mut rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        // bandwidth egress edges belong to the commodity, so poke a
        // truly foreign edge: none exist in a 1-commodity net, so fake
        // one by ranging over all edges and finding a non-member.
        let foreign = ext.graph().edges().find(|&l| !ext.in_commodity(j, l));
        if let Some(l) = foreign {
            rt.set_fraction(j, l, 0.5);
            assert!(rt.validate(&ext).is_err());
        }
    }

    #[test]
    fn routers_cover_dummy_and_interior() {
        let ext = diamond_ext();
        let rt = RoutingTable::initial(&ext);
        let j = CommodityId::from_index(0);
        let routers: Vec<NodeId> = rt.routers(&ext, j).collect();
        assert!(routers.contains(&ext.dummy_source(j)));
        assert!(routers.contains(&ext.commodity(j).source()));
        assert!(!routers.contains(&ext.commodity(j).sink()));
        // all four bandwidth nodes route
        assert_eq!(routers.len(), 1 + 3 + 4); // dummy + s,x,y + 4 bw nodes
    }
}
