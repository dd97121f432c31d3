//! Reusable scratch buffers for the zero-allocation iteration core.
//!
//! [`GradientAlgorithm`](crate::GradientAlgorithm) owns one
//! [`IterationWorkspace`] and passes it through the Γ pass every step
//! (the dense reference is
//! [`apply_gamma_ws`](crate::gamma::apply_gamma_ws)), so the
//! steady-state iteration performs no heap allocation: the Γ scratch
//! lane, the per-chunk Γ statistics and the admission phase's scratch
//! live here and are resized (a no-op once warm) rather than rebuilt. The flow sweeps need no scratch:
//! they add each commodity's usage straight into the totals
//! (`crate::flows`).
//!
//! Γ statistics are accumulated per fixed-size *router chunk*
//! (`GAMMA_CHUNK` routers per slot) rather than per commodity: chunk
//! boundaries depend only on the instance, and the ascending chunk
//! fold fixes the float order of
//! [`GammaStats::total_shift`](crate::gamma::GammaStats::total_shift)
//! on every path (the workspace path and `apply_gamma_selective`).

use spn_graph::EdgeId;
use spn_transform::ExtendedNetwork;

/// What every structure-derived buffer in this crate is sized by. The
/// version is the key: an evict followed by an admit restores the
/// commodity, node and edge counts while changing the per-commodity
/// extents. The counts (and `Σ_j members_j`, the length of a node row
/// set) only tell apart two networks that share a version (a buffer
/// handed a different network than it was sized for).
pub(crate) type SizingKey = (u64, usize, usize, usize, usize);

pub(crate) fn sizing_key(ext: &ExtendedNetwork) -> SizingKey {
    (
        ext.structure_version(),
        ext.num_commodities(),
        ext.graph().node_count(),
        ext.graph().edge_count(),
        ext.member_total(),
    )
}

/// Number of routers whose Γ updates share one statistics slot.
pub(crate) const GAMMA_CHUNK: usize = 64;

/// Scratch for one Γ row computation (eqs. (15)–(17)): the
/// per-out-edge marginals and the staged new row.
/// Capacities are reserved for the instance-maximum out-degree by
/// [`IterationWorkspace::ensure`], so pushes never allocate in steady
/// state.
#[derive(Clone, Debug, Default)]
pub(crate) struct GammaLane {
    /// Per-link marginal `m_ik(j)` for each out-edge, in CSR order.
    pub(crate) m: Vec<f64>,
    /// The staged replacement row, `(edge, unnormalized fraction)`.
    pub(crate) row: Vec<(EdgeId, f64)>,
}

impl GammaLane {
    fn reserve(&mut self, degree: usize) {
        self.m.clear();
        self.m.reserve(degree);
        self.row.clear();
        self.row.reserve(degree);
    }
}

/// What the admission phase keeps of the state it starts from: the
/// incumbents' usage totals at the newcomer's member nodes (by member
/// position) and member edges (in `commodity_edges` order), and the
/// newcomer's fractions on those edges before the current row pass.
#[derive(Clone, Debug, Default)]
pub(crate) struct NewcomerScratch {
    pub(crate) f_node: Vec<f64>,
    pub(crate) f_edge: Vec<f64>,
    pub(crate) phi: Vec<f64>,
}

/// Preallocated scratch buffers reused across iterations.
///
/// Sized by [`IterationWorkspace::ensure`] for a particular
/// [`ExtendedNetwork`]; re-`ensure`-ing for a different network or
/// after a commodity-set reshape resizes and clears everything, so a
/// workspace can be shared across problems without ever observing stale
/// data. The key is [`ExtendedNetwork::structure_version`] (plus the
/// counts that tell two networks at the same version apart): an evict
/// followed by an admit restores every count while moving the ragged
/// row extents. Re-`ensure`-ing for the *same* structure is a cheap
/// near-no-op — only the Γ chunk layout, which no key captures, is
/// re-derived; the Γ pass clears the lane and each stat slot before
/// writing, so `ensure` never touches warm buffers.
#[derive(Clone, Debug, Default)]
pub struct IterationWorkspace {
    /// The Γ row scratch.
    pub(crate) lane: GammaLane,
    /// Per-router-chunk Γ statistics `(max_shift, total_shift, rows)`,
    /// reduced in ascending global chunk order after each Γ pass.
    pub(crate) stats: Vec<(f64, f64, usize)>,
    /// `chunk_base[ji]` is the global index of commodity `ji`'s first
    /// router chunk; `chunk_base[j_count]` is the total chunk count.
    pub(crate) chunk_base: Vec<usize>,
    /// The admission phase's scratch
    /// ([`settle_newcomer`](crate::GradientAlgorithm::settle_newcomer)),
    /// sized once per phase.
    pub(crate) newcomer: NewcomerScratch,
    /// What the buffers are currently sized for — the fast-path key of
    /// `ensure`.
    sized_for: Option<SizingKey>,
}

impl IterationWorkspace {
    /// A workspace sized (and zeroed) for `ext`.
    #[must_use]
    pub fn new(ext: &ExtendedNetwork) -> Self {
        let mut ws = IterationWorkspace::default();
        ws.ensure(ext);
        ws
    }

    /// Sizes every buffer for `ext`: the Γ statistics slots to its chunk
    /// count, and the lane to its largest out-degree on first use, for a
    /// different network or after a commodity-set reshape. Same
    /// structure is a cheap near-no-op. Allocation-free once the
    /// workspace has seen a network at least this large.
    pub fn ensure(&mut self, ext: &ExtendedNetwork) {
        // The chunk layout depends on per-commodity router counts, which
        // the key below cannot capture (two freshly built networks can
        // share the version and every count), so recompute it on every
        // call (allocation-free once warm, O(j_count)).
        let j_count = ext.num_commodities();
        self.chunk_base.clear();
        self.chunk_base.reserve(j_count + 1);
        self.chunk_base.push(0);
        let mut total_chunks = 0usize;
        for j in ext.commodity_ids() {
            total_chunks += ext.commodity_routers(j).len().div_ceil(GAMMA_CHUNK);
            self.chunk_base.push(total_chunks);
        }
        if self.stats.len() != total_chunks {
            self.stats.clear();
            self.stats.resize(total_chunks, (0.0, 0.0, 0));
        }
        let key = sizing_key(ext);
        if self.sized_for == Some(key) {
            return;
        }
        let max_degree = ext
            .commodity_ids()
            .map(|j| ext.max_out_degree(j))
            .max()
            .unwrap_or(0);
        self.lane.reserve(max_degree);
        self.sized_for = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::random::RandomInstance;
    use spn_model::spec::{CommoditySpec, EdgeSpec, OverlayEdgeSpec, ProblemSpec};
    use spn_model::UtilityFn;

    #[test]
    fn ensure_is_idempotent_and_resizes() {
        let small = ExtendedNetwork::build(
            &RandomInstance::builder()
                .nodes(10)
                .commodities(2)
                .seed(3)
                .build()
                .unwrap()
                .problem,
        );
        let large = ExtendedNetwork::build(
            &RandomInstance::builder()
                .nodes(30)
                .commodities(4)
                .seed(3)
                .build()
                .unwrap()
                .problem,
        );
        let mut ws = IterationWorkspace::new(&small);
        // poison
        ws.lane.m.push(7.0);
        ws.stats.fill((7.0, 7.0, 7));
        ws.ensure(&large);
        assert!(ws.lane.m.is_empty(), "stale lane survived ensure");
        let degree = large
            .commodity_ids()
            .map(|j| large.max_out_degree(j))
            .max()
            .unwrap();
        assert!(ws.lane.m.capacity() >= degree && ws.lane.row.capacity() >= degree);
        assert_ne!(
            IterationWorkspace::new(&small).stats.len(),
            ws.stats.len(),
            "the two networks must differ in chunk count"
        );
        assert!(
            ws.stats.iter().all(|&s| s == (0.0, 0.0, 0)),
            "stale statistics survived ensure"
        );
        ws.ensure(&small);
        assert_eq!(ws.stats, IterationWorkspace::new(&small).stats);
    }

    #[test]
    fn ensure_same_shape_is_a_no_op() {
        let ext = ExtendedNetwork::build(
            &RandomInstance::builder()
                .nodes(10)
                .commodities(2)
                .seed(3)
                .build()
                .unwrap()
                .problem,
        );
        let mut ws = IterationWorkspace::new(&ext);
        ws.lane.m.push(7.0);
        ws.stats.fill((7.0, 7.0, 7));
        ws.ensure(&ext);
        // same shape: buffers untouched (each pass resets what it uses)
        assert_eq!(ws.lane.m, [7.0], "fast path rewrote a warm lane");
        assert!(
            ws.stats.iter().all(|&s| s == (7.0, 7.0, 7)),
            "fast path rewrote warm statistics"
        );
    }

    #[test]
    fn chunk_base_is_cumulative_and_covers_all_routers() {
        let ext = ExtendedNetwork::build(
            &RandomInstance::builder()
                .nodes(30)
                .commodities(4)
                .seed(3)
                .build()
                .unwrap()
                .problem,
        );
        let ws = IterationWorkspace::new(&ext);
        let j_count = ext.num_commodities();
        assert_eq!(ws.chunk_base.len(), j_count + 1);
        assert_eq!(ws.chunk_base[0], 0);
        for (ji, j) in ext.commodity_ids().enumerate() {
            let chunks = ws.chunk_base[ji + 1] - ws.chunk_base[ji];
            assert_eq!(chunks, ext.commodity_routers(j).len().div_ceil(GAMMA_CHUNK));
        }
        assert_eq!(ws.stats.len(), ws.chunk_base[j_count]);
    }

    /// A 71-node chain carrying one commodity end to end (three router
    /// chunks) and one over its first link only (one chunk), in either
    /// commodity order.
    fn chain_pair(long_first: bool) -> ExtendedNetwork {
        let overlay = |edges: std::ops::Range<u32>| {
            edges
                .map(|edge| OverlayEdgeSpec {
                    edge,
                    cost: 1.0,
                    beta: 1.0,
                })
                .collect()
        };
        let commodity = |sink: u32| CommoditySpec {
            source: 0,
            sink,
            max_rate: 1.0,
            utility: UtilityFn::Linear { weight: 1.0 },
            overlay: overlay(0..sink),
        };
        let mut commodities = vec![commodity(70), commodity(1)];
        if !long_first {
            commodities.reverse();
        }
        let spec = ProblemSpec {
            node_capacities: vec![10.0; 71],
            edges: (0..70)
                .map(|i| EdgeSpec {
                    src: i,
                    dst: i + 1,
                    bandwidth: 10.0,
                })
                .collect(),
            commodities,
        };
        ExtendedNetwork::build(&spec.into_problem().unwrap())
    }

    #[test]
    fn shared_between_two_networks_with_one_key_the_chunk_layout_follows() {
        let (a, b) = (chain_pair(true), chain_pair(false));
        // freshly built, same commodities in the other order: nothing
        // the key holds tells them apart
        assert_eq!(sizing_key(&a), sizing_key(&b));
        let mut ws = IterationWorkspace::new(&a);
        ws.lane.m.push(7.0);
        ws.ensure(&b);
        assert_eq!(ws.lane.m, [7.0], "same key: the warm lane stays");
        let fresh = IterationWorkspace::new(&b);
        assert_ne!(fresh.chunk_base, IterationWorkspace::new(&a).chunk_base);
        assert_eq!(ws.chunk_base, fresh.chunk_base);
        assert_eq!(ws.stats.len(), fresh.stats.len());
    }
}
