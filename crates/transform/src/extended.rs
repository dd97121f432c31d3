//! The extended graph `G' = (V, L)` with unified per-node resources.

use spn_graph::{DiGraph, EdgeId, NodeId};
use spn_model::{Capacity, Commodity, CommodityId, Problem, UtilityFn};
use std::collections::VecDeque;
use std::ops::Range;

/// Everything needed to admit one commodity into an existing
/// [`ExtendedNetwork`]: the physical endpoints, offered load, utility,
/// and the overlay of usable physical edges with their parameters.
///
/// Obtained from a validated [`Problem`] via
/// [`CommodityDef::from_problem`], or recovered from a live network via
/// [`ExtendedNetwork::commodity_def`] (e.g. to park a departing
/// commodity and re-admit it later).
#[derive(Clone, Debug, PartialEq)]
pub struct CommodityDef {
    /// Physical source node `s_j` where the stream enters.
    pub source: NodeId,
    /// Physical sink node consuming the processed stream.
    pub sink: NodeId,
    /// Offered load `λ_j`.
    pub max_rate: f64,
    /// Concave increasing admission utility `U_j`.
    pub utility: UtilityFn,
    /// Usable physical edges as `(edge, cost c^j, shrinkage β^j)`.
    pub edges: Vec<(EdgeId, f64, f64)>,
}

impl CommodityDef {
    /// Extracts commodity `j`'s definition from a validated problem.
    #[must_use]
    pub fn from_problem(problem: &Problem, j: CommodityId) -> Self {
        let c = problem.commodity(j);
        let edges = problem
            .graph()
            .edges()
            .filter_map(|e| problem.params(j, e).map(|p| (e, p.cost, p.beta)))
            .collect();
        CommodityDef {
            source: c.source(),
            sink: c.sink(),
            max_rate: c.max_rate,
            utility: c.utility,
            edges,
        }
    }
}

/// What an extended-graph node represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A physical processing node (or sink), keeping its original id.
    Processing(NodeId),
    /// The bandwidth node `n_ik` inserted into physical edge `(i, k)`.
    Bandwidth(EdgeId),
    /// The dummy source `s̄_j` of a commodity.
    DummySource(CommodityId),
}

/// What an extended-graph edge represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// `(i, n_ik)` — the processing half of physical edge `(i, k)`;
    /// carries that edge's `(c^j, β^j)`.
    Ingress(EdgeId),
    /// `(n_ik, k)` — the transfer half; one unit of bandwidth moves one
    /// unit of flow (`c = 1`, `β = 1`).
    Egress(EdgeId),
    /// `(s̄_j, s_j)` — admitted traffic `a_j` enters the network here.
    DummyInput(CommodityId),
    /// `(s̄_j, sink_j)` — rejected traffic `λ_j − a_j`, charged the
    /// utility loss `Y_j`.
    DummyDifference(CommodityId),
}

/// One commodity's adjacency in compressed sparse row form, keyed by
/// **member position** — the build-time artifact that gets packed into
/// the shared [`AdjacencyArena`]. A commodity's *members* are the nodes
/// with at least one of its edges, ascending; position `p` stands for
/// `member_nodes[p]`, and nothing here is sized by the network's node
/// count.
#[derive(Clone, Debug)]
struct CommodityAdjacency {
    /// Nodes with at least one commodity in- or out-edge, ascending —
    /// exactly the nodes whose per-commodity state entries can be
    /// nonzero.
    member_nodes: Vec<NodeId>,
    /// The member positions in the commodity's topological order.
    topo: Vec<u32>,
    /// `out_start[p]..out_start[p + 1]` indexes `out_edges` for member
    /// `p` (`members + 1` entries).
    out_start: Vec<u32>,
    /// Commodity out-edges of every member, concatenated in ascending
    /// member order; each member's segment is in ascending edge id,
    /// which is the graph's adjacency order.
    out_edges: Vec<EdgeId>,
    /// Member position of the head of each `out_edges` entry.
    out_head: Vec<u32>,
    /// Segment offsets into `in_edges`.
    in_start: Vec<u32>,
    /// Commodity in-edges, same layout as `out_edges`.
    in_edges: Vec<EdgeId>,
    /// Member position of the tail of each `in_edges` entry.
    in_tail: Vec<u32>,
    /// Positions of the non-sink members with at least one out-edge,
    /// ascending.
    routers: Vec<u32>,
    /// The same router set in the commodity's topological order — the
    /// iteration core's sparse sweeps walk this list (forward for flows,
    /// reverse for marginals/tags).
    routers_topo: Vec<u32>,
    /// The routers with at least two out-edges, as `(member position,
    /// index in routers)`, in `routers` order — the only rows where Γ
    /// has a choice to make.
    deciders: Vec<(u32, u32)>,
    /// Total commodity out-degree over all routers (the arc capacity a
    /// live-arc sub-list needs).
    router_arc_total: usize,
    /// Largest per-node out-degree (scratch-row sizing hint).
    max_out_degree: usize,
}

impl CommodityAdjacency {
    /// Builds the adjacency from the commodity's edges alone, given as
    /// `(edge, tail, head)` in ascending edge id — `O(E log E)`, no pass
    /// over the network's nodes, and no need for the edges to exist in a
    /// graph yet (which is what lets [`ExtendedNetwork::add_commodity`]
    /// validate before it mutates).
    ///
    /// The topological order is Kahn's algorithm exactly as
    /// [`spn_graph::topo::topological_order_filtered`] runs it on the
    /// whole graph — zero-in-degree nodes seeded in ascending id, FIFO,
    /// successors released in adjacency order — restricted to the
    /// members: the non-members are isolated there, never release
    /// anyone, and so do not change the members' relative order.
    ///
    /// # Errors
    ///
    /// A node on a directed cycle, if the edges contain one.
    fn build(edges: &[(EdgeId, NodeId, NodeId)], sink: NodeId) -> Result<Self, NodeId> {
        debug_assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
        let mut member_nodes: Vec<NodeId> = edges.iter().flat_map(|&(_, s, t)| [s, t]).collect();
        member_nodes.sort_unstable();
        member_nodes.dedup();
        let count = member_nodes.len();
        let pos = |v: NodeId| {
            member_nodes
                .binary_search(&v)
                .expect("an endpoint is a member") as u32
        };
        let arcs: Vec<(EdgeId, u32, u32)> =
            edges.iter().map(|&(l, s, t)| (l, pos(s), pos(t))).collect();
        let (out_start, out_edges, out_head) = csr(count, arcs.iter().copied());
        let (in_start, in_edges, in_tail) = csr(count, arcs.iter().map(|&(l, s, t)| (l, t, s)));

        let degree = |p: usize| (out_start[p + 1] - out_start[p]) as usize;
        let is_router = |p: usize| member_nodes[p] != sink && degree(p) > 0;
        let (mut routers, mut deciders) = (Vec::new(), Vec::new());
        for p in (0..count).filter(|&p| is_router(p)) {
            if degree(p) >= 2 {
                deciders.push((p as u32, routers.len() as u32));
            }
            routers.push(p as u32);
        }

        let mut in_deg: Vec<u32> = in_start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut queue: VecDeque<u32> = (0..count as u32)
            .filter(|&p| in_deg[p as usize] == 0)
            .collect();
        let mut topo = Vec::with_capacity(count);
        while let Some(p) = queue.pop_front() {
            topo.push(p);
            let p = p as usize;
            for &h in &out_head[out_start[p] as usize..out_start[p + 1] as usize] {
                in_deg[h as usize] -= 1;
                if in_deg[h as usize] == 0 {
                    queue.push_back(h);
                }
            }
        }
        if topo.len() != count {
            let stuck = in_deg
                .iter()
                .position(|&d| d > 0)
                .expect("an unreleased member");
            return Err(member_nodes[stuck]);
        }
        let routers_topo: Vec<u32> = topo
            .iter()
            .copied()
            .filter(|&p| is_router(p as usize))
            .collect();
        debug_assert_eq!(routers_topo.len(), routers.len());
        let router_arc_total = routers.iter().map(|&p| degree(p as usize)).sum();
        let max_out_degree = (0..count).map(degree).max().unwrap_or(0);
        Ok(CommodityAdjacency {
            member_nodes,
            topo,
            out_start,
            out_edges,
            out_head,
            in_start,
            in_edges,
            in_tail,
            routers,
            routers_topo,
            deciders,
            router_arc_total,
            max_out_degree,
        })
    }
}

/// Groups `(edge, key, other)` arcs by `key` (a member position below
/// `count`) with a counting sort: returns the `count + 1` segment
/// offsets, and the edges and `other` positions in segment order. Arcs
/// arrive in ascending edge id and keep that order inside a segment —
/// the graph's adjacency order.
fn csr(
    count: usize,
    arcs: impl Iterator<Item = (EdgeId, u32, u32)> + Clone,
) -> (Vec<u32>, Vec<EdgeId>, Vec<u32>) {
    let mut start = vec![0u32; count + 1];
    for (_, key, _) in arcs.clone() {
        start[key as usize + 1] += 1;
    }
    for p in 0..count {
        start[p + 1] += start[p];
    }
    let total = start[count] as usize;
    let mut edges = vec![EdgeId::from_index(0); total];
    let mut others = vec![0u32; total];
    let mut fill = start.clone();
    for (l, key, other) in arcs {
        let k = fill[key as usize] as usize;
        edges[k] = l;
        others[k] = other;
        fill[key as usize] += 1;
    }
    (start, edges, others)
}

/// All commodities' CSR adjacency packed into shared contiguous slabs:
/// one allocation per kind of data instead of a dozen small vectors per
/// commodity, so the iteration core's walks stream through a handful of
/// arenas instead of pointer-chasing `J` scattered heap blocks.
///
/// Everything is **ragged and keyed by member position**: commodity `j`
/// owns the extent `member_base[j]..member_base[j + 1]` of the
/// member-keyed slabs (and of every per-commodity node table the
/// iteration core keeps — see [`ExtendedNetwork::member_range`]), so
/// storage is `Σ_j members_j`, not `J·V`. Offsets inside a commodity's
/// extents are relative to the extent.
///
/// With region-major node numbering (see `spn_model::hierarchy`), a
/// commodity whose pipeline stays inside one region is a short run of
/// nearby node ids.
#[derive(Clone, Debug, Default)]
struct AdjacencyArena {
    /// All commodities' member-node lists (ascending node order).
    member_nodes: Vec<NodeId>,
    /// All commodities' members in commodity-topological order, as
    /// member positions; shares `member_base` with `member_nodes`.
    topo: Vec<u32>,
    /// Extent of commodity `j` in the member-keyed slabs.
    member_base: Vec<u32>,
    /// Per-member offset rows: commodity `j`'s `members_j + 1` entries
    /// start at `member_base[j] + j` and are relative to its `out_base`
    /// extent.
    out_start: Vec<u32>,
    /// Offsets into `in_edges`, same layout as `out_start`.
    in_start: Vec<u32>,
    /// All commodities' out-edge lists, concatenated, with the member
    /// position of each edge's head alongside.
    out_edges: Vec<EdgeId>,
    out_head: Vec<u32>,
    /// All commodities' in-edge lists, concatenated, with the member
    /// position of each edge's tail alongside.
    in_edges: Vec<EdgeId>,
    in_tail: Vec<u32>,
    /// Extent of commodity `j` in `out_edges`/`out_head`. Since every
    /// member edge has exactly one tail, that extent lists each of the
    /// commodity's edges exactly once.
    out_base: Vec<u32>,
    /// Extent of commodity `j` in `in_edges`/`in_tail`.
    in_base: Vec<u32>,
    /// All commodities' router lists (ascending node order), as node ids
    /// and as member positions.
    routers: Vec<NodeId>,
    router_pos: Vec<u32>,
    /// All commodities' router lists in commodity-topological order, as
    /// member positions; shares `router_base` with `routers` (same
    /// per-commodity length).
    routers_topo: Vec<u32>,
    /// Extent of commodity `j` in the three router slabs.
    router_base: Vec<u32>,
    /// All commodities' decider lists (routers with ≥ 2 out-edges, as
    /// `(member position, index in the commodity's router list)`).
    deciders: Vec<(u32, u32)>,
    /// Extent of commodity `j` in `deciders`.
    decider_base: Vec<u32>,
    /// Per-commodity total router out-degree.
    router_arc_total: Vec<u32>,
    /// Per-commodity largest node out-degree, cached so the per-step
    /// workspace shape check is O(1) instead of an offset-row rescan.
    max_out_deg: Vec<u32>,
    /// Ascending, de-duplicated union of every commodity's router list —
    /// the only nodes whose usage total can ever be nonzero. Derived
    /// from `routers` by [`AdjacencyArena::rebuild_router_union`].
    router_union: Vec<NodeId>,
}

/// Removes extent `jr` from a base-offset row: drops its end marker,
/// shifts the later extents down and returns the range the extent
/// occupied in the slabs the row indexes.
fn drain_extent(base: &mut Vec<u32>, jr: usize) -> Range<usize> {
    let (start, end) = (base[jr], base[jr + 1]);
    base.remove(jr + 1);
    for b in &mut base[jr + 1..] {
        *b -= end - start;
    }
    start as usize..end as usize
}

impl AdjacencyArena {
    /// Appends one commodity's adjacency to the arenas; the extents of
    /// the commodities already packed do not move.
    fn push(&mut self, adj: CommodityAdjacency) {
        if self.member_base.is_empty() {
            self.member_base.push(0);
            self.out_base.push(0);
            self.in_base.push(0);
            self.router_base.push(0);
            self.decider_base.push(0);
        }
        let node = |p: &u32| adj.member_nodes[*p as usize];
        self.topo.extend_from_slice(&adj.topo);
        self.routers.extend(adj.routers.iter().map(node));
        self.router_pos.extend_from_slice(&adj.routers);
        self.routers_topo.extend_from_slice(&adj.routers_topo);
        self.router_base.push(self.routers.len() as u32);
        self.deciders.extend_from_slice(&adj.deciders);
        self.decider_base.push(self.deciders.len() as u32);
        self.member_nodes.extend_from_slice(&adj.member_nodes);
        self.member_base.push(self.member_nodes.len() as u32);
        self.out_start.extend_from_slice(&adj.out_start);
        self.in_start.extend_from_slice(&adj.in_start);
        self.out_edges.extend_from_slice(&adj.out_edges);
        self.out_head.extend_from_slice(&adj.out_head);
        self.out_base.push(self.out_edges.len() as u32);
        self.in_edges.extend_from_slice(&adj.in_edges);
        self.in_tail.extend_from_slice(&adj.in_tail);
        self.in_base.push(self.in_edges.len() as u32);
        self.router_arc_total.push(adj.router_arc_total as u32);
        self.max_out_deg.push(adj.max_out_degree as u32);
    }

    /// Drops commodity `jr`'s extent from every slab and renumbers the
    /// survivors' ids past the departed dummy node `d` and its two dummy
    /// links `e0`, `e0 + 1`. No survivor's member list contains `d`, and
    /// the renumbering is monotone, so member positions do not move.
    fn remove(&mut self, jr: usize, d: NodeId, e0: EdgeId) {
        let members = drain_extent(&mut self.member_base, jr);
        // the offset rows carry one extra entry per commodity before `jr`
        let starts = members.start + jr..members.end + jr + 1;
        self.member_nodes.drain(members.clone());
        self.topo.drain(members);
        self.out_start.drain(starts.clone());
        self.in_start.drain(starts);
        let outs = drain_extent(&mut self.out_base, jr);
        self.out_edges.drain(outs.clone());
        self.out_head.drain(outs);
        let ins = drain_extent(&mut self.in_base, jr);
        self.in_edges.drain(ins.clone());
        self.in_tail.drain(ins);
        let routers = drain_extent(&mut self.router_base, jr);
        self.routers.drain(routers.clone());
        self.router_pos.drain(routers.clone());
        self.routers_topo.drain(routers);
        // positions and router indices are commodity-relative: nothing
        // to renumber
        let deciders = drain_extent(&mut self.decider_base, jr);
        self.deciders.drain(deciders);
        self.router_arc_total.remove(jr);
        self.max_out_deg.remove(jr);

        for v in self.member_nodes.iter_mut().chain(&mut self.routers) {
            debug_assert_ne!(*v, d, "departed dummy was a foreign member node");
            if *v > d {
                *v = NodeId::from_index(v.index() - 1);
            }
        }
        for l in self.out_edges.iter_mut().chain(self.in_edges.iter_mut()) {
            debug_assert!(
                l.index() != e0.index() && l.index() != e0.index() + 1,
                "dummy links leaked across commodities"
            );
            if l.index() > e0.index() + 1 {
                *l = EdgeId::from_index(l.index() - 2);
            }
        }
    }

    /// Re-derives `router_union` from the packed router lists with one
    /// marker pass over the `v_count` nodes — `O(V + Σ_j routers_j)`,
    /// once per build / add / remove.
    fn rebuild_router_union(&mut self, v_count: usize) {
        let mut is_router = vec![false; v_count];
        for v in &self.routers {
            is_router[v.index()] = true;
        }
        self.router_union.clear();
        self.router_union.extend(
            is_router
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r)
                .map(|(v, _)| NodeId::from_index(v)),
        );
    }
}

/// One commodity's structure keyed by **member position** — what the
/// iteration core's sweeps index by, obtained once per sweep from
/// [`ExtendedNetwork::members`]. Position `p` stands for node
/// [`Self::node`]`(p)`; the per-commodity node tables (traffic,
/// marginals, tags, usage partials) are rows of [`Self::len`] entries in
/// the same order.
///
/// A view is the commodity's extents in the arena and nothing else:
/// making one costs a few loads, and each accessor slices what it
/// hands out. Two views are equal when every table they expose is.
#[derive(Clone, Copy, Debug)]
pub struct MemberView<'a> {
    arena: &'a AdjacencyArena,
    /// Extent in the member-keyed slabs.
    members: (usize, usize),
    /// Start of the `members + 1` offset rows.
    starts: usize,
    /// Start of the out- and in-edge extents.
    outs: usize,
    ins: usize,
    /// Extent in the router slabs.
    routers: (usize, usize),
    /// Extent in the decider slab.
    deciders: (usize, usize),
}

impl<'a> MemberView<'a> {
    /// Number of members.
    #[inline]
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a commodity always has its dummy source
    pub fn len(&self) -> usize {
        self.members.1 - self.members.0
    }

    /// The member nodes, ascending (position `p` ↔ `nodes()[p]`).
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &'a [NodeId] {
        &self.arena.member_nodes[self.members.0..self.members.1]
    }

    /// The node at member position `p`.
    #[inline]
    #[must_use]
    pub fn node(&self, p: usize) -> NodeId {
        self.nodes()[p]
    }

    /// Position of the commodity's dummy source: the last one, because a
    /// dummy source's id is above every physical and bandwidth node's.
    #[inline]
    #[must_use]
    pub fn dummy(&self) -> usize {
        self.len() - 1
    }

    /// The member positions in the commodity's topological order.
    #[inline]
    #[must_use]
    pub fn topo(&self) -> &'a [u32] {
        &self.arena.topo[self.members.0..self.members.1]
    }

    /// Positions of the commodity's routers, ascending — parallel to
    /// [`ExtendedNetwork::commodity_routers`].
    #[inline]
    #[must_use]
    pub fn routers(&self) -> &'a [u32] {
        &self.arena.router_pos[self.routers.0..self.routers.1]
    }

    /// Positions of the commodity's routers in topological order —
    /// parallel to [`ExtendedNetwork::commodity_routers_topo`].
    #[inline]
    #[must_use]
    pub fn routers_topo(&self) -> &'a [u32] {
        &self.arena.routers_topo[self.routers.0..self.routers.1]
    }

    /// The commodity's *deciders* — the routers with at least two
    /// out-edges (every dummy source, and every server with a choice of
    /// link) — as `(p, r)` pairs, `p` the member position and `r` its
    /// index in [`Self::routers`], in that list's order. Every other
    /// router is a
    /// *pass-through* (one out-edge: every bandwidth node, and a server
    /// with a single usable link), whose only valid routing row is
    /// `[(l, 1.0)]`: Γ has nothing to decide there.
    #[inline]
    #[must_use]
    pub fn deciders(&self) -> &'a [(u32, u32)] {
        &self.arena.deciders[self.deciders.0..self.deciders.1]
    }

    /// The out-edges of member `p` (graph adjacency order) with the
    /// member position of each edge's head.
    #[inline]
    #[must_use]
    pub fn out_arcs(&self, p: usize) -> (&'a [EdgeId], &'a [u32]) {
        assert!(p < self.len(), "member position out of range");
        let a = self.arena;
        let row = &a.out_start[self.starts + p..self.starts + p + 2];
        let r = self.outs + row[0] as usize..self.outs + row[1] as usize;
        (&a.out_edges[r.clone()], &a.out_head[r])
    }

    /// The in-edges of member `p` (graph adjacency order) with the
    /// member position of each edge's tail.
    #[inline]
    #[must_use]
    pub fn in_arcs(&self, p: usize) -> (&'a [EdgeId], &'a [u32]) {
        assert!(p < self.len(), "member position out of range");
        let a = self.arena;
        let row = &a.in_start[self.starts + p..self.starts + p + 2];
        let r = self.ins + row[0] as usize..self.ins + row[1] as usize;
        (&a.in_edges[r.clone()], &a.in_tail[r])
    }
}

impl PartialEq for MemberView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.nodes() == other.nodes()
            && self.topo() == other.topo()
            && self.routers() == other.routers()
            && self.routers_topo() == other.routers_topo()
            && self.deciders() == other.deciders()
            && (0..self.len()).all(|p| {
                self.out_arcs(p) == other.out_arcs(p) && self.in_arcs(p) == other.in_arcs(p)
            })
    }
}

/// The transformed network: one resource constraint per node, admission
/// control folded into routing.
///
/// Identifiers are laid out deterministically so results can be mapped
/// back to the physical instance (see [`crate::view`]):
///
/// * extended node `v < N` is physical node `v`;
/// * extended node `N + e` is the bandwidth node of physical edge `e`;
/// * extended node `N + M + j` is the dummy source of commodity `j`;
/// * extended edges `2e` / `2e + 1` are the ingress/egress halves of
///   physical edge `e`, and `2M + 2j` / `2M + 2j + 1` are commodity
///   `j`'s dummy input / dummy difference links.
#[derive(Clone, Debug)]
pub struct ExtendedNetwork {
    graph: DiGraph,
    node_kind: Vec<NodeKind>,
    edge_kind: Vec<EdgeKind>,
    capacity: Vec<Capacity>,
    /// `in_commodity[j·L + l]` — extended edge `l` usable by commodity
    /// `j`. Flat row-major slab (stride `L`), like every per-commodity
    /// per-edge table here: one contiguous allocation, not `J` rows.
    in_commodity: Vec<bool>,
    /// `cost[j·L + l]` — resource consumed at the edge's tail per unit
    /// of commodity-`j` flow (1.0 outside the commodity; never read
    /// there).
    cost: Vec<f64>,
    /// `beta[j·L + l]` — output per input unit across the edge.
    beta: Vec<f64>,
    dummy_source: Vec<NodeId>,
    input_edge: Vec<EdgeId>,
    difference_edge: Vec<EdgeId>,
    commodities: Vec<Commodity>,
    /// Arena-packed per-commodity CSR adjacency and topological orders,
    /// keyed by member position.
    adjacency: AdjacencyArena,
    physical_nodes: usize,
    physical_edges: usize,
    /// Bumped by every [`Self::set_capacity`]; lets downstream caches
    /// keyed on per-node capacities detect mutation in O(1) instead of
    /// re-reading the capacity table.
    capacity_version: u64,
    /// Bumped by every [`Self::add_commodity`] / [`Self::remove_commodity`]
    /// — the O(1) staleness key for anything sized or derived from the
    /// commodity structure (member extents, router lists, the router
    /// union).
    structure_version: u64,
}

impl ExtendedNetwork {
    /// Builds the extended network from a validated [`Problem`].
    #[must_use]
    pub fn build(problem: &Problem) -> Self {
        let pg = problem.graph();
        let n = pg.node_count();
        let m = pg.edge_count();
        let j_count = problem.num_commodities();

        let mut graph = DiGraph::with_capacity(n + m + j_count, 2 * m + 2 * j_count);
        let mut node_kind = Vec::with_capacity(n + m + j_count);
        let mut capacity = Vec::with_capacity(n + m + j_count);

        // Physical nodes keep their ids.
        for v in pg.nodes() {
            let id = graph.add_node();
            debug_assert_eq!(id, v);
            node_kind.push(NodeKind::Processing(v));
            capacity.push(problem.node_capacity(v));
        }
        // Bandwidth nodes.
        for e in pg.edges() {
            let id = graph.add_node();
            debug_assert_eq!(id.index(), n + e.index());
            node_kind.push(NodeKind::Bandwidth(e));
            capacity.push(problem.edge_bandwidth(e));
        }
        // Dummy sources.
        let mut dummy_source = Vec::with_capacity(j_count);
        for j in problem.commodity_ids() {
            let id = graph.add_node();
            debug_assert_eq!(id.index(), n + m + j.index());
            node_kind.push(NodeKind::DummySource(j));
            capacity.push(Capacity::INFINITE);
            dummy_source.push(id);
        }

        // Split every physical edge through its bandwidth node.
        let mut edge_kind = Vec::with_capacity(2 * m + 2 * j_count);
        for e in pg.edges() {
            let (src, dst) = pg.endpoints(e);
            let bw = NodeId::from_index(n + e.index());
            let ingress = graph.add_edge(src, bw);
            debug_assert_eq!(ingress.index(), 2 * e.index());
            edge_kind.push(EdgeKind::Ingress(e));
            let egress = graph.add_edge(bw, dst);
            debug_assert_eq!(egress.index(), 2 * e.index() + 1);
            edge_kind.push(EdgeKind::Egress(e));
        }
        // Dummy links.
        let mut input_edge = Vec::with_capacity(j_count);
        let mut difference_edge = Vec::with_capacity(j_count);
        for j in problem.commodity_ids() {
            let c = problem.commodity(j);
            let input = graph.add_edge(dummy_source[j.index()], c.source());
            edge_kind.push(EdgeKind::DummyInput(j));
            input_edge.push(input);
            let diff = graph.add_edge(dummy_source[j.index()], c.sink());
            edge_kind.push(EdgeKind::DummyDifference(j));
            difference_edge.push(diff);
        }

        // Per-commodity parameters on extended edges (flat row-major).
        let l_count = graph.edge_count();
        let v_count = graph.node_count();
        let mut in_commodity = vec![false; j_count * l_count];
        let mut cost = vec![1.0; j_count * l_count];
        let mut beta = vec![1.0; j_count * l_count];
        for j in problem.commodity_ids() {
            let ji = j.index();
            let in_row = &mut in_commodity[ji * l_count..(ji + 1) * l_count];
            let cost_row = &mut cost[ji * l_count..(ji + 1) * l_count];
            let beta_row = &mut beta[ji * l_count..(ji + 1) * l_count];
            for e in pg.edges() {
                if let Some(p) = problem.params(j, e) {
                    let ingress = 2 * e.index();
                    let egress = 2 * e.index() + 1;
                    in_row[ingress] = true;
                    cost_row[ingress] = p.cost;
                    beta_row[ingress] = p.beta;
                    in_row[egress] = true;
                    // egress: one unit of bandwidth per unit of flow,
                    // flow conserved.
                }
            }
            in_row[input_edge[ji].index()] = true;
            in_row[difference_edge[ji].index()] = true;
        }

        // Per-commodity adjacency and topological order, from each
        // commodity's own edges (ascending id: the split halves of its
        // overlay, then its two dummy links).
        let mut adjacency = AdjacencyArena::default();
        let mut edges = Vec::new();
        for j in problem.commodity_ids() {
            edges.clear();
            for e in pg.edges().filter(|&e| problem.in_overlay(j, e)) {
                for l in [2 * e.index(), 2 * e.index() + 1] {
                    let l = EdgeId::from_index(l);
                    let (tail, head) = graph.endpoints(l);
                    edges.push((l, tail, head));
                }
            }
            for l in [input_edge[j.index()], difference_edge[j.index()]] {
                let (tail, head) = graph.endpoints(l);
                edges.push((l, tail, head));
            }
            adjacency.push(
                CommodityAdjacency::build(&edges, problem.commodity(j).sink())
                    .expect("commodity extended subgraph is a DAG for validated problems"),
            );
        }
        adjacency.rebuild_router_union(v_count);

        ExtendedNetwork {
            graph,
            node_kind,
            edge_kind,
            capacity,
            in_commodity,
            cost,
            beta,
            dummy_source,
            input_edge,
            difference_edge,
            commodities: problem.commodities().to_vec(),
            adjacency,
            physical_nodes: n,
            physical_edges: m,
            capacity_version: 0,
            structure_version: 0,
        }
    }

    /// The extended graph `G' = (V, L)`.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// What extended node `v` represents.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an extended-graph node.
    #[must_use]
    pub fn node_kind(&self, v: NodeId) -> NodeKind {
        self.node_kind[v.index()]
    }

    /// What extended edge `l` represents.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not an extended-graph edge.
    #[must_use]
    pub fn edge_kind(&self, l: EdgeId) -> EdgeKind {
        self.edge_kind[l.index()]
    }

    /// Resource budget of extended node `v` (infinite for dummies).
    #[must_use]
    pub fn capacity(&self, v: NodeId) -> Capacity {
        self.capacity[v.index()]
    }

    /// Number of commodities.
    #[must_use]
    pub fn num_commodities(&self) -> usize {
        self.commodities.len()
    }

    /// Commodity ids.
    pub fn commodity_ids(&self) -> impl ExactSizeIterator<Item = CommodityId> {
        (0..self.commodities.len()).map(CommodityId::from_index)
    }

    /// The commodity descriptor (rate `λ_j`, utility, endpoints).
    #[must_use]
    pub fn commodity(&self, j: CommodityId) -> &Commodity {
        &self.commodities[j.index()]
    }

    /// The dummy source `s̄_j`.
    #[must_use]
    pub fn dummy_source(&self, j: CommodityId) -> NodeId {
        self.dummy_source[j.index()]
    }

    /// The dummy input link `(s̄_j, s_j)`.
    #[must_use]
    pub fn input_edge(&self, j: CommodityId) -> EdgeId {
        self.input_edge[j.index()]
    }

    /// The dummy difference link `(s̄_j, sink_j)`.
    #[must_use]
    pub fn difference_edge(&self, j: CommodityId) -> EdgeId {
        self.difference_edge[j.index()]
    }

    /// `true` if commodity `j` may route over extended edge `l`.
    #[must_use]
    pub fn in_commodity(&self, j: CommodityId, l: EdgeId) -> bool {
        self.in_commodity[j.index() * self.graph.edge_count() + l.index()]
    }

    /// Resource consumed at the tail node per unit of commodity-`j` flow
    /// over `l`. Meaningful only when [`Self::in_commodity`] holds.
    #[must_use]
    pub fn cost(&self, j: CommodityId, l: EdgeId) -> f64 {
        self.cost[j.index() * self.graph.edge_count() + l.index()]
    }

    /// Output per input unit for commodity `j` across `l`. Meaningful
    /// only when [`Self::in_commodity`] holds.
    #[must_use]
    pub fn beta(&self, j: CommodityId, l: EdgeId) -> f64 {
        self.beta[j.index() * self.graph.edge_count() + l.index()]
    }

    /// Commodity `j`'s structure keyed by member position — what the
    /// sweeps index by. Constant time: the commodity's extents in the
    /// arena.
    #[inline]
    #[must_use]
    pub fn members(&self, j: CommodityId) -> MemberView<'_> {
        let a = &self.adjacency;
        let ji = j.index();
        let members = (a.member_base[ji] as usize, a.member_base[ji + 1] as usize);
        MemberView {
            arena: a,
            members,
            starts: members.0 + ji,
            outs: a.out_base[ji] as usize,
            ins: a.in_base[ji] as usize,
            routers: (a.router_base[ji] as usize, a.router_base[ji + 1] as usize),
            deciders: (a.decider_base[ji] as usize, a.decider_base[ji + 1] as usize),
        }
    }

    /// Extent of commodity `j`'s row in every per-commodity node table
    /// (one entry per member, in [`Self::commodity_member_nodes`] order);
    /// the rows of all commodities tile `0..`[`Self::member_total`].
    #[inline]
    #[must_use]
    pub fn member_range(&self, j: CommodityId) -> Range<usize> {
        let base = &self.adjacency.member_base;
        base[j.index()] as usize..base[j.index() + 1] as usize
    }

    /// `Σ_j members_j` — the length of a per-commodity node table.
    #[must_use]
    pub fn member_total(&self) -> usize {
        self.adjacency.member_nodes.len()
    }

    /// Member position of node `v` in commodity `j`, or `None` if `v`
    /// has no commodity-`j` edge. A binary search: the cold lookup behind
    /// every node-id accessor; sweeps use [`Self::members`] instead.
    #[must_use]
    pub fn member_pos(&self, j: CommodityId, v: NodeId) -> Option<usize> {
        self.commodity_member_nodes(j).binary_search(&v).ok()
    }

    /// Outgoing extended edges of `v` usable by commodity `j`, as a
    /// contiguous precomputed slice (same order as the graph adjacency);
    /// empty when `v` is not a member of the commodity.
    #[must_use]
    pub fn commodity_out_slice(&self, j: CommodityId, v: NodeId) -> &[EdgeId] {
        self.member_pos(j, v)
            .map_or(&[], |p| self.members(j).out_arcs(p).0)
    }

    /// Incoming extended edges of `v` usable by commodity `j`, as a
    /// contiguous precomputed slice; empty when `v` is not a member of
    /// the commodity.
    #[must_use]
    pub fn commodity_in_slice(&self, j: CommodityId, v: NodeId) -> &[EdgeId] {
        self.member_pos(j, v)
            .map_or(&[], |p| self.members(j).in_arcs(p).0)
    }

    /// Every extended edge usable by commodity `j`, each exactly once
    /// (a member edge has exactly one tail, so the commodity's packed
    /// out-edge extent is its edge set). The iteration core's scoped
    /// zeroing and totals reduction walk this instead of scanning all
    /// `L` edges per commodity.
    #[must_use]
    pub fn commodity_edges(&self, j: CommodityId) -> &[EdgeId] {
        let a = &self.adjacency;
        &a.out_edges[a.out_base[j.index()] as usize..a.out_base[j.index() + 1] as usize]
    }

    /// Nodes with at least one commodity-`j` in- or out-edge, ascending
    /// — the commodity's *members*: exactly the nodes that have a
    /// commodity-`j` entry in the per-commodity node tables.
    #[must_use]
    pub fn commodity_member_nodes(&self, j: CommodityId) -> &[NodeId] {
        &self.adjacency.member_nodes[self.member_range(j)]
    }

    /// Non-sink nodes with at least one commodity-`j` out-edge (the
    /// nodes that must carry a full unit of routing mass), ascending.
    #[must_use]
    pub fn commodity_routers(&self, j: CommodityId) -> &[NodeId] {
        let a = &self.adjacency;
        &a.routers[a.router_base[j.index()] as usize..a.router_base[j.index() + 1] as usize]
    }

    /// The commodity-`j` routers in the commodity's topological order —
    /// the same set as [`Self::commodity_routers`], ordered so a single
    /// forward (resp. reverse) walk visits tails before (resp. after)
    /// heads. Sparse sweeps iterate this instead of `topo_order`.
    /// The sweeps themselves index by position, through
    /// [`MemberView::routers_topo`].
    pub fn commodity_routers_topo(
        &self,
        j: CommodityId,
    ) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let m = self.members(j);
        m.routers_topo().iter().map(move |&p| m.node(p as usize))
    }

    /// Total commodity-`j` out-degree summed over all routers — the arc
    /// capacity an active-arc sub-list needs for commodity `j`.
    #[must_use]
    pub fn commodity_router_arc_total(&self, j: CommodityId) -> usize {
        self.adjacency.router_arc_total[j.index()] as usize
    }

    /// The ascending, de-duplicated union of every commodity's
    /// [`Self::commodity_routers`] — exactly the nodes whose usage total
    /// `f_i` can be nonzero (a flow sweep only ever charges the tail of a
    /// member edge, and every such tail is a router of that commodity).
    /// The iteration core's per-step node lanes (cost probe, totals
    /// reduction) walk this instead of all `V` nodes. Non-empty whenever
    /// there is a commodity: every dummy source is a router.
    #[must_use]
    pub fn router_union(&self) -> &[NodeId] {
        &self.adjacency.router_union
    }

    /// Largest commodity-`j` out-degree over all nodes (sizing hint for
    /// per-row scratch buffers).
    #[must_use]
    pub fn max_out_degree(&self, j: CommodityId) -> usize {
        self.adjacency.max_out_deg[j.index()] as usize
    }

    /// Outgoing extended edges of `v` usable by commodity `j`.
    pub fn commodity_out_edges(
        &self,
        j: CommodityId,
        v: NodeId,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.commodity_out_slice(j, v).iter().copied()
    }

    /// Incoming extended edges of `v` usable by commodity `j`.
    pub fn commodity_in_edges(
        &self,
        j: CommodityId,
        v: NodeId,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.commodity_in_slice(j, v).iter().copied()
    }

    /// Commodity `j`'s members in a topological order of its extended
    /// subgraph (nodes outside the commodity do not appear). The sweeps
    /// themselves index by position, through [`MemberView::topo`].
    pub fn topo_order(&self, j: CommodityId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let m = self.members(j);
        m.topo().iter().map(move |&p| m.node(p as usize))
    }

    /// Number of physical nodes `N` (extended ids `< N` are physical).
    #[must_use]
    pub fn physical_nodes(&self) -> usize {
        self.physical_nodes
    }

    /// Number of physical edges `M`.
    #[must_use]
    pub fn physical_edges(&self) -> usize {
        self.physical_edges
    }

    /// Overrides a commodity's maximum input rate `λ_j`.
    ///
    /// This is the dynamic-demand hook (§3 motivates penalty headroom
    /// with "better accommodate changing demands"): the dummy source's
    /// offered load changes and the running algorithm re-balances
    /// admission and routing with no structural change.
    ///
    /// # Panics
    ///
    /// Panics unless `max_rate` is finite and positive.
    pub fn set_max_rate(&mut self, j: CommodityId, max_rate: f64) {
        assert!(
            max_rate.is_finite() && max_rate > 0.0,
            "max rate must be finite and positive, got {max_rate}"
        );
        self.commodities[j.index()].max_rate = max_rate;
    }

    /// Overrides the resource budget of extended node `v`.
    ///
    /// This is the failure-injection hook used by `spn-sim` (§3 of the
    /// paper motivates penalty headroom with "faster recovery in the
    /// case of node or link failures"): collapsing a node's capacity to
    /// a small value makes the barrier repel all flow from it, and the
    /// distributed algorithm reroutes without any structural change.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a dummy source (their capacity is structurally
    /// infinite), not a node of this network, or `capacity` is not
    /// finite and positive (an injected NaN/zero budget would poison
    /// the barrier term and be misread as divergence downstream).
    pub fn set_capacity(&mut self, v: NodeId, capacity: Capacity) {
        assert!(
            v.index() < self.node_kind.len(),
            "node {v} is not a node of this network"
        );
        let value = capacity.value();
        assert!(
            value.is_finite() && value > 0.0,
            "capacity must be finite and positive, got {value}"
        );
        assert!(
            !matches!(self.node_kind(v), NodeKind::DummySource(_)),
            "dummy sources are unconstrained by construction"
        );
        self.capacity[v.index()] = capacity;
        self.capacity_version += 1;
    }

    /// Monotone counter bumped by every [`Self::set_capacity`] — an
    /// O(1) staleness key for caches derived from the capacity table.
    #[must_use]
    pub fn capacity_version(&self) -> u64 {
        self.capacity_version
    }

    /// Monotone counter bumped by every [`Self::add_commodity`] and
    /// [`Self::remove_commodity`] — an O(1) staleness key for caches and
    /// buffers derived from the commodity structure. The node/edge/
    /// commodity counts alone are not one: an evict followed by an admit
    /// restores all three while changing every per-commodity extent.
    #[must_use]
    pub fn structure_version(&self) -> u64 {
        self.structure_version
    }

    /// Recovers the standalone definition of commodity `j` — enough to
    /// re-admit it later via [`Self::add_commodity`] after a
    /// [`Self::remove_commodity`].
    #[must_use]
    pub fn commodity_def(&self, j: CommodityId) -> CommodityDef {
        let c = self.commodity(j);
        let row = j.index() * self.graph.edge_count();
        let edges = (0..self.physical_edges)
            .filter(|&e| self.in_commodity[row + 2 * e])
            .map(|e| {
                (
                    EdgeId::from_index(e),
                    self.cost[row + 2 * e],
                    self.beta[row + 2 * e],
                )
            })
            .collect();
        CommodityDef {
            source: c.source(),
            sink: c.sink(),
            max_rate: c.max_rate,
            utility: c.utility,
            edges,
        }
    }

    /// Admits a new commodity online, without rebuilding the shared
    /// physical/bandwidth layers: appends the dummy source, the dummy
    /// input/difference links, the per-commodity parameter rows and one
    /// extent of the adjacency arena. All existing ids and every
    /// survivor's extent are unchanged; the result is indistinguishable
    /// from a from-scratch [`Self::build`] of the enlarged commodity set.
    ///
    /// Everything is validated before the first mutation: a rejected
    /// definition leaves the network exactly as it was.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not distinct physical nodes, the
    /// rate or any edge parameter is not finite and positive, an
    /// overlay edge is not physical, or the commodity's extended
    /// subgraph would contain a cycle.
    pub fn add_commodity(&mut self, def: CommodityDef) -> CommodityId {
        let n = self.physical_nodes;
        let m = self.physical_edges;
        assert!(
            def.source.index() < n,
            "source {} is not a physical node",
            def.source
        );
        assert!(
            def.sink.index() < n,
            "sink {} is not a physical node",
            def.sink
        );
        assert_ne!(def.source, def.sink, "source and sink must differ");
        assert!(
            def.max_rate.is_finite() && def.max_rate > 0.0,
            "max rate must be finite and positive, got {}",
            def.max_rate
        );
        for &(e, c, b) in &def.edges {
            assert!(e.index() < m, "edge {e} is not a physical edge");
            assert!(
                c.is_finite() && c > 0.0,
                "edge cost must be finite and positive, got {c}"
            );
            assert!(
                b.is_finite() && b > 0.0,
                "edge beta must be finite and positive, got {b}"
            );
        }

        // The ids the newcomer's dummy node and links will get, and its
        // adjacency over them — built (and checked for cycles) from the
        // edge list alone, before anything exists in the graph.
        let j = CommodityId::from_index(self.commodities.len());
        let dummy = NodeId::from_index(self.graph.node_count());
        let l_old = self.graph.edge_count();
        let (input, diff) = (EdgeId::from_index(l_old), EdgeId::from_index(l_old + 1));
        let mut overlay: Vec<usize> = def.edges.iter().map(|&(e, _, _)| e.index()).collect();
        overlay.sort_unstable();
        overlay.dedup();
        let mut edges = Vec::with_capacity(2 * overlay.len() + 2);
        for e in overlay {
            for l in [2 * e, 2 * e + 1] {
                let l = EdgeId::from_index(l);
                let (tail, head) = self.graph.endpoints(l);
                edges.push((l, tail, head));
            }
        }
        edges.push((input, dummy, def.source));
        edges.push((diff, dummy, def.sink));
        let adj = CommodityAdjacency::build(&edges, def.sink).unwrap_or_else(|v| {
            panic!("admitted commodity's extended subgraph must be a DAG: cycle through {v}")
        });

        let added = self.graph.add_node();
        debug_assert_eq!(added, dummy);
        self.node_kind.push(NodeKind::DummySource(j));
        self.capacity.push(Capacity::INFINITE);
        self.dummy_source.push(dummy);
        let added = self.graph.add_edge(dummy, def.source);
        debug_assert_eq!(added, input);
        self.edge_kind.push(EdgeKind::DummyInput(j));
        self.input_edge.push(input);
        let added = self.graph.add_edge(dummy, def.sink);
        debug_assert_eq!(added, diff);
        self.edge_kind.push(EdgeKind::DummyDifference(j));
        self.difference_edge.push(diff);

        // Per-commodity parameter slabs restride from `L` to `L + 2`,
        // gaining default entries for the new dummy links.
        let l_count = l_old + 2;
        let j_old = j.index();
        {
            let mut in_commodity = Vec::with_capacity((j_old + 1) * l_count);
            let mut cost = Vec::with_capacity((j_old + 1) * l_count);
            let mut beta = Vec::with_capacity((j_old + 1) * l_count);
            for i in 0..j_old {
                in_commodity.extend_from_slice(&self.in_commodity[i * l_old..(i + 1) * l_old]);
                in_commodity.extend_from_slice(&[false, false]);
                cost.extend_from_slice(&self.cost[i * l_old..(i + 1) * l_old]);
                cost.extend_from_slice(&[1.0, 1.0]);
                beta.extend_from_slice(&self.beta[i * l_old..(i + 1) * l_old]);
                beta.extend_from_slice(&[1.0, 1.0]);
            }
            self.in_commodity = in_commodity;
            self.cost = cost;
            self.beta = beta;
        }
        let row = j_old * l_count;
        self.in_commodity.resize(row + l_count, false);
        self.cost.resize(row + l_count, 1.0);
        self.beta.resize(row + l_count, 1.0);
        for &(e, c, b) in &def.edges {
            let ingress = row + 2 * e.index();
            self.in_commodity[ingress] = true;
            self.cost[ingress] = c;
            self.beta[ingress] = b;
            // egress: one unit of bandwidth per unit of flow, flow
            // conserved.
            self.in_commodity[ingress + 1] = true;
        }
        self.in_commodity[row + input.index()] = true;
        self.in_commodity[row + diff.index()] = true;

        self.adjacency.push(adj);
        self.adjacency.rebuild_router_union(self.graph.node_count());
        self.structure_version += 1;
        self.commodities.push(Commodity::new(
            def.source,
            def.sink,
            def.max_rate,
            def.utility,
        ));
        j
    }

    /// Removes a commodity online. Later commodities are renumbered
    /// down by one (ids are dense); their dummy nodes shift down one
    /// node id and their dummy links down two edge ids, exactly
    /// matching what a from-scratch [`Self::build`] of the surviving
    /// commodity set would assign. Physical and bandwidth layers are
    /// untouched, and so is every survivor's member order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a commodity of this network.
    pub fn remove_commodity(&mut self, j: CommodityId) {
        let jr = j.index();
        assert!(
            jr < self.commodities.len(),
            "{j} is not a commodity of this network"
        );
        let n = self.physical_nodes;
        let m = self.physical_edges;
        let j_old = self.commodities.len();
        let l_old = self.graph.edge_count();
        let d = self.dummy_source[jr];
        let er0 = self.input_edge[jr];
        debug_assert_eq!(d.index(), n + m + jr);
        debug_assert_eq!(er0.index(), 2 * m + 2 * jr);
        debug_assert_eq!(self.difference_edge[jr].index(), er0.index() + 1);

        // Drop the graph tail from the departing dummy onward, then
        // re-append the later commodities' dummies in order — node and
        // edge additions land on the same ids, and the dummy in-edges
        // of shared physical sources/sinks arrive in the same commodity
        // order, as a fresh build of the surviving set.
        self.graph.truncate(n + m + jr, 2 * m + 2 * jr);
        self.node_kind.truncate(n + m + jr);
        self.capacity.truncate(n + m + jr);
        self.edge_kind.truncate(2 * m + 2 * jr);
        self.dummy_source.truncate(jr);
        self.input_edge.truncate(jr);
        self.difference_edge.truncate(jr);
        self.commodities.remove(jr);

        for (i, c) in self.commodities.iter().enumerate().skip(jr) {
            let id = CommodityId::from_index(i);
            let dummy = self.graph.add_node();
            self.node_kind.push(NodeKind::DummySource(id));
            self.capacity.push(Capacity::INFINITE);
            self.dummy_source.push(dummy);
            let input = self.graph.add_edge(dummy, c.source());
            self.edge_kind.push(EdgeKind::DummyInput(id));
            self.input_edge.push(input);
            let diff = self.graph.add_edge(dummy, c.sink());
            self.edge_kind.push(EdgeKind::DummyDifference(id));
            self.difference_edge.push(diff);
        }

        // Per-commodity parameter slabs: drop row `jr`, then excise the
        // departed dummy links' two columns (foreign rows hold only
        // defaults there) so later edge ids shift down in lockstep —
        // restriding from `L` to `L − 2`.
        let e0 = er0.index();
        let l_new = l_old - 2;
        {
            let mut in_commodity = Vec::with_capacity((j_old - 1) * l_new);
            let mut cost = Vec::with_capacity((j_old - 1) * l_new);
            let mut beta = Vec::with_capacity((j_old - 1) * l_new);
            for i in (0..j_old).filter(|&i| i != jr) {
                let row = &self.in_commodity[i * l_old..(i + 1) * l_old];
                debug_assert!(
                    !row[e0] && !row[e0 + 1],
                    "dummy links leaked across commodities"
                );
                in_commodity.extend_from_slice(&row[..e0]);
                in_commodity.extend_from_slice(&row[e0 + 2..]);
                let row = &self.cost[i * l_old..(i + 1) * l_old];
                cost.extend_from_slice(&row[..e0]);
                cost.extend_from_slice(&row[e0 + 2..]);
                let row = &self.beta[i * l_old..(i + 1) * l_old];
                beta.extend_from_slice(&row[..e0]);
                beta.extend_from_slice(&row[e0 + 2..]);
            }
            self.in_commodity = in_commodity;
            self.cost = cost;
            self.beta = beta;
        }

        self.adjacency.remove(jr, d, er0);
        self.adjacency.rebuild_router_union(self.graph.node_count());
        self.structure_version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_model::builder::ProblemBuilder;
    use spn_model::random::RandomInstance;
    use spn_model::UtilityFn;

    fn chain() -> Problem {
        let mut b = ProblemBuilder::new();
        let s = b.server(10.0);
        let x = b.server(20.0);
        let t = b.server(10.0);
        let e1 = b.link(s, x, 5.0);
        let e2 = b.link(x, t, 7.0);
        let j = b.commodity(s, t, 4.0, UtilityFn::throughput());
        b.uses(j, e1, 2.0, 0.5);
        b.uses(j, e2, 3.0, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn counts_match_paper_formula() {
        // "an original graph G with N nodes, M edges and J commodities
        //  produces a new graph G' with N+M+J nodes, 2M+2J edges"
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        assert_eq!(ext.graph().node_count(), 3 + 2 + 1);
        assert_eq!(ext.graph().edge_count(), 2 * 2 + 2); // 2M + 2J

        let inst = RandomInstance::builder().seed(4).build().unwrap();
        let p = inst.problem;
        let (n, m, j) = (
            p.graph().node_count(),
            p.graph().edge_count(),
            p.num_commodities(),
        );
        let ext = ExtendedNetwork::build(&p);
        assert_eq!(ext.graph().node_count(), n + m + j);
        assert_eq!(ext.graph().edge_count(), 2 * m + 2 * j);
    }

    #[test]
    fn id_layout_is_deterministic() {
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        let j = CommodityId::from_index(0);
        // node 0..3 physical, 3..5 bandwidth, 5 dummy
        assert_eq!(
            ext.node_kind(NodeId::from_index(0)),
            NodeKind::Processing(NodeId::from_index(0))
        );
        assert_eq!(
            ext.node_kind(NodeId::from_index(3)),
            NodeKind::Bandwidth(EdgeId::from_index(0))
        );
        assert_eq!(
            ext.node_kind(NodeId::from_index(5)),
            NodeKind::DummySource(j)
        );
        assert_eq!(ext.dummy_source(j), NodeId::from_index(5));
        // edges 0..4 splits, 4 dummy input, 5 difference
        assert_eq!(
            ext.edge_kind(EdgeId::from_index(0)),
            EdgeKind::Ingress(EdgeId::from_index(0))
        );
        assert_eq!(
            ext.edge_kind(EdgeId::from_index(1)),
            EdgeKind::Egress(EdgeId::from_index(0))
        );
        assert_eq!(ext.edge_kind(ext.input_edge(j)), EdgeKind::DummyInput(j));
        assert_eq!(
            ext.edge_kind(ext.difference_edge(j)),
            EdgeKind::DummyDifference(j)
        );
    }

    #[test]
    fn parameters_transfer_per_paper() {
        // c(i, n_ik) = c_ik, β(i, n_ik) = β_ik; c(n_ik, k) = 1, β = 1
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        let j = CommodityId::from_index(0);
        let ingress0 = EdgeId::from_index(0);
        let egress0 = EdgeId::from_index(1);
        assert_eq!(ext.cost(j, ingress0), 2.0);
        assert_eq!(ext.beta(j, ingress0), 0.5);
        assert_eq!(ext.cost(j, egress0), 1.0);
        assert_eq!(ext.beta(j, egress0), 1.0);
        let ingress1 = EdgeId::from_index(2);
        assert_eq!(ext.cost(j, ingress1), 3.0);
        assert_eq!(ext.beta(j, ingress1), 2.0);
    }

    #[test]
    fn capacities_transfer() {
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        assert_eq!(ext.capacity(NodeId::from_index(0)).value(), 10.0);
        // bandwidth node of first link has B = 5
        assert_eq!(ext.capacity(NodeId::from_index(3)).value(), 5.0);
        assert!(ext.capacity(NodeId::from_index(5)).is_infinite());
    }

    #[test]
    fn dummy_links_connect_correctly() {
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        let j = CommodityId::from_index(0);
        let g = ext.graph();
        let (a, b) = g.endpoints(ext.input_edge(j));
        assert_eq!(a, ext.dummy_source(j));
        assert_eq!(b, ext.commodity(j).source());
        let (a, b) = g.endpoints(ext.difference_edge(j));
        assert_eq!(a, ext.dummy_source(j));
        assert_eq!(b, ext.commodity(j).sink());
    }

    #[test]
    fn commodity_edge_iterators() {
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        let j = CommodityId::from_index(0);
        let dummy = ext.dummy_source(j);
        let out: Vec<EdgeId> = ext.commodity_out_edges(j, dummy).collect();
        assert_eq!(out.len(), 2);
        let sink = ext.commodity(j).sink();
        let into: Vec<EdgeId> = ext.commodity_in_edges(j, sink).collect();
        // egress of second link + difference link
        assert_eq!(into.len(), 2);
    }

    #[test]
    fn csr_matches_membership_filter() {
        let inst = RandomInstance::builder()
            .seed(9)
            .commodities(3)
            .build()
            .unwrap();
        let ext = ExtendedNetwork::build(&inst.problem);
        for j in ext.commodity_ids() {
            let mut expected_routers = Vec::new();
            for v in ext.graph().nodes() {
                let out: Vec<EdgeId> = ext
                    .graph()
                    .out_edges(v)
                    .iter()
                    .copied()
                    .filter(|&l| ext.in_commodity(j, l))
                    .collect();
                assert_eq!(
                    ext.commodity_out_slice(j, v),
                    &out[..],
                    "out slice of {v} for {j}"
                );
                let into: Vec<EdgeId> = ext
                    .graph()
                    .in_edges(v)
                    .iter()
                    .copied()
                    .filter(|&l| ext.in_commodity(j, l))
                    .collect();
                assert_eq!(
                    ext.commodity_in_slice(j, v),
                    &into[..],
                    "in slice of {v} for {j}"
                );
                if v != ext.commodity(j).sink() && !out.is_empty() {
                    expected_routers.push(v);
                }
            }
            assert_eq!(ext.commodity_routers(j), &expected_routers[..]);
            let max_deg = ext
                .graph()
                .nodes()
                .map(|v| ext.commodity_out_slice(j, v).len())
                .max()
                .unwrap();
            assert_eq!(ext.max_out_degree(j), max_deg);
        }
    }

    #[test]
    fn routers_topo_is_routers_in_topological_order() {
        let inst = RandomInstance::builder()
            .seed(11)
            .commodities(4)
            .build()
            .unwrap();
        let ext = ExtendedNetwork::build(&inst.problem);
        for j in ext.commodity_ids() {
            let topo: Vec<NodeId> = ext.commodity_routers_topo(j).collect();
            let mut sorted = topo.clone();
            sorted.sort_by_key(|v| v.index());
            assert_eq!(
                &sorted[..],
                ext.commodity_routers(j),
                "routers_topo must be the router set for {j}"
            );
            // Order must agree with the commodity topological order.
            let order: Vec<NodeId> = ext.topo_order(j).collect();
            let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
            for w in topo.windows(2) {
                assert!(pos(w[0]) < pos(w[1]), "routers_topo out of order for {j}");
            }
            let arcs: usize = topo
                .iter()
                .map(|&v| ext.commodity_out_slice(j, v).len())
                .sum();
            assert_eq!(ext.commodity_router_arc_total(j), arcs);
        }
    }

    #[test]
    fn topo_order_starts_feasibly() {
        let p = chain();
        let ext = ExtendedNetwork::build(&p);
        let j = CommodityId::from_index(0);
        let order: Vec<NodeId> = ext.topo_order(j).collect();
        // members only: 3 servers + 2 bandwidth nodes + the dummy
        assert_eq!(order.len(), ext.commodity_member_nodes(j).len());
        assert_eq!(order.len(), 6);
        let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(ext.dummy_source(j)) < pos(ext.commodity(j).source()));
        assert!(pos(ext.commodity(j).source()) < pos(ext.commodity(j).sink()));
    }

    /// Field-by-field equality of two extended networks, including the
    /// private CSR/topo caches — "indistinguishable from a fresh build".
    fn assert_same_network(a: &ExtendedNetwork, b: &ExtendedNetwork) {
        assert_eq!(a.graph.node_count(), b.graph.node_count(), "node count");
        assert_eq!(a.graph.edge_count(), b.graph.edge_count(), "edge count");
        for e in a.graph.edges() {
            assert_eq!(
                a.graph.endpoints(e),
                b.graph.endpoints(e),
                "endpoints of {e}"
            );
        }
        for v in a.graph.nodes() {
            assert_eq!(
                a.graph.out_edges(v),
                b.graph.out_edges(v),
                "out adjacency of {v}"
            );
            assert_eq!(
                a.graph.in_edges(v),
                b.graph.in_edges(v),
                "in adjacency of {v}"
            );
        }
        assert_eq!(a.node_kind, b.node_kind, "node kinds");
        assert_eq!(a.edge_kind, b.edge_kind, "edge kinds");
        assert_eq!(a.capacity, b.capacity, "capacities");
        assert_eq!(a.in_commodity, b.in_commodity, "membership rows");
        assert_eq!(a.cost, b.cost, "cost rows");
        assert_eq!(a.beta, b.beta, "beta rows");
        assert_eq!(a.dummy_source, b.dummy_source, "dummy sources");
        assert_eq!(a.input_edge, b.input_edge, "input edges");
        assert_eq!(a.difference_edge, b.difference_edge, "difference edges");
        assert_eq!(a.commodities, b.commodities, "commodities");
        let (x, y) = (&a.adjacency, &b.adjacency);
        assert_eq!(x.member_nodes, y.member_nodes, "member_nodes slab");
        assert_eq!(x.topo, y.topo, "topological orders");
        assert_eq!(x.member_base, y.member_base, "member_base");
        assert_eq!(x.out_start, y.out_start, "out_start rows");
        assert_eq!(x.in_start, y.in_start, "in_start rows");
        assert_eq!(x.out_edges, y.out_edges, "out_edges slab");
        assert_eq!(x.out_head, y.out_head, "out_head slab");
        assert_eq!(x.in_edges, y.in_edges, "in_edges slab");
        assert_eq!(x.in_tail, y.in_tail, "in_tail slab");
        assert_eq!(x.out_base, y.out_base, "out_base");
        assert_eq!(x.in_base, y.in_base, "in_base");
        assert_eq!(x.routers, y.routers, "routers slab");
        assert_eq!(x.router_pos, y.router_pos, "router positions");
        assert_eq!(x.routers_topo, y.routers_topo, "routers_topo slab");
        assert_eq!(x.router_base, y.router_base, "router_base");
        assert_eq!(x.deciders, y.deciders, "decider slab");
        assert_eq!(x.decider_base, y.decider_base, "decider_base");
        assert_eq!(x.router_arc_total, y.router_arc_total, "router arc totals");
        assert_eq!(x.max_out_deg, y.max_out_deg, "max out-degrees");
        assert_eq!(x.router_union, y.router_union, "router union");
        let mut expect = x.routers.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(x.router_union, expect, "router union vs sort + dedup");
        assert_eq!(a.physical_nodes, b.physical_nodes);
        assert_eq!(a.physical_edges, b.physical_edges);
    }

    fn subset_problem(full: &Problem, keep: &[usize]) -> Problem {
        let mut spec = spn_model::spec::ProblemSpec::from(full);
        spec.commodities = keep.iter().map(|&i| spec.commodities[i].clone()).collect();
        spec.into_problem().unwrap()
    }

    fn four_commodity_problem() -> Problem {
        RandomInstance::builder()
            .seed(23)
            .commodities(4)
            .build()
            .unwrap()
            .problem
    }

    #[test]
    fn incremental_add_matches_fresh_build() {
        let full = four_commodity_problem();
        // grow 1 → 4 commodities one admission at a time
        let mut ext = ExtendedNetwork::build(&subset_problem(&full, &[0]));
        for i in 1..4 {
            let j = ext.add_commodity(CommodityDef::from_problem(
                &full,
                CommodityId::from_index(i),
            ));
            assert_eq!(j.index(), i);
            let keep: Vec<usize> = (0..=i).collect();
            let fresh = ExtendedNetwork::build(&subset_problem(&full, &keep));
            assert_same_network(&ext, &fresh);
        }
        assert_same_network(&ext, &ExtendedNetwork::build(&full));
    }

    #[test]
    fn incremental_remove_matches_fresh_build() {
        let full = four_commodity_problem();
        // remove an interior commodity: later ones renumber down
        let mut ext = ExtendedNetwork::build(&full);
        ext.remove_commodity(CommodityId::from_index(1));
        let fresh = ExtendedNetwork::build(&subset_problem(&full, &[0, 2, 3]));
        assert_same_network(&ext, &fresh);
        // and the tail commodity
        ext.remove_commodity(CommodityId::from_index(2));
        let fresh = ExtendedNetwork::build(&subset_problem(&full, &[0, 2]));
        assert_same_network(&ext, &fresh);
    }

    #[test]
    fn readmitting_a_parked_commodity_round_trips() {
        let full = four_commodity_problem();
        let mut ext = ExtendedNetwork::build(&full);
        let victim = CommodityId::from_index(1);
        let parked = ext.commodity_def(victim);
        assert_eq!(
            parked,
            CommodityDef::from_problem(&full, victim),
            "recovered def must match the problem's"
        );
        ext.remove_commodity(victim);
        ext.add_commodity(parked);
        // fresh build with the parked commodity re-admitted last
        let fresh = ExtendedNetwork::build(&subset_problem(&full, &[0, 2, 3, 1]));
        assert_same_network(&ext, &fresh);
    }

    /// An evict + admit pair restores `(J, V, L)` but not the
    /// per-commodity extents — the version is what tells them apart.
    #[test]
    fn structure_version_counts_reshapes_not_capacity_edits() {
        let full = four_commodity_problem();
        let mut ext = ExtendedNetwork::build(&full);
        assert_eq!(ext.structure_version(), 0);
        ext.set_capacity(NodeId::from_index(0), Capacity::finite(3.0).unwrap());
        ext.set_max_rate(CommodityId::from_index(0), 2.0);
        assert_eq!(ext.structure_version(), 0);
        let parked = ext.commodity_def(CommodityId::from_index(0));
        ext.remove_commodity(CommodityId::from_index(0));
        assert_eq!(ext.structure_version(), 1);
        ext.add_commodity(parked);
        assert_eq!(ext.structure_version(), 2);
        assert_eq!(ext.clone().structure_version(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and positive")]
    fn set_capacity_rejects_non_finite_budget() {
        let p = chain();
        let mut ext = ExtendedNetwork::build(&p);
        ext.set_capacity(NodeId::from_index(0), Capacity::INFINITE);
    }

    #[test]
    #[should_panic(expected = "is not a node of this network")]
    fn set_capacity_rejects_unknown_node() {
        let p = chain();
        let mut ext = ExtendedNetwork::build(&p);
        ext.set_capacity(NodeId::from_index(999), Capacity::finite(1.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "dummy sources are unconstrained")]
    fn set_capacity_rejects_dummy_source() {
        let p = chain();
        let mut ext = ExtendedNetwork::build(&p);
        let dummy = ext.dummy_source(CommodityId::from_index(0));
        ext.set_capacity(dummy, Capacity::finite(1.0).unwrap());
    }

    #[test]
    fn shared_edges_keep_per_commodity_parameters() {
        let mut b = ProblemBuilder::new();
        let s1 = b.server(10.0);
        let s2 = b.server(10.0);
        let x = b.server(10.0);
        let t1 = b.server(10.0);
        let t2 = b.server(10.0);
        let e_in1 = b.link(s1, x, 5.0);
        let e_in2 = b.link(s2, x, 5.0);
        let e_out1 = b.link(x, t1, 5.0);
        let e_out2 = b.link(x, t2, 5.0);
        let j1 = b.commodity(s1, t1, 2.0, UtilityFn::throughput());
        let j2 = b.commodity(s2, t2, 2.0, UtilityFn::throughput());
        b.uses(j1, e_in1, 1.0, 1.0).uses(j1, e_out1, 2.0, 0.5);
        b.uses(j2, e_in2, 1.5, 2.0).uses(j2, e_out2, 2.5, 1.0);
        let p = b.build().unwrap();
        let ext = ExtendedNetwork::build(&p);
        // j1 cannot use j2's edges
        assert!(ext.in_commodity(j1, EdgeId::from_index(0)));
        assert!(!ext.in_commodity(j1, EdgeId::from_index(2)));
        assert!(ext.in_commodity(j2, EdgeId::from_index(2)));
        assert_eq!(ext.cost(j2, EdgeId::from_index(2)), 1.5);
        assert_eq!(ext.beta(j2, EdgeId::from_index(2)), 2.0);
    }
}
