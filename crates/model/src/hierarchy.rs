//! Hierarchical (region × rack × server) instances for the scale tier.
//!
//! The random generator of [`crate::random`] reproduces the paper's §6
//! evaluation shape — a flat 40-node cloud — but the protocol is meant
//! for planetary-scale stream processing. This module synthesizes the
//! topologies that tier actually looks like: a fixed hierarchy of
//! *regions*, each holding *racks* of *servers*, with tenant-aggregated
//! commodities whose pipelines start at a rack-local aggregation server,
//! spread through the home region, and terminate at a sink server in
//! the same or a remote region.
//!
//! Node ids are **region-major**: all servers of region 0 come first,
//! rack by rack, then region 1, and so on. Everything downstream keys
//! off this — the per-commodity router lists and live-arc rows the
//! sparse engine walks are contiguous runs of nearby ids, so the
//! chain walks of a tenant stay inside its home/sink regions' slice of
//! every per-node buffer (see ARCHITECTURE, "Memory layout at scale").
//!
//! Generation is deterministic per seed and sized by the hierarchy
//! (`regions × racks × servers`), so benches and tests can synthesize
//! 1k–100k-node problems from a one-line config.

use crate::capacity::Capacity;
use crate::commodity::Commodity;
use crate::error::ModelError;
use crate::problem::{EdgeParams, Problem};
use crate::utility::UtilityFn;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};
use spn_graph::{DiGraph, NodeId};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Configuration of the hierarchical instance generator.
///
/// The default is a small sanity shape (4 regions × 5 racks × 5 servers
/// = 100 nodes, 8 tenants); scale cases override the three hierarchy
/// knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchicalInstanceConfig {
    /// Number of regions (top level of the hierarchy).
    pub regions: usize,
    /// Racks per region.
    pub racks_per_region: usize,
    /// Servers per rack. Total node count is the product of the three.
    pub servers_per_rack: usize,
    /// Number of tenant commodities (source–sink pairs).
    pub commodities: usize,
    /// PRNG seed; equal seeds yield identical instances.
    pub seed: u64,
    /// Probability a tenant's sink stays in its home region.
    pub locality: f64,
    /// Server computing capacities, drawn uniformly.
    pub node_capacity: RangeInclusive<f64>,
    /// Intra-region link bandwidths, drawn uniformly.
    pub link_bandwidth: RangeInclusive<f64>,
    /// Inter-region (backbone) link bandwidths, drawn uniformly.
    pub backbone_bandwidth: RangeInclusive<f64>,
    /// Per-(commodity, node) gains, drawn uniformly (Property 1 holds
    /// by construction: `β^j_ik = g^j_k / g^j_i`).
    pub gain: RangeInclusive<f64>,
    /// Per-(commodity, edge) resource costs, drawn uniformly.
    pub cost: RangeInclusive<f64>,
    /// Maximum source rates `λ_j`, drawn uniformly.
    pub max_rate: RangeInclusive<f64>,
    /// Processing tasks per tenant pipeline.
    pub stages: RangeInclusive<usize>,
    /// Servers per intermediate task.
    pub width: RangeInclusive<usize>,
    /// Probability of each stage-to-stage edge beyond the ones required
    /// for connectivity.
    pub edge_prob: f64,
    /// Utility assigned to every tenant.
    pub utility: UtilityFn,
}

impl Default for HierarchicalInstanceConfig {
    fn default() -> Self {
        HierarchicalInstanceConfig {
            regions: 4,
            racks_per_region: 5,
            servers_per_rack: 5,
            commodities: 8,
            seed: 0,
            locality: 0.7,
            node_capacity: 20.0..=100.0,
            link_bandwidth: 20.0..=100.0,
            backbone_bandwidth: 10.0..=50.0,
            gain: 1.0..=10.0,
            cost: 1.0..=5.0,
            max_rate: 20.0..=60.0,
            stages: 3..=5,
            width: 2..=3,
            edge_prob: 0.3,
            utility: UtilityFn::throughput(),
        }
    }
}

impl HierarchicalInstanceConfig {
    /// Total physical node count (`regions × racks × servers`).
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.regions * self.racks_per_region * self.servers_per_rack
    }
}

/// A generated hierarchical instance: the validated [`Problem`] plus the
/// configuration that produced it.
#[derive(Clone, Debug)]
pub struct HierarchicalInstance {
    /// The validated problem.
    pub problem: Problem,
    /// The generating configuration (for manifests and re-generation).
    pub config: HierarchicalInstanceConfig,
}

impl HierarchicalInstance {
    /// Starts a builder with the default (100-node sanity) hierarchy.
    #[must_use]
    pub fn builder() -> HierarchicalInstanceBuilder {
        HierarchicalInstanceBuilder {
            config: HierarchicalInstanceConfig::default(),
        }
    }

    /// Generates an instance from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the configuration cannot produce a
    /// valid problem (zero commodities, or a hierarchy too small for
    /// the requested tenants and pipeline shapes).
    pub fn generate(config: HierarchicalInstanceConfig) -> Result<Self, ModelError> {
        let problem = generate_problem(&config)?;
        Ok(HierarchicalInstance { problem, config })
    }
}

/// Builder mirror of [`HierarchicalInstanceConfig`].
#[derive(Clone, Debug)]
pub struct HierarchicalInstanceBuilder {
    config: HierarchicalInstanceConfig,
}

impl HierarchicalInstanceBuilder {
    /// Sets the region count.
    #[must_use]
    pub fn regions(mut self, regions: usize) -> Self {
        self.config.regions = regions;
        self
    }

    /// Sets the racks per region.
    #[must_use]
    pub fn racks_per_region(mut self, racks: usize) -> Self {
        self.config.racks_per_region = racks;
        self
    }

    /// Sets the servers per rack.
    #[must_use]
    pub fn servers_per_rack(mut self, servers: usize) -> Self {
        self.config.servers_per_rack = servers;
        self
    }

    /// Sets the tenant (commodity) count.
    #[must_use]
    pub fn commodities(mut self, commodities: usize) -> Self {
        self.config.commodities = commodities;
        self
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the probability a tenant's sink stays in its home region.
    #[must_use]
    pub fn locality(mut self, locality: f64) -> Self {
        self.config.locality = locality;
        self
    }

    /// Sets the pipeline-depth range (tasks per tenant).
    #[must_use]
    pub fn stages(mut self, stages: RangeInclusive<usize>) -> Self {
        self.config.stages = stages;
        self
    }

    /// Sets the servers-per-task range.
    #[must_use]
    pub fn width(mut self, width: RangeInclusive<usize>) -> Self {
        self.config.width = width;
        self
    }

    /// Sets the maximum-rate range for `λ_j`.
    #[must_use]
    pub fn max_rate(mut self, max_rate: RangeInclusive<f64>) -> Self {
        self.config.max_rate = max_rate;
        self
    }

    /// Sets the utility assigned to every tenant.
    #[must_use]
    pub fn utility(mut self, utility: UtilityFn) -> Self {
        self.config.utility = utility;
        self
    }

    /// Generates the instance.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalInstance::generate`].
    pub fn build(self) -> Result<HierarchicalInstance, ModelError> {
        HierarchicalInstance::generate(self.config)
    }
}

fn sample(rng: &mut StdRng, range: &RangeInclusive<f64>) -> f64 {
    if range.start() == range.end() {
        *range.start()
    } else {
        rng.random_range(range.clone())
    }
}

fn sample_usize(rng: &mut StdRng, range: &RangeInclusive<usize>) -> usize {
    if range.start() == range.end() {
        *range.start()
    } else {
        rng.random_range(range.clone())
    }
}

/// Region index of a region-major node id.
fn region_of(v: NodeId, nodes_per_region: usize) -> usize {
    v.index() / nodes_per_region
}

fn generate_problem(cfg: &HierarchicalInstanceConfig) -> Result<Problem, ModelError> {
    let j_count = cfg.commodities;
    if j_count == 0 {
        return Err(ModelError::NoCommodities);
    }
    let nodes = cfg.total_nodes();
    let nodes_per_region = cfg.racks_per_region * cfg.servers_per_rack;
    // Every tenant needs a dedicated sink and a distinct source, and the
    // narrowest pipeline needs distinct servers per interior stage drawn
    // from at most two regions.
    let min_stage_nodes = 1 + (cfg.stages.start().saturating_sub(1)) * cfg.width.start();
    let min_nodes = (j_count * 2).max(j_count + min_stage_nodes);
    if cfg.regions == 0 || nodes < min_nodes {
        return Err(ModelError::ShapeMismatch {
            what: "hierarchy node budget for requested tenants/stages/width",
            expected: min_nodes,
            actual: nodes,
        });
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = DiGraph::new();
    let all: Vec<NodeId> = graph.add_nodes(nodes);

    // Region-major slices of the node id space.
    let region_nodes: Vec<&[NodeId]> = (0..cfg.regions)
        .map(|r| &all[r * nodes_per_region..(r + 1) * nodes_per_region])
        .collect();

    // Sinks are dedicated (they never process); sources are distinct.
    let mut reserved_sink = vec![false; nodes];
    let mut used_source = vec![false; nodes];

    let mut edge_ids: HashMap<(NodeId, NodeId), spn_graph::EdgeId> = HashMap::new();
    let mut overlay_raw: Vec<Vec<(spn_graph::EdgeId, EdgeParams)>> = vec![Vec::new(); j_count];
    let mut commodities = Vec::with_capacity(j_count);

    // Pass 1: place every tenant's endpoints before any pipeline is
    // built — sinks are dedicated servers, so they must all be reserved
    // up front (a sink chosen late must not already be processing an
    // earlier tenant's stage).
    let mut endpoints = Vec::with_capacity(j_count);
    for ji in 0..j_count {
        // Home region round-robins over the hierarchy so tenants spread
        // evenly; the sink region is home with probability `locality`.
        let home = ji % cfg.regions;
        let sink_region = if cfg.regions == 1 || rng.random_bool(cfg.locality.clamp(0.0, 1.0)) {
            home
        } else {
            let mut r = rng.random_range(0..cfg.regions - 1);
            if r >= home {
                r += 1;
            }
            r
        };

        // Source: a rack-local aggregation server in the home region.
        let source_rack = rng.random_range(0..cfg.racks_per_region);
        let rack_base = home * nodes_per_region + source_rack * cfg.servers_per_rack;
        let source = (0..cfg.servers_per_rack)
            .map(|s| all[rack_base + s])
            .find(|&n| !reserved_sink[n.index()] && !used_source[n.index()])
            .or_else(|| {
                region_nodes[home]
                    .iter()
                    .copied()
                    .find(|&n| !reserved_sink[n.index()] && !used_source[n.index()])
            })
            .ok_or(ModelError::ShapeMismatch {
                what: "free source server in home region",
                expected: 1,
                actual: 0,
            })?;
        used_source[source.index()] = true;

        // Sink: a dedicated server in the sink region (globally
        // reserved, so no tenant ever routes *through* a sink).
        let mut sink_pool: Vec<NodeId> = region_nodes[sink_region]
            .iter()
            .copied()
            .filter(|&n| !reserved_sink[n.index()] && !used_source[n.index()])
            .collect();
        if sink_pool.is_empty() {
            sink_pool = all
                .iter()
                .copied()
                .filter(|&n| !reserved_sink[n.index()] && !used_source[n.index()])
                .collect();
        }
        let &sink = sink_pool
            .choose(&mut rng)
            .ok_or(ModelError::ShapeMismatch {
                what: "free sink server",
                expected: 1,
                actual: 0,
            })?;
        reserved_sink[sink.index()] = true;
        endpoints.push((home, sink_region, source_rack, rack_base, source, sink));
    }

    // Pass 2: build each tenant's pipeline with every sink reserved.
    for ji in 0..j_count {
        let (home, sink_region, source_rack, rack_base, source, sink) = endpoints[ji];

        // Interior-stage candidate pools, rack-aware: the source's rack
        // first (tenant aggregation starts rack-local), then the rest of
        // the home region, then — for cross-region tenants — the sink
        // region. Shuffled within each tier, consumed left to right, so
        // early stages stay rack- then region-local and late stages
        // migrate toward the sink's region.
        let excluded = |n: NodeId| reserved_sink[n.index()] || n == source || n == sink;
        let mut rack_tier: Vec<NodeId> = (0..cfg.servers_per_rack)
            .map(|s| all[rack_base + s])
            .filter(|&n| !excluded(n))
            .collect();
        rack_tier.shuffle(&mut rng);
        let mut home_tier: Vec<NodeId> = region_nodes[home]
            .iter()
            .copied()
            .filter(|&n| !excluded(n) && region_rack(n, cfg) != (home, source_rack))
            .collect();
        home_tier.shuffle(&mut rng);
        let mut remote_tier: Vec<NodeId> = if sink_region == home {
            Vec::new()
        } else {
            region_nodes[sink_region]
                .iter()
                .copied()
                .filter(|&n| !excluded(n))
                .collect()
        };
        remote_tier.shuffle(&mut rng);
        let mut candidates = rack_tier;
        candidates.extend(home_tier);
        candidates.extend(remote_tier);

        // Distinct servers per stage (a server processes at most one
        // task per tenant → the overlay is a DAG). Depth and width adapt
        // to the pool exactly as the flat generator does.
        let min_w = *cfg.width.start();
        let max_depth = 1 + candidates.len() / min_w;
        let hi = (*cfg.stages.end()).min(max_depth).max(*cfg.stages.start());
        let stages = sample_usize(&mut rng, &(*cfg.stages.start()..=hi));
        let mut layers: Vec<Vec<NodeId>> = vec![vec![source]];
        let mut cursor = 0;
        for layer_idx in 1..stages {
            let layers_after = stages - 1 - layer_idx;
            let available = candidates.len() - cursor;
            let cap = available.saturating_sub(layers_after * min_w).max(min_w);
            let width = sample_usize(&mut rng, &(min_w..=(*cfg.width.end()).min(cap).max(min_w)));
            let layer: Vec<NodeId> = candidates[cursor..cursor + width].to_vec();
            cursor += width;
            layers.push(layer);
        }
        layers.push(vec![sink]);

        // Gains only for the nodes this tenant touches, in layer order
        // (deterministic, and O(overlay) rather than O(nodes) per
        // tenant — the scale tier generates 100k-node instances).
        let mut gains: HashMap<NodeId, f64> = HashMap::new();
        for layer in &layers {
            for &n in layer {
                gains
                    .entry(n)
                    .or_insert_with(|| sample(&mut rng, &cfg.gain));
            }
        }

        // Connect consecutive layers: forward and backward coverage,
        // then extras with `edge_prob`.
        for w in layers.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let mut chosen: Vec<(NodeId, NodeId)> = Vec::new();
            for &x in a {
                let &y = b.choose(&mut rng).expect("layer nonempty");
                chosen.push((x, y));
            }
            for &y in b {
                if !chosen.iter().any(|&(_, t)| t == y) {
                    let &x = a.choose(&mut rng).expect("layer nonempty");
                    chosen.push((x, y));
                }
            }
            for &x in a {
                for &y in b {
                    if !chosen.contains(&(x, y)) && rng.random_bool(cfg.edge_prob) {
                        chosen.push((x, y));
                    }
                }
            }
            for (x, y) in chosen {
                let e = *edge_ids
                    .entry((x, y))
                    .or_insert_with(|| graph.add_edge(x, y));
                let beta = gains[&y] / gains[&x];
                let cost = sample(&mut rng, &cfg.cost);
                overlay_raw[ji].push((e, EdgeParams::new(cost, beta)));
            }
        }

        let max_rate = sample(&mut rng, &cfg.max_rate);
        commodities.push(Commodity::new(source, sink, max_rate, cfg.utility));
    }

    let node_capacity: Vec<Capacity> = (0..nodes)
        .map(|_| Capacity::finite(sample(&mut rng, &cfg.node_capacity)).expect("range positive"))
        .collect();
    let edge_bandwidth: Vec<Capacity> = graph
        .edges()
        .map(|e| {
            let cross = region_of(graph.source(e), nodes_per_region)
                != region_of(graph.target(e), nodes_per_region);
            let range = if cross {
                &cfg.backbone_bandwidth
            } else {
                &cfg.link_bandwidth
            };
            Capacity::finite(sample(&mut rng, range)).expect("range positive")
        })
        .collect();

    let mut overlay: Vec<Vec<Option<EdgeParams>>> = vec![vec![None; graph.edge_count()]; j_count];
    for (ji, entries) in overlay_raw.into_iter().enumerate() {
        for (e, p) in entries {
            overlay[ji][e.index()] = Some(p);
        }
    }

    Problem::from_parts(graph, node_capacity, edge_bandwidth, commodities, overlay)
}

/// `(region, rack)` of a region-major node id.
fn region_rack(v: NodeId, cfg: &HierarchicalInstanceConfig) -> (usize, usize) {
    let nodes_per_region = cfg.racks_per_region * cfg.servers_per_rack;
    let region = v.index() / nodes_per_region;
    let rack = (v.index() % nodes_per_region) / cfg.servers_per_rack;
    (region, rack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity::CommodityId;
    use crate::gains::property1_holds_by_enumeration;
    use spn_graph::topo::is_acyclic_filtered;

    #[test]
    fn default_hierarchy_builds_and_validates() {
        let inst = HierarchicalInstance::builder().seed(3).build().unwrap();
        let p = &inst.problem;
        assert_eq!(p.graph().node_count(), 100);
        assert_eq!(p.num_commodities(), 8);
        for j in p.commodity_ids() {
            let in_overlay: Vec<bool> = p.graph().edges().map(|e| p.in_overlay(j, e)).collect();
            let beta: Vec<f64> = p
                .graph()
                .edges()
                .map(|e| p.params(j, e).map_or(1.0, |pp| pp.beta))
                .collect();
            assert!(property1_holds_by_enumeration(
                p.graph(),
                p.commodity(j).source(),
                &in_overlay,
                &beta,
                2000,
            ));
        }
    }

    #[test]
    fn overlays_are_dags_and_sinks_never_process() {
        for seed in 0..6 {
            let inst = HierarchicalInstance::builder().seed(seed).build().unwrap();
            let p = &inst.problem;
            for j in p.commodity_ids() {
                assert!(is_acyclic_filtered(p.graph(), |e| p.in_overlay(j, e)));
                let sink = p.commodity(j).sink();
                for jj in p.commodity_ids() {
                    for e in p.overlay_edges(jj) {
                        assert_ne!(p.graph().source(e), sink, "sink {sink} has outgoing edge");
                    }
                }
            }
        }
    }

    #[test]
    fn sources_and_sinks_are_distinct_across_tenants() {
        let inst = HierarchicalInstance::builder().seed(9).build().unwrap();
        let p = &inst.problem;
        let mut seen = std::collections::HashSet::new();
        for j in p.commodity_ids() {
            assert!(seen.insert(p.commodity(j).source()));
            assert!(seen.insert(p.commodity(j).sink()));
        }
    }

    #[test]
    fn locality_keeps_tenants_in_their_home_region() {
        let cfg = HierarchicalInstanceConfig {
            regions: 4,
            racks_per_region: 4,
            servers_per_rack: 8,
            commodities: 16,
            locality: 1.0,
            seed: 11,
            ..HierarchicalInstanceConfig::default()
        };
        let nodes_per_region = cfg.racks_per_region * cfg.servers_per_rack;
        let inst = HierarchicalInstance::generate(cfg).unwrap();
        let p = &inst.problem;
        for j in p.commodity_ids() {
            let c = p.commodity(j);
            assert_eq!(
                region_of(c.source(), nodes_per_region),
                region_of(c.sink(), nodes_per_region),
                "locality=1.0 must keep source and sink co-regional"
            );
            // Region-major ids: every overlay node of a fully local
            // tenant lives inside one contiguous id slice.
            let home = region_of(c.source(), nodes_per_region);
            for e in p.overlay_edges(j) {
                for v in [p.graph().source(e), p.graph().target(e)] {
                    assert_eq!(region_of(v, nodes_per_region), home);
                }
            }
        }
    }

    #[test]
    fn rejects_zero_commodities_and_tiny_hierarchies() {
        let err = HierarchicalInstance::builder()
            .commodities(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::NoCommodities));
        let err = HierarchicalInstance::builder()
            .regions(1)
            .racks_per_region(1)
            .servers_per_rack(3)
            .commodities(4)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::ShapeMismatch { .. }));
    }

    #[test]
    fn ten_thousand_node_generation_is_deterministic() {
        // The CI scale gate's shape: 10k nodes, 16 tenants. Two builds
        // from the same seed must agree on every structural and float
        // field; a different seed must diverge somewhere.
        let build = |seed| {
            HierarchicalInstance::builder()
                .regions(10)
                .racks_per_region(20)
                .servers_per_rack(50)
                .commodities(16)
                .seed(seed)
                .build()
                .unwrap()
        };
        let a = build(41);
        let b = build(41);
        let c = build(42);
        assert_eq!(a.problem.graph().node_count(), 10_000);
        assert_eq!(
            a.problem.graph().edge_count(),
            b.problem.graph().edge_count()
        );
        for (ja, jb) in a.problem.commodity_ids().zip(b.problem.commodity_ids()) {
            let (ca, cb) = (a.problem.commodity(ja), b.problem.commodity(jb));
            assert_eq!(ca.source(), cb.source());
            assert_eq!(ca.sink(), cb.sink());
            assert_eq!(ca.max_rate.to_bits(), cb.max_rate.to_bits());
        }
        for e in a.problem.graph().edges() {
            assert_eq!(a.problem.graph().source(e), b.problem.graph().source(e));
            for j in a.problem.commodity_ids() {
                match (a.problem.params(j, e), b.problem.params(j, e)) {
                    (None, None) => {}
                    (Some(pa), Some(pb)) => {
                        assert_eq!(pa.cost.to_bits(), pb.cost.to_bits());
                        assert_eq!(pa.beta.to_bits(), pb.beta.to_bits());
                    }
                    _ => panic!("overlay membership diverged at {e}"),
                }
            }
        }
        assert!(
            a.problem.graph().edge_count() != c.problem.graph().edge_count()
                || a.problem.commodity(CommodityId::from_index(0)).max_rate
                    != c.problem.commodity(CommodityId::from_index(0)).max_rate
        );
    }
}
