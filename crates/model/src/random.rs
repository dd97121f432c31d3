//! Seeded random instances in the style of the paper's evaluation (§6).
//!
//! The paper evaluates on "a synthetic (random) network containing 40
//! nodes, and 3 source and sink pairs", with
//!
//! * link and node capacities uniform in `[1, 100]`,
//! * per-(commodity, node) gains `g_nj` uniform in `[1, 10]`, from which
//!   `β^j_ik = g^j_k / g^j_i` (so Property 1 holds by construction),
//! * resource consumption parameters uniform in `[1, 5]`.
//!
//! The per-commodity topology follows the paper's task model (§2 and
//! Figure 1): each stream is a *series of tasks*, each task is assigned
//! to one or more servers, and a server processes at most one task per
//! commodity — which makes every commodity overlay a DAG by
//! construction. [`RandomInstanceConfig`] exposes the number of tasks
//! (`stages`) and servers per task (`width`) so experiments can control
//! the pipeline depth `L` (the paper's message-cost parameter).

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

/// Configuration of the random instance generator.
///
/// Defaults reproduce the paper's §6 setup (40 nodes, 3 commodities,
/// capacities `U[1,100]`, gains `U[1,10]`, costs `U[1,5]`, throughput
/// utility).
#[derive(Clone, Debug, PartialEq)]
pub struct RandomInstanceConfig {
    /// Total number of physical nodes (processing servers + sinks).
    pub nodes: usize,
    /// Number of commodities (source–sink pairs).
    pub commodities: usize,
    /// PRNG seed; equal seeds yield identical instances.
    pub seed: u64,
    /// Node computing capacities are drawn uniformly from this range.
    pub node_capacity: RangeInclusive<f64>,
    /// Link bandwidths are drawn uniformly from this range.
    pub link_bandwidth: RangeInclusive<f64>,
    /// Per-(commodity, node) gains are drawn uniformly from this range.
    pub gain: RangeInclusive<f64>,
    /// Per-(commodity, edge) resource costs are drawn uniformly from
    /// this range.
    pub cost: RangeInclusive<f64>,
    /// Maximum source rates `λ_j` are drawn uniformly from this range.
    pub max_rate: RangeInclusive<f64>,
    /// Number of processing tasks per commodity (pipeline depth).
    pub stages: RangeInclusive<usize>,
    /// Servers per intermediate task.
    pub width: RangeInclusive<usize>,
    /// Probability of each possible stage-to-stage edge beyond the ones
    /// required for connectivity.
    pub edge_prob: f64,
    /// Utility assigned to every commodity.
    pub utility: UtilityFn,
}

impl Default for RandomInstanceConfig {
    fn default() -> Self {
        RandomInstanceConfig {
            nodes: 40,
            commodities: 3,
            seed: 0,
            node_capacity: 1.0..=100.0,
            link_bandwidth: 1.0..=100.0,
            gain: 1.0..=10.0,
            cost: 1.0..=5.0,
            max_rate: 20.0..=60.0,
            stages: 3..=5,
            width: 2..=4,
            edge_prob: 0.35,
            utility: UtilityFn::throughput(),
        }
    }
}

/// A generated instance: the validated [`Problem`] plus the
/// configuration that produced it.
#[derive(Clone, Debug)]
pub struct RandomInstance {
    /// The validated problem.
    pub problem: Problem,
    /// The generating configuration (for manifests and re-generation).
    pub config: RandomInstanceConfig,
}

impl RandomInstance {
    /// Starts a builder with the paper's default configuration.
    #[must_use]
    pub fn builder() -> RandomInstanceBuilder {
        RandomInstanceBuilder {
            config: RandomInstanceConfig::default(),
        }
    }

    /// Generates an instance from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the configuration cannot produce a
    /// valid problem (e.g. too few nodes for the requested commodities
    /// and pipeline widths).
    pub fn generate(config: RandomInstanceConfig) -> Result<Self, ModelError> {
        let problem = generate_problem(&config)?;
        Ok(RandomInstance { problem, config })
    }
}

/// Builder mirror of [`RandomInstanceConfig`].
#[derive(Clone, Debug)]
pub struct RandomInstanceBuilder {
    config: RandomInstanceConfig,
}

impl RandomInstanceBuilder {
    /// Sets the total node count.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Sets the number of commodities.
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

    /// Sets the pipeline-depth range (tasks per commodity).
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

    /// Sets the utility assigned to every commodity.
    #[must_use]
    pub fn utility(mut self, utility: UtilityFn) -> Self {
        self.config.utility = utility;
        self
    }

    /// Sets the maximum-rate range for `λ_j`.
    #[must_use]
    pub fn max_rate(mut self, max_rate: RangeInclusive<f64>) -> Self {
        self.config.max_rate = max_rate;
        self
    }

    /// Generates the instance.
    ///
    /// # Errors
    ///
    /// See [`RandomInstance::generate`].
    pub fn build(self) -> Result<RandomInstance, ModelError> {
        RandomInstance::generate(self.config)
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

fn generate_problem(cfg: &RandomInstanceConfig) -> Result<Problem, ModelError> {
    let j_count = cfg.commodities;
    if j_count == 0 {
        return Err(ModelError::NoCommodities);
    }
    // Each commodity needs a dedicated sink plus a dedicated source, and
    // the narrowest admissible pipeline needs distinct servers per stage.
    let min_stage_nodes = 1 + (cfg.stages.start().saturating_sub(1)) * cfg.width.start();
    let min_nodes = (j_count * 2).max(j_count + min_stage_nodes);
    if cfg.nodes < min_nodes {
        return Err(ModelError::ShapeMismatch {
            what: "node budget for requested commodities/stages/width",
            expected: min_nodes,
            actual: cfg.nodes,
        });
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = DiGraph::new();
    let all: Vec<NodeId> = graph.add_nodes(cfg.nodes);

    // Last J nodes are sinks; the rest form the processing pool.
    let pool: Vec<NodeId> = all[..cfg.nodes - j_count].to_vec();
    let sinks: Vec<NodeId> = all[cfg.nodes - j_count..].to_vec();

    // Distinct sources.
    let mut shuffled = pool.clone();
    shuffled.shuffle(&mut rng);
    let sources: Vec<NodeId> = shuffled[..j_count].to_vec();

    let mut edge_ids: HashMap<(NodeId, NodeId), spn_graph::EdgeId> = HashMap::new();
    let mut overlay_raw: Vec<Vec<(spn_graph::EdgeId, EdgeParams)>> = vec![Vec::new(); j_count];
    let mut commodities = Vec::with_capacity(j_count);

    for ji in 0..j_count {
        let source = sources[ji];
        let sink = sinks[ji];

        // Sample distinct servers per stage (a server processes at most
        // one task per commodity → the overlay is a DAG). Depth and
        // width adapt to the available pool: a requested range is capped
        // so the remaining stages can still get their minimum width.
        let mut candidates: Vec<NodeId> = pool.iter().copied().filter(|&n| n != source).collect();
        candidates.shuffle(&mut rng);
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

        // Gains per node for this commodity.
        let gains: Vec<f64> = (0..cfg.nodes)
            .map(|_| sample(&mut rng, &cfg.gain))
            .collect();

        // Connect consecutive layers: guarantee every node has a
        // forward edge and every next-layer node a backward edge, then
        // sprinkle extras with `edge_prob`.
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
                let beta = gains[y.index()] / gains[x.index()];
                let cost = sample(&mut rng, &cfg.cost);
                overlay_raw[ji].push((e, EdgeParams::new(cost, beta)));
            }
        }

        let max_rate = sample(&mut rng, &cfg.max_rate);
        commodities.push(Commodity::new(source, sink, max_rate, cfg.utility));
    }

    let node_capacity: Vec<Capacity> = (0..cfg.nodes)
        .map(|_| Capacity::finite(sample(&mut rng, &cfg.node_capacity)).expect("range positive"))
        .collect();
    let edge_bandwidth: Vec<Capacity> = (0..graph.edge_count())
        .map(|_| Capacity::finite(sample(&mut rng, &cfg.link_bandwidth)).expect("range positive"))
        .collect();

    let mut overlay: Vec<Vec<Option<EdgeParams>>> = vec![vec![None; graph.edge_count()]; j_count];
    for (ji, entries) in overlay_raw.into_iter().enumerate() {
        for (e, p) in entries {
            overlay[ji][e.index()] = Some(p);
        }
    }

    Problem::from_parts(graph, node_capacity, edge_bandwidth, commodities, overlay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity::CommodityId;
    use crate::gains::property1_holds_by_enumeration;
    use spn_graph::topo::is_acyclic_filtered;

    #[test]
    fn default_config_matches_paper() {
        let cfg = RandomInstanceConfig::default();
        assert_eq!(cfg.nodes, 40);
        assert_eq!(cfg.commodities, 3);
        assert_eq!(cfg.node_capacity, 1.0..=100.0);
        assert_eq!(cfg.gain, 1.0..=10.0);
        assert_eq!(cfg.cost, 1.0..=5.0);
    }

    #[test]
    fn generates_valid_default_instance() {
        let inst = RandomInstance::builder().seed(42).build().unwrap();
        let p = &inst.problem;
        assert_eq!(p.graph().node_count(), 40);
        assert_eq!(p.num_commodities(), 3);
        // validation already ran inside from_parts; spot-check Property 1
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
    fn deterministic_per_seed() {
        let a = RandomInstance::builder().seed(7).build().unwrap();
        let b = RandomInstance::builder().seed(7).build().unwrap();
        let c = RandomInstance::builder().seed(8).build().unwrap();
        assert_eq!(
            a.problem.graph().edge_count(),
            b.problem.graph().edge_count()
        );
        assert_eq!(
            a.problem.commodity(CommodityId::from_index(0)).max_rate,
            b.problem.commodity(CommodityId::from_index(0)).max_rate,
        );
        // different seeds should (overwhelmingly) differ somewhere
        assert!(
            a.problem.graph().edge_count() != c.problem.graph().edge_count()
                || a.problem.commodity(CommodityId::from_index(0)).max_rate
                    != c.problem.commodity(CommodityId::from_index(0)).max_rate
        );
    }

    #[test]
    fn overlays_are_dags() {
        for seed in 0..10 {
            let inst = RandomInstance::builder().seed(seed).build().unwrap();
            let p = &inst.problem;
            for j in p.commodity_ids() {
                assert!(is_acyclic_filtered(p.graph(), |e| p.in_overlay(j, e)));
            }
        }
    }

    #[test]
    fn sinks_never_process() {
        let inst = RandomInstance::builder().seed(3).build().unwrap();
        let p = &inst.problem;
        for j in p.commodity_ids() {
            let sink = p.commodity(j).sink();
            for jj in p.commodity_ids() {
                for e in p.overlay_edges(jj) {
                    assert_ne!(p.graph().source(e), sink, "sink {sink} has outgoing edge");
                }
            }
        }
    }

    #[test]
    fn sources_and_sinks_are_distinct_across_commodities() {
        let inst = RandomInstance::builder().seed(9).build().unwrap();
        let p = &inst.problem;
        let mut seen = std::collections::HashSet::new();
        for j in p.commodity_ids() {
            assert!(seen.insert(p.commodity(j).source()));
            assert!(seen.insert(p.commodity(j).sink()));
        }
    }

    #[test]
    fn depth_is_controllable() {
        let shallow = RandomInstance::builder()
            .nodes(30)
            .commodities(1)
            .stages(2..=2)
            .seed(1)
            .build()
            .unwrap();
        let deep = RandomInstance::builder()
            .nodes(60)
            .commodities(1)
            .stages(10..=10)
            .width(2..=2)
            .seed(1)
            .build()
            .unwrap();
        let j = CommodityId::from_index(0);
        let depth = |p: &Problem| {
            spn_graph::paths::longest_path_len(p.graph(), |e| p.in_overlay(j, e)).unwrap()
        };
        assert_eq!(depth(&shallow.problem), 2);
        assert_eq!(depth(&deep.problem), 10);
    }

    #[test]
    fn rejects_insufficient_nodes() {
        let err = RandomInstance::builder()
            .nodes(5)
            .commodities(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::ShapeMismatch { .. }));
    }

    #[test]
    fn custom_utility_propagates() {
        let inst = RandomInstance::builder()
            .utility(UtilityFn::log(2.0))
            .seed(5)
            .build()
            .unwrap();
        for c in inst.problem.commodities() {
            assert_eq!(c.utility, UtilityFn::log(2.0));
        }
    }
}
