//! Canonical instances from the paper's figures.
//!
//! [`figure1`] builds exactly the example of §2 (Figure 1): eight
//! servers and two sinks carrying two streams,
//!
//! * Stream S1 runs tasks A→B→C→D with the assignment
//!   `T1={A}, T2={B}, T3={B,E}, T4={C}, T5={C,F}, T6={D}`,
//! * Stream S2 runs tasks G→E→F→H with `T7={G}, T8={H}`,
//!
//! so servers 3 and 5 each process one task *per* stream (the paper's
//! "a server is assigned to process at most one task for each
//! commodity"), and the physical link 3→5 is shared by both streams
//! (B→C for S1, E→F for S2) — the contention the joint mechanism must
//! arbitrate.

use crate::builder::ProblemBuilder;
use crate::error::ModelError;
use crate::problem::Problem;
use crate::utility::UtilityFn;

/// Tunables of the Figure 1 instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figure1Config {
    /// Computing capacity of every server.
    pub server_capacity: f64,
    /// Bandwidth of every link.
    pub link_bandwidth: f64,
    /// Offered load of each stream.
    pub max_rate: f64,
    /// Processing cost per unit on every hop.
    pub cost: f64,
    /// Shrinkage per processing hop (e.g. `0.8` = each task keeps 80%).
    pub beta: f64,
}

impl Default for Figure1Config {
    /// Moderate contention: server 3 and 5 are the shared bottlenecks.
    fn default() -> Self {
        Figure1Config {
            server_capacity: 30.0,
            link_bandwidth: 40.0,
            max_rate: 12.0,
            cost: 1.5,
            beta: 0.8,
        }
    }
}

/// Node indices of the Figure 1 instance, in construction order:
/// servers 1–8 are indices 0–7, sink 1 is 8, sink 2 is 9.
pub(crate) const FIGURE1_SERVERS: usize = 8;

/// Builds the Figure 1 instance.
///
/// # Errors
///
/// Returns [`ModelError`] if the configuration values are invalid
/// (non-positive capacities, rates, costs, or shrinkage).
pub fn figure1(config: Figure1Config) -> Result<Problem, ModelError> {
    let mut b = ProblemBuilder::new();
    // servers 1..=8 (indices 0..=7), then the two sinks
    let srv: Vec<_> = (0..FIGURE1_SERVERS)
        .map(|_| b.server(config.server_capacity))
        .collect();
    let sink1 = b.server(config.server_capacity);
    let sink2 = b.server(config.server_capacity);
    let link =
        |b: &mut ProblemBuilder, a: usize, c: usize| b.link(srv[a], srv[c], config.link_bandwidth);

    // Stream S1 edges (solid in the figure): A→B, B→C, C→D, D→sink1.
    let e12 = link(&mut b, 0, 1);
    let e13 = link(&mut b, 0, 2);
    let e24 = link(&mut b, 1, 3);
    let e25 = link(&mut b, 1, 4);
    let e34 = link(&mut b, 2, 3);
    let e35 = link(&mut b, 2, 4); // shared physical link 3→5
    let e46 = link(&mut b, 3, 5);
    let e56 = link(&mut b, 4, 5);
    let e6s = b.link(srv[5], sink1, config.link_bandwidth);
    // Stream S2 edges (dashed): G→E, E→F, F→H, H→sink2.
    let e73 = link(&mut b, 6, 2);
    let e58 = link(&mut b, 4, 7);
    let e8s = b.link(srv[7], sink2, config.link_bandwidth);

    let s1 = b.commodity(srv[0], sink1, config.max_rate, UtilityFn::throughput());
    let s2 = b.commodity(srv[6], sink2, config.max_rate, UtilityFn::throughput());
    for e in [e12, e13, e24, e25, e34, e35, e46, e56, e6s] {
        b.uses(s1, e, config.cost, config.beta);
    }
    for e in [e73, e35, e58, e8s] {
        b.uses(s2, e, config.cost, config.beta);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity::CommodityId;
    use spn_graph::paths::count_paths;

    #[test]
    fn builds_and_validates() {
        let p = figure1(Figure1Config::default()).unwrap();
        assert_eq!(p.graph().node_count(), 10);
        assert_eq!(p.graph().edge_count(), 12);
        assert_eq!(p.num_commodities(), 2);
    }

    #[test]
    fn stream_s1_has_four_paths() {
        // A → {2,3} → {4,5} → 6 → sink: 2×2 = 4 paths
        let p = figure1(Figure1Config::default()).unwrap();
        let j = CommodityId::from_index(0);
        let c = p.commodity(j);
        let n = count_paths(p.graph(), c.source(), c.sink(), |e| p.in_overlay(j, e)).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn stream_s2_is_a_chain() {
        let p = figure1(Figure1Config::default()).unwrap();
        let j = CommodityId::from_index(1);
        let c = p.commodity(j);
        let n = count_paths(p.graph(), c.source(), c.sink(), |e| p.in_overlay(j, e)).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn link_3_to_5_is_shared() {
        let p = figure1(Figure1Config::default()).unwrap();
        let shared: Vec<_> = p
            .graph()
            .edges()
            .filter(|&e| {
                p.in_overlay(CommodityId::from_index(0), e)
                    && p.in_overlay(CommodityId::from_index(1), e)
            })
            .collect();
        assert_eq!(shared.len(), 1);
        let (a, b) = p.graph().endpoints(shared[0]);
        assert_eq!(a.index(), 2); // server 3
        assert_eq!(b.index(), 4); // server 5
    }

    #[test]
    fn per_stream_subgraphs_are_dags() {
        let p = figure1(Figure1Config::default()).unwrap();
        for j in p.commodity_ids() {
            assert!(spn_graph::topo::is_acyclic_filtered(p.graph(), |e| p.in_overlay(j, e)));
        }
    }

    #[test]
    fn end_to_end_gain_is_beta_to_the_hops() {
        let p = figure1(Figure1Config::default()).unwrap();
        // S1: 4 processing hops (A→B→C→D→sink): gain 0.8⁴
        let j = CommodityId::from_index(0);
        let g = p.gain(j, p.commodity(j).sink());
        assert!((g - 0.8f64.powi(4)).abs() < 1e-12);
    }
}
