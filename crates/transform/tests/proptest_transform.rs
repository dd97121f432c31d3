//! Property-based tests for the §3 transformations.

use proptest::prelude::*;
use spn_model::random::RandomInstance;
use spn_model::spec::ProblemSpec;
use spn_model::CommodityId;
use spn_transform::{CommodityDef, EdgeKind, ExtendedNetwork, NodeKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's count formula holds on every instance:
    /// `N + M + J` nodes, `2M + 2J` edges.
    #[test]
    fn count_formula_holds(seed in 0u64..200, nodes in 10usize..26, commodities in 1usize..4) {
        prop_assume!(nodes >= commodities * 2 + 5);
        let Ok(inst) = RandomInstance::builder()
            .nodes(nodes)
            .commodities(commodities)
            .seed(seed)
            .build()
        else {
            return Ok(()); // infeasible generator budget, covered elsewhere
        };
        let p = inst.problem;
        let (n, m, j) = (p.graph().node_count(), p.graph().edge_count(), p.num_commodities());
        let ext = ExtendedNetwork::build(&p);
        prop_assert_eq!(ext.graph().node_count(), n + m + j);
        prop_assert_eq!(ext.graph().edge_count(), 2 * m + 2 * j);
    }

    /// Every extended node/edge classifies consistently and parameters
    /// transfer per the paper's construction.
    #[test]
    fn classification_and_parameters(seed in 0u64..100) {
        let inst = RandomInstance::builder().nodes(16).commodities(2).seed(seed).build().unwrap();
        let p = inst.problem;
        let ext = ExtendedNetwork::build(&p);
        let g = ext.graph();
        for l in g.edges() {
            match ext.edge_kind(l) {
                EdgeKind::Ingress(e) => {
                    // tail is the physical source, head is the bandwidth node
                    prop_assert_eq!(g.source(l), p.graph().source(e));
                    prop_assert!(matches!(ext.node_kind(g.target(l)), NodeKind::Bandwidth(be) if be == e));
                    for j in p.commodity_ids() {
                        if let Some(params) = p.params(j, e) {
                            prop_assert!(ext.in_commodity(j, l));
                            prop_assert_eq!(ext.cost(j, l), params.cost);
                            prop_assert_eq!(ext.beta(j, l), params.beta);
                        } else {
                            prop_assert!(!ext.in_commodity(j, l));
                        }
                    }
                }
                EdgeKind::Egress(e) => {
                    prop_assert_eq!(g.target(l), p.graph().target(e));
                    for j in p.commodity_ids() {
                        if ext.in_commodity(j, l) {
                            // transfer: one bandwidth unit per unit, conserved
                            prop_assert_eq!(ext.cost(j, l), 1.0);
                            prop_assert_eq!(ext.beta(j, l), 1.0);
                        }
                    }
                }
                EdgeKind::DummyInput(j) => {
                    prop_assert_eq!(g.source(l), ext.dummy_source(j));
                    prop_assert_eq!(g.target(l), ext.commodity(j).source());
                }
                EdgeKind::DummyDifference(j) => {
                    prop_assert_eq!(g.source(l), ext.dummy_source(j));
                    prop_assert_eq!(g.target(l), ext.commodity(j).sink());
                }
            }
        }
        // capacities transfer; dummies unconstrained
        for v in g.nodes() {
            match ext.node_kind(v) {
                NodeKind::Processing(pv) => {
                    prop_assert_eq!(ext.capacity(v).value(), p.node_capacity(pv).value());
                }
                NodeKind::Bandwidth(e) => {
                    prop_assert_eq!(ext.capacity(v).value(), p.edge_bandwidth(e).value());
                }
                NodeKind::DummySource(_) => prop_assert!(ext.capacity(v).is_infinite()),
            }
        }
    }

    /// Per-commodity extended subgraphs are DAGs: `topo_order` lists the
    /// commodity's members, in exactly the relative order Kahn's
    /// algorithm gives them on the whole graph (where every other node
    /// is isolated), and the dummy source precedes everything it can
    /// reach.
    #[test]
    fn extended_subgraphs_are_ordered_dags(seed in 0u64..100) {
        let inst = RandomInstance::builder().nodes(16).commodities(2).seed(seed).build().unwrap();
        let ext = ExtendedNetwork::build(&inst.problem);
        for j in ext.commodity_ids() {
            let order: Vec<_> = ext.topo_order(j).collect();
            let members = ext.commodity_member_nodes(j);
            let whole_graph: Vec<_> =
                spn_graph::topo::topological_order_filtered(ext.graph(), |l| ext.in_commodity(j, l))
                    .unwrap()
                    .into_iter()
                    .filter(|v| members.binary_search(v).is_ok())
                    .collect();
            prop_assert_eq!(&order, &whole_graph);
            let pos = |v: spn_graph::NodeId| whole_graph.iter().position(|&x| x == v).unwrap();
            prop_assert!(pos(ext.dummy_source(j)) < pos(ext.commodity(j).sink()));
        }
    }

    /// ARCHITECTURE invariant 23 (b): after any sequence of admissions
    /// and evictions, every member-position table of the arena — member
    /// lists, `member_pos`, router positions, head/tail positions, the
    /// member topological order — equals a fresh `build` of the
    /// surviving commodity set, and the row extents tile `Σ_j members_j`.
    /// Invariant 24 (b) rides along: the decider list is the routers with
    /// at least two out-edges, by the graph's own count.
    #[test]
    fn position_tables_survive_random_churn(
        seed in 0u64..40,
        script in proptest::collection::vec(0usize..64, 1..12),
    ) {
        let full = RandomInstance::builder().nodes(18).commodities(5).seed(seed).build().unwrap().problem;
        let subset = |keep: &[usize]| {
            let mut spec = ProblemSpec::from(&full);
            spec.commodities = keep.iter().map(|&i| spec.commodities[i].clone()).collect();
            spec.into_problem().unwrap()
        };
        // `live[k]` is the original index of the commodity now at id `k`.
        let mut live: Vec<usize> = vec![0, 1, 2];
        let mut ext = ExtendedNetwork::build(&subset(&live));
        for op in script {
            let parked: Vec<usize> = (0..5).filter(|i| !live.contains(i)).collect();
            if (op % 2 == 0 || live.len() == 1) && !parked.is_empty() {
                let i = parked[op / 2 % parked.len()];
                ext.add_commodity(CommodityDef::from_problem(&full, CommodityId::from_index(i)));
                live.push(i);
            } else if live.len() > 1 {
                ext.remove_commodity(CommodityId::from_index(op / 2 % live.len()));
                live.remove(op / 2 % live.len());
            }
            let fresh = ExtendedNetwork::build(&subset(&live));
            prop_assert_eq!(ext.member_total(), fresh.member_total());
            prop_assert_eq!(ext.router_union(), fresh.router_union());
            let mut tiled = 0;
            for j in ext.commodity_ids() {
                prop_assert_eq!(ext.members(j), fresh.members(j));
                prop_assert_eq!(ext.commodity_routers(j), fresh.commodity_routers(j));
                prop_assert_eq!(ext.member_range(j), fresh.member_range(j));
                prop_assert_eq!(ext.member_range(j).start, tiled);
                tiled = ext.member_range(j).end;
                let view = ext.members(j);
                for v in ext.graph().nodes() {
                    let pos = view.nodes().iter().position(|&x| x == v);
                    prop_assert_eq!(ext.member_pos(j, v), pos);
                    if pos.is_none() {
                        prop_assert!(ext.commodity_out_slice(j, v).is_empty());
                        prop_assert!(ext.commodity_in_slice(j, v).is_empty());
                    }
                }
                // the position tables say what the graph says
                for p in 0..view.len() {
                    let (out, heads) = view.out_arcs(p);
                    for (&l, &h) in out.iter().zip(heads) {
                        prop_assert_eq!(ext.graph().endpoints(l), (view.node(p), view.node(h as usize)));
                    }
                    let (into, tails) = view.in_arcs(p);
                    for (&l, &t) in into.iter().zip(tails) {
                        prop_assert_eq!(ext.graph().endpoints(l), (view.node(t as usize), view.node(p)));
                    }
                }
                let by_pos = |ps: &[u32]| ps.iter().map(|&p| view.node(p as usize)).collect::<Vec<_>>();
                prop_assert_eq!(by_pos(view.routers()), ext.commodity_routers(j));
                prop_assert_eq!(view.node(view.dummy()), ext.dummy_source(j));
                // invariant 24 (b): the deciders are exactly the routers
                // with ≥ 2 commodity out-edges, in router order, each with
                // its router index
                let out_degree = |p: u32| {
                    let outs = ext.graph().out_edges(view.node(p as usize));
                    outs.iter().filter(|&&l| ext.in_commodity(j, l)).count()
                };
                let deciders: Vec<(u32, u32)> = (view.routers().iter().zip(0u32..))
                    .filter(|&(&p, _)| out_degree(p) >= 2)
                    .map(|(&p, r)| (p, r))
                    .collect();
                prop_assert_eq!(view.deciders(), &deciders[..]);
                prop_assert!(view.deciders().iter().any(|&(p, _)| p as usize == view.dummy()));
            }
            prop_assert_eq!(tiled, ext.member_total());
        }
    }
}
