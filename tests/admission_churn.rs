//! ARCHITECTURE invariant 16: online commodity admission and eviction
//! reshape a live [`GradientAlgorithm`] **incrementally** — the shared
//! physical and bandwidth layers are never rebuilt — and the reshape is
//! exact:
//!
//! * a zero-step incremental admit (resp. evict) is **bit-identical**
//!   to a fresh build of the enlarged (resp. reduced) problem, and the
//!   two trajectories stay glued through subsequent iteration;
//! * a warm reshape preserves every survivor's routing fractions,
//!   traffic, and marginals down to the last ulp;
//! * checkpoints are epoch-fenced: a capture taken before a reshape can
//!   never be restored after one, even when a later reshape makes the
//!   shapes line up again ([`CoreError::EpochMismatch`]);
//! * the dense and sparse engines agree bitwise through arbitrary
//!   seeded churn (arrivals and departures interleaved with steps).

use spn::core::blocked::compute_tags;
use spn::core::flows::{compute_flows_into, FlowState};
use spn::core::{CommodityDef, CoreError, GradientAlgorithm, GradientConfig, IterationWorkspace};
use spn::model::random::RandomInstance;
use spn::model::spec::ProblemSpec;
use spn::model::{CommodityId, Problem};
use spn::sim::{ChurnConfig, ChurnProcess};
use spn::transform::ExtendedNetwork;

/// A 30-node, 5-commodity instance shared by the equivalence tests.
fn five_commodity_problem() -> Problem {
    RandomInstance::builder()
        .nodes(30)
        .commodities(5)
        .seed(31)
        .build()
        .unwrap()
        .problem
}

/// The same problem restricted to a subset of its commodities.
fn subset(problem: &Problem, keep: &[usize]) -> Problem {
    let mut spec = ProblemSpec::from(problem);
    spec.commodities = keep.iter().map(|&i| spec.commodities[i].clone()).collect();
    spec.into_problem().unwrap()
}

fn config(sparsity: bool) -> GradientConfig {
    GradientConfig {
        sparsity,
        ..GradientConfig::default()
    }
}

/// Asserts complete bitwise state agreement between two algorithms.
fn assert_identical(a: &GradientAlgorithm, b: &GradientAlgorithm, what: &str) {
    assert_eq!(a.routing(), b.routing(), "routing diverged: {what}");
    assert_eq!(a.flows(), b.flows(), "flow state diverged: {what}");
    assert_eq!(a.marginals(), b.marginals(), "marginals diverged: {what}");
    let (ra, rb) = (a.report(), b.report());
    assert_eq!(
        ra.utility.to_bits(),
        rb.utility.to_bits(),
        "utility not bit-identical: {what}"
    );
    assert_eq!(
        ra.admitted.len(),
        rb.admitted.len(),
        "width differs: {what}"
    );
    for (j, (x, y)) in ra.admitted.iter().zip(&rb.admitted).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "admitted rate of commodity {j} differs: {what}"
        );
    }
}

/// Incrementally admitting the one missing commodity into a running
/// algorithm lands on the exact state a fresh build of the full problem
/// starts from, and the two stay bit-identical through iteration.
#[test]
fn zero_step_admit_matches_a_fresh_build() {
    let full = five_commodity_problem();
    let minus = subset(&full, &[0, 1, 2, 3]);
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(4));
    for sparsity in [false, true] {
        let ctx = format!("sparsity={sparsity}");
        let mut incremental = GradientAlgorithm::new(&minus, config(sparsity)).unwrap();
        let id = incremental.admit_commodity(def.clone());
        assert_eq!(id, CommodityId::from_index(4), "newcomer id: {ctx}");
        let mut fresh = GradientAlgorithm::new(&full, config(sparsity)).unwrap();
        assert_identical(&incremental, &fresh, &format!("right after admit, {ctx}"));
        for it in 0..120 {
            incremental.step();
            fresh.step();
            assert_eq!(
                incremental.routing(),
                fresh.routing(),
                "routing diverged at iteration {it}: {ctx}"
            );
        }
        assert_identical(&incremental, &fresh, &format!("after 120 steps, {ctx}"));
    }
}

/// Incrementally evicting a middle commodity compacts ids and state
/// onto exactly what a fresh build of the reduced problem produces.
#[test]
fn zero_step_evict_matches_a_fresh_subset_build() {
    let full = five_commodity_problem();
    let reduced = subset(&full, &[0, 1, 3, 4]);
    for sparsity in [false, true] {
        let ctx = format!("sparsity={sparsity}");
        let mut incremental = GradientAlgorithm::new(&full, config(sparsity)).unwrap();
        incremental.evict_commodity(CommodityId::from_index(2));
        let mut fresh = GradientAlgorithm::new(&reduced, config(sparsity)).unwrap();
        assert_identical(&incremental, &fresh, &format!("right after evict, {ctx}"));
        for it in 0..120 {
            incremental.step();
            fresh.step();
            assert_eq!(
                incremental.routing(),
                fresh.routing(),
                "routing diverged at iteration {it}: {ctx}"
            );
        }
        assert_identical(&incremental, &fresh, &format!("after 120 steps, {ctx}"));
    }
}

/// Evicting the last-id commodity and immediately re-admitting its
/// parked definition restores the original layout exactly: the round
/// trip is bit-identical to never having churned at all (every other
/// commodity is untouched and the returnee restarts fully rejecting,
/// which is also its cold-start state).
#[test]
fn zero_step_evict_readmit_round_trip_is_identity() {
    let full = five_commodity_problem();
    let last = CommodityId::from_index(4);
    let mut churned = GradientAlgorithm::new(&full, config(true)).unwrap();
    let parked = churned.extended().commodity_def(last);
    churned.evict_commodity(last);
    assert_eq!(churned.admit_commodity(parked), last);
    let mut plain = GradientAlgorithm::new(&full, config(true)).unwrap();
    assert_identical(&churned, &plain, "after evict + re-admit round trip");
    for _ in 0..100 {
        churned.step();
        plain.step();
    }
    assert_identical(&churned, &plain, "100 steps after the round trip");
}

/// An evict immediately followed by the admission of a *bigger*
/// commodity restores the commodity, node and edge counts exactly while
/// growing the per-commodity router and arc extents — so every buffer
/// sized from those extents has to be keyed on
/// `ExtendedNetwork::structure_version`, not on the counts. (Keyed on
/// the counts, the sparse engine kept the old live-arc strides and the
/// next step indexed past its row: `the len is 45 but the index is 45`.)
/// `IterationWorkspace::ensure` was the last key still made of counts;
/// its ragged usage-partial rows would be laid out for the wrong
/// commodity set.
#[test]
fn evict_then_admit_bigger_with_no_step_between_resizes_the_tracker() {
    let full = RandomInstance::builder()
        .nodes(30)
        .commodities(5)
        .seed(1)
        .build()
        .unwrap()
        .problem;
    let routers = |ext: &ExtendedNetwork| -> Vec<usize> {
        ext.commodity_ids()
            .map(|j| ext.commodity_routers(j).len())
            .collect()
    };
    let biggest = {
        let counts = routers(&ExtendedNetwork::build(&full));
        (0..counts.len()).max_by_key(|&i| counts[i]).unwrap()
    };
    let smaller: Vec<usize> = (0..5).filter(|&i| i != biggest).collect();
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(biggest));

    let mut engines: Vec<_> = [false, true]
        .into_iter()
        .map(|sparsity| GradientAlgorithm::new(&subset(&full, &smaller), config(sparsity)).unwrap())
        .collect();
    for alg in &mut engines {
        alg.run(50);
        let before = alg.extended();
        let shape = (
            before.num_commodities(),
            before.graph().node_count(),
            before.graph().edge_count(),
        );
        let widest = *routers(before).iter().max().unwrap();
        // A caller-owned workspace, warm on the old structure: it must
        // notice the reshape although every count lines up again.
        let mut ws = IterationWorkspace::new(before);
        assert!(!ws.ensure(before), "a warm workspace re-sized itself");
        alg.evict_commodity(CommodityId::from_index(0));
        alg.admit_commodity(def.clone());
        let after = alg.extended();
        assert!(
            ws.ensure(after),
            "the workspace kept rows laid out for the departed commodity set"
        );
        let mut through_stale = FlowState::zeros(after);
        compute_flows_into(after, alg.routing(), &mut through_stale, &mut ws, None);
        assert_eq!(
            &through_stale,
            alg.flows(),
            "flows through the re-sized workspace"
        );
        assert_eq!(
            shape,
            (
                after.num_commodities(),
                after.graph().node_count(),
                after.graph().edge_count()
            ),
            "the repro needs the counts to line up again"
        );
        assert!(
            *routers(after).iter().max().unwrap() > widest,
            "the repro needs the newcomer to widen the router stride"
        );
    }
    for it in 0..80 {
        for alg in &mut engines {
            alg.step();
        }
        let (dense, sparse) = engines.split_first().unwrap();
        for (k, alg) in sparse.iter().enumerate() {
            assert_eq!(
                dense.routing(),
                alg.routing(),
                "sparse engine {k} left the dense routing at iteration {it}"
            );
        }
    }
    let (dense, sparse) = engines.split_first().unwrap();
    for alg in sparse {
        assert_identical(dense, alg, "80 steps after evict + admit-bigger");
    }
}

/// A warm admit must not move a single bit of any survivor: routing
/// fractions, traffic, and marginals are compared over the old ids
/// before and after the newcomer joins.
#[test]
fn warm_admit_preserves_survivors_bitwise() {
    let full = five_commodity_problem();
    let minus = subset(&full, &[0, 1, 2, 3]);
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(4));
    let mut alg = GradientAlgorithm::new(&minus, config(false)).unwrap();
    alg.run(150);

    // Fix the per-survivor node/edge index sets *before* the admit
    // (ids of pre-existing nodes and edges are stable, which is what
    // makes this comparison meaningful).
    let lanes: Vec<(CommodityId, Vec<_>, Vec<_>)> = {
        let ext = alg.extended();
        ext.commodity_ids()
            .map(|j| {
                let edges = ext
                    .commodity_routers(j)
                    .iter()
                    .flat_map(|&v| ext.commodity_out_slice(j, v).iter().copied())
                    .collect();
                (j, ext.topo_order(j).collect::<Vec<_>>(), edges)
            })
            .collect()
    };
    let snapshot = |alg: &GradientAlgorithm| -> Vec<Vec<u64>> {
        lanes
            .iter()
            .map(|(j, nodes, edges)| {
                let mut bits = Vec::new();
                for &l in edges {
                    bits.push(alg.routing().fraction(*j, l).to_bits());
                }
                for &v in nodes {
                    bits.push(alg.flows().traffic(alg.extended(), *j, v).to_bits());
                    bits.push(alg.marginals().node(alg.extended(), *j, v).to_bits());
                }
                bits
            })
            .collect()
    };
    let before = snapshot(&alg);

    let id = alg.admit_commodity(def);
    let after = snapshot(&alg);
    for (j, old) in before.iter().enumerate() {
        assert_eq!(
            old, &after[j],
            "survivor commodity {j} state moved across the admit"
        );
    }
    // The newcomer starts fully rejecting: nothing admitted yet.
    assert_eq!(
        alg.flows().admitted(alg.extended(), id).to_bits(),
        0.0f64.to_bits()
    );
    assert!(alg.utility().is_finite());
}

/// The incrementally-maintained extended network is indistinguishable —
/// through every public accessor — from one built from scratch over the
/// same commodity set, after an add and again after a remove.
#[test]
fn incremental_extended_network_matches_a_fresh_build() {
    let full = five_commodity_problem();
    let minus = subset(&full, &[0, 1, 2, 3]);

    let assert_networks_match = |a: &ExtendedNetwork, b: &ExtendedNetwork, what: &str| {
        assert_eq!(a.physical_nodes(), b.physical_nodes(), "N differs: {what}");
        assert_eq!(a.physical_edges(), b.physical_edges(), "M differs: {what}");
        assert_eq!(a.graph().node_count(), b.graph().node_count(), "{what}");
        assert_eq!(a.graph().edge_count(), b.graph().edge_count(), "{what}");
        for l in a.graph().edges() {
            assert_eq!(
                a.graph().endpoints(l),
                b.graph().endpoints(l),
                "edge {l} endpoints differ: {what}"
            );
            assert_eq!(a.edge_kind(l), b.edge_kind(l), "edge {l} kind: {what}");
        }
        for v in a.graph().nodes() {
            assert_eq!(a.node_kind(v), b.node_kind(v), "node {v} kind: {what}");
            assert_eq!(
                a.capacity(v).value().to_bits(),
                b.capacity(v).value().to_bits(),
                "node {v} capacity: {what}"
            );
        }
        assert_eq!(a.num_commodities(), b.num_commodities(), "{what}");
        let mut union: Vec<_> = a
            .commodity_ids()
            .flat_map(|j| a.commodity_routers(j).iter().copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(a.router_union(), union, "router union drifted: {what}");
        assert_eq!(a.router_union(), b.router_union(), "router union: {what}");
        for j in a.commodity_ids() {
            assert_eq!(a.dummy_source(j), b.dummy_source(j), "{what}");
            assert_eq!(a.input_edge(j), b.input_edge(j), "{what}");
            assert_eq!(a.difference_edge(j), b.difference_edge(j), "{what}");
            assert_eq!(
                a.commodity(j).max_rate.to_bits(),
                b.commodity(j).max_rate.to_bits(),
                "{what}"
            );
            assert_eq!(a.commodity_routers(j), b.commodity_routers(j), "{what}");
            assert!(
                a.commodity_routers_topo(j).eq(b.commodity_routers_topo(j)),
                "{what}"
            );
            assert_eq!(
                a.commodity_router_arc_total(j),
                b.commodity_router_arc_total(j),
                "{what}"
            );
            assert_eq!(a.max_out_degree(j), b.max_out_degree(j), "{what}");
            assert!(a.topo_order(j).eq(b.topo_order(j)), "{what}");
            // every member-position table: member list, member topo
            // order, router positions, head/tail positions
            assert_eq!(a.members(j), b.members(j), "position tables: {what}");
            assert_eq!(a.member_range(j), b.member_range(j), "{what}");
            for l in a.graph().edges() {
                assert_eq!(a.in_commodity(j, l), b.in_commodity(j, l), "{what}");
                if a.in_commodity(j, l) {
                    assert_eq!(a.cost(j, l).to_bits(), b.cost(j, l).to_bits(), "{what}");
                    assert_eq!(a.beta(j, l).to_bits(), b.beta(j, l).to_bits(), "{what}");
                }
            }
            for v in a.graph().nodes() {
                assert_eq!(
                    a.commodity_out_slice(j, v),
                    b.commodity_out_slice(j, v),
                    "out slice of {v} for commodity {j}: {what}"
                );
                assert_eq!(
                    a.commodity_in_slice(j, v),
                    b.commodity_in_slice(j, v),
                    "in slice of {v} for commodity {j}: {what}"
                );
            }
        }
    };

    let mut incremental = ExtendedNetwork::build(&minus);
    let id = incremental.add_commodity(CommodityDef::from_problem(
        &full,
        CommodityId::from_index(4),
    ));
    assert_eq!(id, CommodityId::from_index(4));
    assert_networks_match(&incremental, &ExtendedNetwork::build(&full), "after add");

    incremental.remove_commodity(CommodityId::from_index(1));
    assert_networks_match(
        &incremental,
        &ExtendedNetwork::build(&subset(&full, &[0, 2, 3, 4])),
        "after remove",
    );
}

/// ARCHITECTURE invariant 23 (c), "state ∝ touched": every
/// per-commodity node table holds exactly `Σ_j members_j` entries —
/// before, between and after reshapes — and the node-id accessors answer
/// the structural `0.0` / `false` / empty for a node a commodity never
/// touches.
#[test]
fn node_tables_hold_member_entries_only_through_reshapes() {
    let check = |alg: &GradientAlgorithm, what: &str| {
        let ext = alg.extended();
        let total: usize = ext
            .commodity_ids()
            .map(|j| ext.commodity_member_nodes(j).len())
            .sum();
        assert_eq!(ext.member_total(), total, "member_total: {what}");
        assert!(
            total < ext.num_commodities() * ext.graph().node_count(),
            "the instance leaves nobody idle: {what}"
        );
        // the checkpoint is a straight copy of the live rows
        let ck = alg.checkpoint();
        assert_eq!(ck.t().len(), total, "traffic rows: {what}");
        assert_eq!(ck.d().len(), total, "marginal rows: {what}");
        let cfg = alg.config();
        let tags = compute_tags(
            ext,
            alg.cost_model(),
            alg.routing(),
            alg.flows(),
            alg.marginals(),
            cfg.eta,
            cfg.traffic_floor,
        );
        for j in ext.commodity_ids() {
            let members = ext.commodity_member_nodes(j);
            for v in ext.graph().nodes() {
                let at = members.binary_search(&v).ok();
                assert_eq!(ext.member_pos(j, v), at, "member_pos({j}, {v}): {what}");
                if at.is_some() {
                    continue;
                }
                assert_eq!(alg.flows().traffic(ext, j, v).to_bits(), 0, "{what}");
                assert_eq!(alg.marginals().node(ext, j, v).to_bits(), 0, "{what}");
                assert!(!tags.is_tagged(ext, j, v), "{what}");
                assert!(ext.commodity_out_slice(j, v).is_empty(), "{what}");
                assert!(ext.commodity_in_slice(j, v).is_empty(), "{what}");
            }
        }
    };
    let full = five_commodity_problem();
    for sparsity in [false, true] {
        let mut alg = GradientAlgorithm::new(&full, config(sparsity)).unwrap();
        check(&alg, "fresh");
        alg.run(40);
        check(&alg, "after 40 steps");
        let parked = alg.extended().commodity_def(CommodityId::from_index(1));
        alg.evict_commodity(CommodityId::from_index(1));
        check(&alg, "right after an evict");
        alg.run(15);
        alg.admit_commodity(parked);
        check(&alg, "right after an admit");
        alg.run(15);
        check(&alg, "settling again");
    }
}

/// Checkpoints captured before a reshape are rejected after one — even
/// when a later reshape restores the original shapes, the epoch fence
/// still holds, so a stale snapshot can never silently replay.
#[test]
fn restore_across_a_reshape_is_rejected() {
    let full = five_commodity_problem();
    let mut alg = GradientAlgorithm::new(&full, config(false)).unwrap();
    alg.run(60);
    let stale = alg.checkpoint();

    let last = CommodityId::from_index(4);
    let parked = alg.extended().commodity_def(last);
    alg.evict_commodity(last);
    match alg.restore(&stale) {
        Err(CoreError::EpochMismatch {
            expected: 1,
            got: 0,
        }) => {}
        other => panic!("expected epoch mismatch 1 != 0, got {other:?}"),
    }

    // Re-admitting restores the exact shapes the capture was taken
    // under — the epoch fence must still refuse it.
    alg.admit_commodity(parked);
    match alg.restore(&stale) {
        Err(CoreError::EpochMismatch {
            expected: 2,
            got: 0,
        }) => {}
        other => panic!("expected epoch mismatch 2 != 0, got {other:?}"),
    }

    // A capture taken at the current epoch round-trips fine.
    alg.run(40);
    let current = alg.checkpoint();
    alg.run(25);
    alg.restore(&current).unwrap();
}

/// The dense and sparse engines replay the same seeded churn sequence
/// and stay bit-identical through every interleaved admit and evict.
#[test]
fn dense_and_sparse_stay_glued_under_churn() {
    let full = five_commodity_problem();
    let churn = ChurnConfig {
        seed: 0xBEEF,
        arrival_probability: 0.35,
        departure_probability: 0.35,
        period: 15,
    };
    let process = |sparsity| {
        ChurnProcess::new(
            GradientAlgorithm::new(&full, config(sparsity)).unwrap(),
            churn,
        )
    };
    let mut dense = process(false);
    let mut sparse = process(true);
    let (mut arrivals, mut departures) = (0, 0);
    for block in 0..10 {
        let rd = dense.run(60);
        let rs = sparse.run(60);
        arrivals += rd.arrivals;
        departures += rd.departures;
        assert_eq!(
            dense.events(),
            sparse.events(),
            "churn decisions diverged by block {block}"
        );
        assert_eq!(
            rd.utility.to_bits(),
            rs.utility.to_bits(),
            "utility diverged by block {block}"
        );
    }
    assert!(
        arrivals > 0 && departures > 0,
        "soak exercised no churn (arrivals {arrivals}, departures {departures})"
    );
    assert_identical(
        dense.algorithm(),
        sparse.algorithm(),
        "after 600 churned iterations",
    );
    assert_eq!(dense.algorithm().epoch(), sparse.algorithm().epoch());
    assert!(dense.algorithm().epoch() > 0, "no reshapes happened");
}
