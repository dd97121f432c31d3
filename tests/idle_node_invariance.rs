//! Idle-node invariance: servers that carry no query do no work and
//! change no bit.
//!
//! The core step touches nodes only through
//! `ExtendedNetwork::router_union`, in its one node-wide lane: zeroing
//! the usage totals before the flow passes add into them. A node
//! outside the union holds `+0.0` usage that no flow pass writes, so
//! zeroing the union alone leaves every total where a full-width reset
//! would. This oracle pins the step and the model from both sides:
//!
//! * **padding** — a problem `P` and `P` plus `k ≫ V` isolated servers
//!   must produce bit-identical Γ statistics, utility and routing on
//!   every step. Padding renumbers the bandwidth and dummy nodes upward
//!   but keeps the union's ascending order;
//! * **the model** — before every step the naive `CostModel::total_cost`
//!   of the two twins must agree bit for bit: the padded fold has `k`
//!   more idle terms in the middle, each `±0.0`, and idle servers change
//!   no bit of `A`.
//!
//! Every step of both twins is also held to its dense kernel replay
//! (`support/dense.rs`), which resets the totals full width.
//!
//! Grid: the three `PenaltyKind`s (`LogBarrier` is the one whose idle
//! value is `-0.0`) × wall on/off at a fixed ε, from the all-reject
//! start, through one evict + admit, one `set_capacity` on a union
//! node and one on an idle node, one `set_max_rate` and one
//! checkpoint/restore.

#[path = "support/dense.rs"]
mod dense;

use dense::checked_step;
use spn::core::{GradientAlgorithm, GradientConfig};
use spn::graph::NodeId;
use spn::model::random::RandomInstance;
use spn::model::spec::ProblemSpec;
use spn::model::{Capacity, CommodityId, Penalty, PenaltyKind, Problem};

/// Isolated servers appended to the padded twin (the unpadded extended
/// network has about 150 nodes).
const PADDING: usize = 3_000;

fn base_problem() -> Problem {
    RandomInstance::builder()
        .nodes(24)
        .commodities(4)
        .seed(11)
        .build()
        .unwrap()
        .problem
}

/// `problem` plus `k` servers with no links — through the
/// `ProblemSpec` round trip, the way a manifest would add them.
fn padded(problem: &Problem, k: usize) -> Problem {
    let mut spec = ProblemSpec::from(problem);
    spec.node_capacities.extend((0..k).map(|i| 5.0 + i as f64));
    spec.into_problem().unwrap()
}

/// The lowest node outside the router union (there is always one in
/// the padded twin; the random family leaves some in the plain one too).
fn an_idle_node(alg: &GradientAlgorithm) -> Option<NodeId> {
    let ext = alg.extended();
    let union = ext.router_union();
    ext.graph()
        .nodes()
        .find(|v| union.binary_search(v).is_err())
}

/// One step on each twin, checked against each other and against its
/// dense replay, after the naive full-width costs of the two pre-step
/// states are checked against each other.
fn step_both(plain: &mut GradientAlgorithm, pad: &mut GradientAlgorithm, what: &str) {
    let naive = |alg: &GradientAlgorithm| {
        alg.cost_model()
            .total_cost(alg.extended(), alg.flows())
            .to_bits()
    };
    assert_eq!(
        naive(plain),
        naive(pad),
        "idle servers moved the naive total cost: {what}"
    );
    let a = checked_step(plain, &format!("plain, {what}"));
    let b = checked_step(pad, &format!("padded, {what}"));
    assert_eq!(
        (
            a.gamma.max_shift.to_bits(),
            a.gamma.total_shift.to_bits(),
            a.gamma.rows
        ),
        (
            b.gamma.max_shift.to_bits(),
            b.gamma.total_shift.to_bits(),
            b.gamma.rows
        ),
        "idle servers moved the Γ statistics: {what}"
    );
    assert_eq!(
        plain.utility().to_bits(),
        pad.utility().to_bits(),
        "idle servers moved the utility: {what}"
    );
    assert_eq!(
        plain.routing(),
        pad.routing(),
        "idle servers moved the routing: {what}"
    );
}

#[test]
fn isolated_servers_change_no_bit_of_any_step() {
    let problem = base_problem();
    let padded_problem = padded(&problem, PADDING);
    let kinds = [
        (PenaltyKind::Reciprocal, 0.98),
        (PenaltyKind::ScaledReciprocal, 0.98),
        (PenaltyKind::LogBarrier, 0.95),
    ];
    for (kind, knee) in kinds {
        for wall_strength in [0.0, 4.0] {
            let ctx = format!("{kind:?} wall={wall_strength}");
            let cfg = GradientConfig {
                penalty: Penalty::new(kind, knee).unwrap(),
                wall_strength,
                ..GradientConfig::default()
            };
            let mut plain = GradientAlgorithm::new(&problem, cfg).unwrap();
            let mut pad = GradientAlgorithm::new(&padded_problem, cfg).unwrap();
            assert!(
                pad.extended().graph().node_count() > 10 * plain.extended().graph().node_count(),
                "padding must dwarf the instance"
            );
            let segment = |plain: &mut GradientAlgorithm,
                           pad: &mut GradientAlgorithm,
                           steps: usize,
                           name: &str| {
                for it in 0..steps {
                    step_both(plain, pad, &format!("{name} step {it}, {ctx}"));
                }
            };

            segment(&mut plain, &mut pad, 60, "cold start");

            // Evict commodity 0 and re-admit it (as the last id).
            for alg in [&mut plain, &mut pad] {
                let first = CommodityId::from_index(0);
                let parked = alg.extended().commodity_def(first);
                alg.evict_commodity(first);
                alg.admit_commodity(parked);
            }
            segment(&mut plain, &mut pad, 40, "after evict + admit");

            // Capacity edit on a union node: commodity 0's source is
            // a physical node, so it has the same id in both twins.
            let source = plain
                .extended()
                .commodity(CommodityId::from_index(0))
                .source();
            for alg in [&mut plain, &mut pad] {
                let cap = alg.extended().capacity(source).value();
                alg.extended_mut()
                    .set_capacity(source, Capacity::finite(0.6 * cap).unwrap());
            }
            segment(&mut plain, &mut pad, 30, "after set_capacity on a router");

            // Capacity edit on an idle node: a no-op for the
            // problem and for the naive fold.
            let idle = an_idle_node(&pad).expect("the padded twin has idle nodes");
            pad.extended_mut()
                .set_capacity(idle, Capacity::finite(1.5).unwrap());
            if let Some(idle) = an_idle_node(&plain) {
                plain
                    .extended_mut()
                    .set_capacity(idle, Capacity::finite(1.5).unwrap());
            }
            segment(
                &mut plain,
                &mut pad,
                30,
                "after set_capacity on an idle node",
            );

            for alg in [&mut plain, &mut pad] {
                let j = CommodityId::from_index(1);
                let rate = alg.extended().commodity(j).max_rate;
                alg.extended_mut().set_max_rate(j, 0.5 * rate);
            }
            segment(&mut plain, &mut pad, 30, "after set_max_rate");

            let (ck_plain, ck_pad) = (plain.checkpoint(), pad.checkpoint());
            segment(&mut plain, &mut pad, 20, "past the checkpoint");
            plain.restore(&ck_plain).unwrap();
            pad.restore(&ck_pad).unwrap();
            segment(&mut plain, &mut pad, 30, "after restore");

            assert!(
                plain.utility() > 0.0,
                "the trajectory never left the all-reject start: {ctx}"
            );
        }
    }
}
