//! Golden trajectories (ARCHITECTURE invariant 23, "state ∝ touched").
//!
//! Every per-commodity node table is stored ragged, keyed by the
//! commodity's member position. That re-key must not move a single
//! float operation, so this file pins whole trajectories — an FNV-1a
//! digest over the naive `total_cost` of the pre-step state (the word
//! the step's deleted `cost_before` probe used to fill), the Γ
//! statistics, `utility().to_bits()` and every member-edge routing
//! fraction, folded in after **every** step — to
//! digests generated at the commit *before* the re-key (PR 21, when the
//! same tables were dense `J·V` slabs, and the engine still had a dense
//! twin that produced the same digests). The test reads state through
//! `routing.fraction(j, l)` / `commodity_edges(j)` only, which mean the
//! same thing under either layout. The seventh scenario pins the
//! Newton-scaled rule to a digest generated while it still had a
//! driver of its own, before it became a row rule of the one driver.
//!
//! After an *intended* numerical change the failing assertion prints
//! the observed digest in hex; paste it over the entry in [`GOLDEN`].

use spn::core::routing::RoutingTable;
use spn::core::{GradientAlgorithm, GradientConfig, NewtonGradient};
use spn::model::hierarchy::HierarchicalInstance;
use spn::model::random::RandomInstance;
use spn::model::spec::ProblemSpec;
use spn::model::{CommodityId, Problem};
use spn::transform::{CommodityDef, ExtendedNetwork};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One step of `alg`, folded in: the naive cost of the state before
    /// it, its statistics, the utility after it, and every member-edge
    /// fraction in commodity-then-CSR order.
    fn step(&mut self, alg: &mut GradientAlgorithm) {
        let cost_before = alg.cost_model().total_cost(alg.extended(), alg.flows());
        let stats = alg.step();
        self.word(cost_before.to_bits());
        self.word(stats.gamma.max_shift.to_bits());
        self.word(stats.gamma.total_shift.to_bits());
        self.word(stats.gamma.rows as u64);
        self.state(alg.utility(), alg.extended(), alg.routing());
    }

    /// The utility bits and every member-edge fraction in
    /// commodity-then-CSR order.
    fn state(&mut self, utility: f64, ext: &ExtendedNetwork, routing: &RoutingTable) {
        self.word(utility.to_bits());
        for j in ext.commodity_ids() {
            for &l in ext.commodity_edges(j) {
                self.word(routing.fraction(j, l).to_bits());
            }
        }
    }

    fn steps(&mut self, alg: &mut GradientAlgorithm, n: usize) {
        for _ in 0..n {
            self.step(alg);
        }
    }
}

fn random(nodes: usize, commodities: usize, seed: u64) -> Problem {
    RandomInstance::builder()
        .nodes(nodes)
        .commodities(commodities)
        .seed(seed)
        .build()
        .unwrap()
        .problem
}

fn subset(full: &Problem, keep: &[usize]) -> Problem {
    let mut spec = ProblemSpec::from(full);
    spec.commodities = keep.iter().map(|&i| spec.commodities[i].clone()).collect();
    spec.into_problem().unwrap()
}

/// A plain run from the all-reject start.
fn plain(problem: &Problem, steps: usize) -> u64 {
    let mut alg = GradientAlgorithm::new(problem, GradientConfig::default()).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, steps);
    d.0
}

/// The 1 000-node hierarchy (4 regions × 10 racks × 25 servers, 8
/// tenants): 97 % of its extended nodes route nothing.
fn hierarchy() -> u64 {
    let problem = HierarchicalInstance::builder()
        .regions(4)
        .racks_per_region(10)
        .servers_per_rack(25)
        .commodities(8)
        .seed(5)
        .build()
        .unwrap()
        .problem
        .scale_demand(0.2);
    plain(&problem, 400)
}

/// Evict commodity 0 and admit the widest one with no step between
/// (the counts line up again, the extents do not), then evict an
/// interior commodity mid-run and re-admit it.
fn churn() -> u64 {
    let full = random(30, 5, 1);
    let widest = {
        let ext = ExtendedNetwork::build(&full);
        (0..5)
            .max_by_key(|&i| ext.commodity_routers(CommodityId::from_index(i)).len())
            .unwrap()
    };
    let smaller: Vec<usize> = (0..5).filter(|&i| i != widest).collect();
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(widest));
    let mut alg =
        GradientAlgorithm::new(&subset(&full, &smaller), GradientConfig::default()).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, 60);
    alg.evict_commodity(CommodityId::from_index(0));
    alg.admit_commodity(def);
    d.steps(&mut alg, 90);
    let parked = alg.extended().commodity_def(CommodityId::from_index(1));
    alg.evict_commodity(CommodityId::from_index(1));
    d.steps(&mut alg, 40);
    alg.admit_commodity(parked);
    d.steps(&mut alg, 90);
    d.0
}

/// Capture at 80, run on, roll back, replay further than before.
fn checkpoint() -> u64 {
    let mut alg = GradientAlgorithm::new(&random(20, 3, 9), GradientConfig::default()).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, 80);
    let ck = alg.checkpoint();
    d.steps(&mut alg, 60);
    alg.restore(&ck).unwrap();
    d.steps(&mut alg, 120);
    d.0
}

/// The Newton-scaled step rule at η = 0.5, curvature floor 1e-6. Its
/// step statistics are not folded in: only the utility and fractions.
fn newton() -> u64 {
    let cfg = GradientConfig {
        eta: 0.5,
        ..GradientConfig::default()
    };
    let mut alg = NewtonGradient::new(&random(24, 3, 9), cfg, 1e-6).unwrap();
    let mut d = Digest::new();
    for _ in 0..300 {
        alg.step();
        d.state(alg.utility(), alg.extended(), alg.routing());
    }
    d.0
}

/// `(scenario, digest)` — the first six generated at the parent of
/// the member-position re-key (commit 0066471), where the dense
/// and the sparse engine already produced the same digest; the Newton
/// one at the parent of the fold of `NewtonGradient` into
/// `GradientAlgorithm` (commit a29369b). The blocked sets' deletion
/// moved the three scenarios whose trajectory they shaped (40x8, 60x6,
/// evict + admit-bigger); each is re-pinned to its digest at the
/// deletion's parent (commit 045e528) run with `use_blocked_sets:
/// false`, and the other four did not move.
const GOLDEN: [(&str, u64); 7] = [
    ("random 20x3 seed 9", 0xa11a_01fc_c7c1_b1a3),
    ("random 40x8 seed 5", 0x7147_5176_ae9d_ff7b),
    ("random 60x6 seed 3", 0x435e_865f_a737_3780),
    ("hierarchy 1000 nodes", 0x487f_25e8_8374_73ef),
    ("evict + admit-bigger", 0x6e12_5d6c_127d_ceee),
    ("checkpoint / restore", 0x3b4b_84c8_5e99_7a3a),
    ("newton 24x3 seed 9", 0xdc33_3cff_060c_6a89),
];

fn run(scenario: usize) -> u64 {
    match scenario {
        0 => plain(&random(20, 3, 9), 300),
        1 => plain(&random(40, 8, 5), 300),
        2 => plain(&random(60, 6, 3), 300),
        3 => hierarchy(),
        4 => churn(),
        5 => checkpoint(),
        6 => newton(),
        _ => unreachable!("seven scenarios"),
    }
}

#[test]
fn trajectories_match_the_pre_rekey_digests() {
    for (i, &(name, golden)) in GOLDEN.iter().enumerate() {
        let got = run(i);
        assert_eq!(got, golden, "trajectory moved: {name} is now {got:#018x}");
    }
}
