//! Golden trajectories (ARCHITECTURE invariant 23, "state ∝ touched").
//!
//! Every per-commodity node table is stored ragged, keyed by the
//! commodity's member position. That re-key must not move a single
//! float operation, so this file pins whole trajectories — an FNV-1a
//! digest over the `StepStats` bits, `utility().to_bits()` and every
//! member-edge routing fraction, folded in after **every** step — to
//! digests generated at the commit *before* the re-key (PR 21, when the
//! same tables were dense `J·V` slabs). The dense and the sparse
//! engine are each held to the same digest (they are also pinned to
//! each other by `tests/sparse_equivalence.rs`), and the test reads
//! state through `routing.fraction(j, l)` / `commodity_edges(j)` only,
//! which mean the same thing under either layout.
//!
//! After an *intended* numerical change the failing assertion prints
//! the observed digest in hex; paste it over the entry in [`GOLDEN`].

use spn::core::{GradientAlgorithm, GradientConfig};
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

    /// One step of `alg`, folded in: its statistics, the utility after
    /// it, and every member-edge fraction in commodity-then-CSR order.
    fn step(&mut self, alg: &mut GradientAlgorithm) {
        let stats = alg.step();
        self.word(stats.cost_before.to_bits());
        self.word(stats.gamma.max_shift.to_bits());
        self.word(stats.gamma.total_shift.to_bits());
        self.word(stats.gamma.rows as u64);
        self.word(alg.utility().to_bits());
        let (ext, routing) = (alg.extended(), alg.routing());
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

fn config(sparsity: bool) -> GradientConfig {
    GradientConfig {
        sparsity,
        ..GradientConfig::default()
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
fn plain(problem: &Problem, sparsity: bool, steps: usize) -> u64 {
    let mut alg = GradientAlgorithm::new(problem, config(sparsity)).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, steps);
    d.0
}

/// The 1 000-node hierarchy (4 regions × 10 racks × 25 servers, 8
/// tenants): 97 % of its extended nodes route nothing.
fn hierarchy(sparsity: bool) -> u64 {
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
    plain(&problem, sparsity, 400)
}

/// Evict commodity 0 and admit the widest one with no step between
/// (the counts line up again, the extents do not), then evict an
/// interior commodity mid-run and re-admit it.
fn churn(sparsity: bool) -> u64 {
    let full = random(30, 5, 1);
    let widest = {
        let ext = ExtendedNetwork::build(&full);
        (0..5)
            .max_by_key(|&i| ext.commodity_routers(CommodityId::from_index(i)).len())
            .unwrap()
    };
    let smaller: Vec<usize> = (0..5).filter(|&i| i != widest).collect();
    let def = CommodityDef::from_problem(&full, CommodityId::from_index(widest));
    let mut alg = GradientAlgorithm::new(&subset(&full, &smaller), config(sparsity)).unwrap();
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

/// ε annealed ×0.7 every 40 iterations.
fn anneal(sparsity: bool) -> u64 {
    let cfg = GradientConfig {
        epsilon_factor: 0.7,
        epsilon_interval: 40,
        ..config(sparsity)
    };
    let mut alg = GradientAlgorithm::new(&random(24, 4, 11), cfg).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, 300);
    d.0
}

/// Capture at 80, run on, roll back, replay further than before.
fn checkpoint(sparsity: bool) -> u64 {
    let mut alg = GradientAlgorithm::new(&random(20, 3, 9), config(sparsity)).unwrap();
    let mut d = Digest::new();
    d.steps(&mut alg, 80);
    let ck = alg.checkpoint();
    d.steps(&mut alg, 60);
    alg.restore(&ck).unwrap();
    d.steps(&mut alg, 120);
    d.0
}

/// `(scenario, digest)` — generated at the parent of the
/// member-position re-key (commit 0066471, PR 21), where the dense and
/// the sparse engine already produced the same digest (invariant 14).
const GOLDEN: [(&str, u64); 7] = [
    ("random 20x3 seed 9", 0xa11a_01fc_c7c1_b1a3),
    ("random 40x8 seed 5", 0x8893_5edf_a967_5bb7),
    ("random 60x6 seed 3", 0x6f25_9039_c900_716f),
    ("hierarchy 1000 nodes", 0x487f_25e8_8374_73ef),
    ("evict + admit-bigger", 0xafbe_33b5_66f4_8088),
    ("epsilon anneal", 0x262c_7d4a_1508_a1b8),
    ("checkpoint / restore", 0x3b4b_84c8_5e99_7a3a),
];

fn run(scenario: usize, sparsity: bool) -> u64 {
    match scenario {
        0 => plain(&random(20, 3, 9), sparsity, 300),
        1 => plain(&random(40, 8, 5), sparsity, 300),
        2 => plain(&random(60, 6, 3), sparsity, 300),
        3 => hierarchy(sparsity),
        4 => churn(sparsity),
        5 => anneal(sparsity),
        6 => checkpoint(sparsity),
        _ => unreachable!("seven scenarios"),
    }
}

#[test]
fn trajectories_match_the_pre_rekey_digests() {
    for (i, &(name, golden)) in GOLDEN.iter().enumerate() {
        let (dense, sparse) = (run(i, false), run(i, true));
        assert_eq!(
            dense, golden,
            "dense trajectory moved: {name} is now {dense:#018x}"
        );
        assert_eq!(
            sparse, golden,
            "sparse trajectory moved: {name} is now {sparse:#018x}"
        );
    }
}
