//! The mesh transport's seeded fault plan, applied per directed link by
//! [`crate::FaultyStream`] before a frame's bytes reach the stream.
//!
//! Same discipline as `spn_sim::chaos::FaultPlan`, same primitives
//! ([`spn_sim::draws`]): every decision is a pure function of
//! `(seed, wall-clock tick, link)`, so a scenario is a value, not a
//! log. Draws are keyed on the transport **tick**, which never rolls
//! back — a retransmitted frame at a later tick is a *fresh* draw, so a
//! retry never replays the fault that consumed its predecessor, and the
//! retry-with-backoff loop always terminates under sub-certain loss.
//!
//! Partitions cut every link of one region for a window and heal
//! **staggered**: each link gets its own seeded heal offset, so the
//! rejoining region first hears from one survivor while others are
//! still dark — exactly the asymmetric-visibility window the recovery
//! protocol has to survive.

use spn_sim::draws::{bounded_age, coin, salts, unit_hash};

/// Salt for the staggered-heal per-link offset draws (a mesh-local coin
/// family layered on the shared generator).
const SALT_HEAL: u64 = 0x6865_616C_6865_616C; // "heal"

/// One scheduled region partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// The region whose links are cut.
    pub region: usize,
    /// Tick at which every link of `region` goes dark.
    pub at: u64,
    /// Minimum dark window in ticks.
    pub duration: u64,
    /// Maximum extra per-link ticks before a link heals (`0` = all
    /// links heal together at `at + duration`).
    pub heal_stagger: u64,
}

/// Tunables of the stream links' fault injection. Probabilities are per
/// `(tick, link)`; everything is drawn deterministically from `seed`.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshFaultConfig {
    /// Seed of every pseudo-random draw.
    pub seed: u64,
    /// Probability that a frame is dropped in flight.
    pub loss: f64,
    /// Probability that a frame is delivered twice.
    pub duplicate: f64,
    /// Probability that a frame is delayed beyond the next tick.
    pub delay_prob: f64,
    /// Maximum extra delay in ticks; `0` disables delay regardless of
    /// `delay_prob`.
    pub max_delay: u64,
    /// Scheduled region partitions.
    pub partitions: Vec<PartitionSpec>,
}

impl MeshFaultConfig {
    /// Everything off: links under this plan deliver exactly like links
    /// with no plan.
    #[must_use]
    pub fn off() -> Self {
        MeshFaultConfig {
            seed: 0,
            loss: 0.0,
            duplicate: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            partitions: Vec::new(),
        }
    }
}

impl Default for MeshFaultConfig {
    fn default() -> Self {
        MeshFaultConfig::off()
    }
}

/// The compiled plan: pure query functions plus the pre-computed
/// per-link heal schedule.
#[derive(Clone, Debug)]
pub(crate) struct MeshFaultPlan {
    seed: u64,
    loss: f64,
    duplicate: f64,
    delay_prob: f64,
    max_delay: u64,
    /// Sorted by `at`; each with its per-peer heal ticks.
    partitions: Vec<CompiledPartition>,
}

#[derive(Clone, Debug)]
pub(crate) struct CompiledPartition {
    pub region: usize,
    pub at: u64,
    /// Heal tick per peer region (index = peer id; the entry for
    /// `region` itself is unused).
    pub heal: Vec<u64>,
    /// `max(heal)` — when the partition is fully healed.
    pub healed_at: u64,
}

impl MeshFaultPlan {
    /// Compiles a config for a mesh of `regions` workers: sorts the
    /// partition schedule and draws each link's staggered heal tick.
    #[must_use]
    pub fn compile(cfg: &MeshFaultConfig, regions: usize) -> Self {
        let mut specs = cfg.partitions.clone();
        specs.sort_by_key(|p| (p.at, p.region));
        let partitions = specs
            .iter()
            .map(|p| {
                let base = p.at + p.duration;
                let heal: Vec<u64> = (0..regions)
                    .map(|peer| {
                        if peer == p.region || p.heal_stagger == 0 {
                            base
                        } else {
                            // per-link offset in 0..=heal_stagger, keyed on
                            // the partition window and the unordered link
                            let (a, b) = (p.region.min(peer), p.region.max(peer));
                            let draw = unit_hash(cfg.seed ^ SALT_HEAL, p.at as usize, a, b);
                            base + (draw * (p.heal_stagger + 1) as f64) as u64
                        }
                    })
                    .collect();
                let healed_at = heal
                    .iter()
                    .enumerate()
                    .filter(|&(peer, _)| peer != p.region)
                    .map(|(_, &h)| h)
                    .max()
                    .unwrap_or(base);
                CompiledPartition {
                    region: p.region,
                    at: p.at,
                    heal,
                    healed_at,
                }
            })
            .collect();
        MeshFaultPlan {
            seed: cfg.seed,
            loss: cfg.loss,
            duplicate: cfg.duplicate,
            delay_prob: cfg.delay_prob,
            max_delay: cfg.max_delay,
            partitions,
        }
    }

    /// Is the `from → to` link severed by a partition at `tick`?
    #[must_use]
    pub(crate) fn link_blocked(&self, tick: u64, from: usize, to: usize) -> bool {
        self.partitions.iter().any(|p| {
            let peer = if p.region == from {
                to
            } else if p.region == to {
                from
            } else {
                return false;
            };
            tick >= p.at && tick < p.heal[peer]
        })
    }

    /// Is this frame dropped in flight?
    #[must_use]
    pub(crate) fn drops_frame(&self, tick: u64, from: usize, to: usize) -> bool {
        coin(
            self.seed,
            salts::SALT_LOSS,
            self.loss,
            tick as usize,
            from,
            to,
        )
    }

    /// Is this frame delivered twice?
    #[must_use]
    pub(crate) fn duplicates_frame(&self, tick: u64, from: usize, to: usize) -> bool {
        coin(
            self.seed,
            salts::SALT_DUP,
            self.duplicate,
            tick as usize,
            from,
            to,
        )
    }

    /// Extra delivery delay in ticks (`0` = on time).
    #[must_use]
    pub(crate) fn delay_ticks(&self, tick: u64, from: usize, to: usize) -> u64 {
        bounded_age(
            self.seed,
            salts::SALT_DELAY,
            salts::SALT_AGE,
            self.delay_prob,
            self.max_delay as usize,
            tick as usize,
            from,
            to,
        ) as u64
    }

    pub(crate) fn partitions(&self) -> &[CompiledPartition] {
        &self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic() {
        let cfg = MeshFaultConfig {
            seed: 11,
            loss: 0.1,
            duplicate: 0.05,
            delay_prob: 0.2,
            max_delay: 3,
            partitions: vec![PartitionSpec {
                region: 2,
                at: 30,
                duration: 12,
                heal_stagger: 6,
            }],
        };
        let a = MeshFaultPlan::compile(&cfg, 4);
        let b = MeshFaultPlan::compile(&cfg, 4);
        for tick in 0..200 {
            for from in 0..4 {
                for to in 0..4 {
                    assert_eq!(a.drops_frame(tick, from, to), b.drops_frame(tick, from, to));
                    assert_eq!(a.delay_ticks(tick, from, to), b.delay_ticks(tick, from, to));
                    assert_eq!(
                        a.link_blocked(tick, from, to),
                        b.link_blocked(tick, from, to)
                    );
                }
            }
        }
    }

    #[test]
    fn partition_blocks_both_directions_and_heals_staggered() {
        let cfg = MeshFaultConfig {
            partitions: vec![PartitionSpec {
                region: 1,
                at: 10,
                duration: 5,
                heal_stagger: 8,
            }],
            seed: 3,
            ..MeshFaultConfig::off()
        };
        let plan = MeshFaultPlan::compile(&cfg, 4);
        // dark window: both directions blocked, other links untouched
        assert!(plan.link_blocked(10, 1, 0));
        assert!(plan.link_blocked(12, 0, 1));
        assert!(!plan.link_blocked(12, 0, 2));
        assert!(!plan.link_blocked(9, 1, 0));
        // each link heals somewhere in [15, 23], and stays healed
        let p = &plan.partitions()[0];
        for peer in [0usize, 2, 3] {
            assert!((15..=23).contains(&p.heal[peer]), "heal {}", p.heal[peer]);
            assert!(!plan.link_blocked(p.heal[peer], 1, peer));
            assert!(plan.link_blocked(p.heal[peer] - 1, 1, peer));
        }
        assert_eq!(
            p.healed_at,
            *p.heal
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, h)| h)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn retry_draws_are_fresh_per_tick() {
        // with 50% loss some tick must drop and a later tick must pass
        // for the same link — i.e. loss is keyed on the tick
        let cfg = MeshFaultConfig {
            loss: 0.5,
            seed: 21,
            ..MeshFaultConfig::off()
        };
        let plan = MeshFaultPlan::compile(&cfg, 2);
        let outcomes: Vec<bool> = (0..64).map(|t| plan.drops_frame(t, 0, 1)).collect();
        assert!(outcomes.iter().any(|&x| x));
        assert!(outcomes.iter().any(|&x| !x));
    }
}
