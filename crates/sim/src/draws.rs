//! Seeded fault-draw primitives shared by every fault-injecting
//! runtime in the workspace.
//!
//! Both the in-process chaos runtime ([`crate::chaos`]) and the
//! region-sharded mesh runtime (`spn-mesh`) need the same property from
//! their randomness: a *scenario is a value, not a log*. Every decision
//! — drop this message? deliver it stale? apply the update twice? — is
//! a pure function of `(seed, wall-clock, a, b)`, so two runs from the
//! same seed answer every query identically, and a runtime that rolls
//! back its *state* never rolls back its *clock* and therefore never
//! replays a consumed fault.
//!
//! This module is that one implementation. [`unit_hash`] is the
//! splitmix-style generator; the `SALT_*` constants separate the
//! independent coin families (XOR-ed into the seed so the same
//! `(clock, a, b)` key gives uncorrelated draws per family); and the
//! three decision helpers ([`coin`], [`bounded_age`], `jitter_factor`)
//! encode the draw shapes the runtimes share. `chaos::FaultPlan`
//! delegates here bit-for-bit — extracting this module changed no
//! draw — and `spn-mesh`'s transport plan keys the same helpers with
//! its own salts, so a mesh fault script and a chaos fault script with
//! the same seed are directly comparable.

/// Hash salts separating the independent coin families. A family is
/// one *kind* of decision; two families never share a draw even when
/// keyed identically.
pub mod salts {
    /// Marginal-broadcast (or frame) loss coins.
    pub const SALT_LOSS: u64 = 0x6C6F_7373_6C6F_7373; // "loss"
    /// Staleness gate coins (is this delivery stale at all?).
    pub(crate) const SALT_STALE: u64 = 0x7374_616C_6573_7373;
    /// Staleness age draws (how stale, uniform over `1..=max`).
    pub const SALT_AGE: u64 = 0x6167_6500_6167_6500;
    /// Duplicate-delivery coins.
    pub const SALT_DUP: u64 = 0x6475_7065_6475_7065;
    /// Capacity-jitter amplitude draws.
    pub(crate) const SALT_JITTER: u64 = 0x6A69_7474_6A69_7474;
    /// Frame-delay gate and age draws (mesh transport).
    pub const SALT_DELAY: u64 = 0x6465_6C61_6465_6C61;
    /// Stream read-chunk caps (mesh socket transport): how many bytes
    /// each `read` call may return, so the receive-side reframer is
    /// exercised at seeded mid-header / mid-payload boundaries.
    pub const SALT_SPLIT: u64 = 0x7370_6C69_7473_706C; // "split"
}

/// A deterministic splitmix-style hash → `[0, 1)` float, keyed on a
/// seed, a wall-clock step, and two free indices (commodity/node for
/// the chaos runtime, link endpoints for the mesh transport).
#[must_use]
pub fn unit_hash(seed: u64, iteration: usize, j: usize, v: usize) -> f64 {
    let mut x = seed
        ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (v as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A Bernoulli coin from the `salt` family: `true` with probability
/// `prob`. `prob <= 0` short-circuits to `false` without consuming a
/// draw site (there is no stream to advance — draws are pure), so
/// "feature off" and "probability zero" are indistinguishable, which is
/// what the chaos-off bit-identity contracts rely on.
#[must_use]
pub fn coin(seed: u64, salt: u64, prob: f64, clock: usize, a: usize, b: usize) -> bool {
    prob > 0.0 && unit_hash(seed ^ salt, clock, a, b) < prob
}

/// A two-stage bounded-age draw: with probability `prob` (gate family
/// `gate_salt`), an age uniform over `1..=max_age` (family `age_salt`);
/// otherwise `0` (fresh). `max_age == 0` disables the gate entirely.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn bounded_age(
    seed: u64,
    gate_salt: u64,
    age_salt: u64,
    prob: f64,
    max_age: usize,
    clock: usize,
    a: usize,
    b: usize,
) -> usize {
    if max_age == 0 || prob <= 0.0 || unit_hash(seed ^ gate_salt, clock, a, b) >= prob {
        return 0;
    }
    let draw = unit_hash(seed ^ age_salt, clock, a, b);
    // uniform over 1..=max_age
    1 + ((draw * max_age as f64) as usize).min(max_age - 1)
}

/// A multiplicative jitter factor in `[1 − amplitude, 1 + amplitude]`,
/// floored at `floor` so jitter can never fake a full failure.
/// `amplitude == 0` returns exactly `1.0`.
#[must_use]
pub(crate) fn jitter_factor(
    seed: u64,
    salt: u64,
    amplitude: f64,
    floor: f64,
    clock: usize,
    v: usize,
) -> f64 {
    if amplitude == 0.0 {
        return 1.0;
    }
    let draw = unit_hash(seed ^ salt, clock, 0, v);
    (1.0 + amplitude * (2.0 * draw - 1.0)).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_is_deterministic_and_in_range() {
        for clock in 0..50 {
            for j in 0..4 {
                for v in 0..8 {
                    let a = unit_hash(17, clock, j, v);
                    let b = unit_hash(17, clock, j, v);
                    assert_eq!(a.to_bits(), b.to_bits());
                    assert!((0.0..1.0).contains(&a));
                }
            }
        }
    }

    #[test]
    fn salt_families_are_uncorrelated() {
        // The same key under two salts must not systematically agree:
        // count agreement of the 0.5-threshold coins.
        let mut agree = 0usize;
        let n = 2_000usize;
        for k in 0..n {
            let a = unit_hash(9 ^ salts::SALT_LOSS, k, 1, 2) < 0.5;
            let b = unit_hash(9 ^ salts::SALT_DUP, k, 1, 2) < 0.5;
            agree += usize::from(a == b);
        }
        let frac = agree as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "families correlated: {frac}");
    }

    #[test]
    fn coin_rate_tracks_probability() {
        let n = 4_000usize;
        let hits = (0..n)
            .filter(|&k| coin(3, salts::SALT_LOSS, 0.2, k, 0, 0))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "rate off: {rate}");
        assert!((0..n).all(|k| !coin(3, salts::SALT_LOSS, 0.0, k, 0, 0)));
    }

    #[test]
    fn bounded_age_respects_bounds() {
        for k in 0..2_000 {
            let age = bounded_age(5, salts::SALT_STALE, salts::SALT_AGE, 0.7, 4, k, 1, 1);
            assert!(age <= 4);
        }
        // disabled gates are always fresh
        assert_eq!(
            bounded_age(5, salts::SALT_STALE, salts::SALT_AGE, 0.7, 0, 3, 1, 1),
            0
        );
        assert_eq!(
            bounded_age(5, salts::SALT_STALE, salts::SALT_AGE, 0.0, 4, 3, 1, 1),
            0
        );
    }

    #[test]
    fn jitter_factor_bounded_and_off_is_exact() {
        for k in 0..1_000 {
            let f = jitter_factor(7, salts::SALT_JITTER, 0.05, 0.1, k, 3);
            assert!((0.95..=1.05).contains(&f));
        }
        assert_eq!(
            jitter_factor(7, salts::SALT_JITTER, 0.0, 0.1, 3, 3).to_bits(),
            1.0f64.to_bits()
        );
    }
}
