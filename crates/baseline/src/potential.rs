//! Queue potential functions for the back-pressure baseline.
//!
//! The SIGMETRICS'06 algorithm maintains a per-node potential of buffer
//! levels and greedily spends each node's resource where it reduces the
//! total potential fastest. The potential's derivative is the
//! "pressure" of a queue; moving `x` input units of commodity `j` from
//! node `i` to node `k` changes the potential by
//! `−ψ'(q_i)·x + ψ'(q_k)·β·x`, so the transfer weight per unit of
//! resource is `(ψ'(q_i) − β·ψ'(q_k)) / c`.

use serde::{Deserialize, Serialize};

/// The potential family applied to every queue.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Potential {
    /// `ψ(q) = q²/2` — pressure `ψ'(q) = q`, the classic max-weight
    /// back-pressure rule.
    Quadratic,
    /// `ψ(q) = (e^{αq} − 1)/α` — pressure `e^{αq}`; the
    /// Awerbuch–Leighton-style exponential potential, more aggressive
    /// against long queues.
    Exponential {
        /// Growth rate `α > 0`.
        alpha: f64,
    },
}

impl Potential {
    /// Potential value `ψ(q)`.
    #[must_use]
    pub fn value(&self, q: f64) -> f64 {
        let q = q.max(0.0);
        match *self {
            Potential::Quadratic => 0.5 * q * q,
            Potential::Exponential { alpha } => ((alpha * q).exp() - 1.0) / alpha,
        }
    }

    /// Pressure `ψ'(q)`.
    #[must_use]
    pub fn pressure(&self, q: f64) -> f64 {
        let q = q.max(0.0);
        match *self {
            Potential::Quadratic => q,
            Potential::Exponential { alpha } => (alpha * q).exp(),
        }
    }

    /// Transfer weight per unit of resource for moving commodity flow
    /// with shrinkage `beta` and cost `cost` from a queue at `q_from`
    /// to a queue at `q_to`. Positive means the move reduces potential.
    #[must_use]
    pub(crate) fn transfer_weight(&self, q_from: f64, q_to: f64, beta: f64, cost: f64) -> f64 {
        (self.pressure(q_from) - beta * self.pressure(q_to)) / cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_pressure_is_queue_length() {
        let p = Potential::Quadratic;
        assert_eq!(p.pressure(3.0), 3.0);
        assert_eq!(p.value(4.0), 8.0);
        assert_eq!(p.pressure(-1.0), 0.0); // clamped
    }

    #[test]
    fn exponential_pressure_grows() {
        let p = Potential::Exponential { alpha: 0.5 };
        assert!((p.pressure(0.0) - 1.0).abs() < 1e-12);
        assert!(p.pressure(4.0) > p.pressure(2.0) * 2.0 - 1e-9);
        assert!((p.value(0.0)).abs() < 1e-12);
    }

    #[test]
    fn weight_prefers_draining_long_queues() {
        let p = Potential::Quadratic;
        let heavy = p.transfer_weight(10.0, 1.0, 1.0, 1.0);
        let light = p.transfer_weight(2.0, 1.0, 1.0, 1.0);
        assert!(heavy > light);
    }

    #[test]
    fn weight_accounts_for_shrinkage_and_cost() {
        let p = Potential::Quadratic;
        // expansion (β = 2) into an equal queue is unattractive
        assert!(p.transfer_weight(5.0, 5.0, 2.0, 1.0) < 0.0);
        // shrinkage (β = 0.5) into an equal queue is attractive
        assert!(p.transfer_weight(5.0, 5.0, 0.5, 1.0) > 0.0);
        // higher cost halves the per-resource weight
        let w1 = p.transfer_weight(5.0, 1.0, 1.0, 1.0);
        let w2 = p.transfer_weight(5.0, 1.0, 1.0, 2.0);
        assert!((w1 - 2.0 * w2).abs() < 1e-12);
    }

    #[test]
    fn potentials_are_convex() {
        for p in [Potential::Quadratic, Potential::Exponential { alpha: 0.3 }] {
            let mut prev = p.pressure(0.0);
            for i in 1..40 {
                let q = i as f64 * 0.5;
                let d = p.pressure(q);
                assert!(d >= prev - 1e-12);
                prev = d;
            }
        }
    }
}
