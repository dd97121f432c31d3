//! Bit-identical snapshots of [`GradientAlgorithm`] state for
//! rollback recovery.
//!
//! A [`Checkpoint`] captures everything that determines the trajectory:
//! the routing table `φ` (which *is* the algorithm's decision variable,
//! admission control included), the flow state and marginals derived
//! from it, the iteration counter, and the two tunables that drift at
//! runtime (the ε-annealing schedule moves `cost.epsilon`; the
//! watchdog's backoff moves `η`). Workspace scratch and blocking tags
//! are deliberately excluded — every pass fully rewrites them before
//! reading, so they carry no state across steps.
//!
//! [`GradientAlgorithm::restore`] copies the buffers straight back:
//! no recomputation, no rounding — stepping from a restored checkpoint
//! is bit-for-bit the same as stepping from the original state (pinned
//! by tests here and in the chaos suite). [`Checkpoint`] buffers are
//! reused across captures (`clear` + `extend_from_slice`), so a
//! checkpoint taken every K iterations is allocation-free after the
//! first capture — cheap enough to leave on inside a chaos soak.
//!
//! [`GradientAlgorithm`]: crate::GradientAlgorithm
//! [`GradientAlgorithm::restore`]: crate::GradientAlgorithm::restore

/// A reusable snapshot of [`GradientAlgorithm`](crate::GradientAlgorithm)
/// state. Create one with [`Checkpoint::new`] (or
/// [`checkpoint`](crate::GradientAlgorithm::checkpoint)), refresh it
/// with [`checkpoint_into`](crate::GradientAlgorithm::checkpoint_into),
/// and roll back with [`restore`](crate::GradientAlgorithm::restore).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Routing fractions, flat row-major (`[j·L + l]`).
    pub(crate) phi: Vec<f64>,
    /// Node traffic rates by member position (`Σ_j members_j` entries,
    /// commodity `j`'s row at `ExtendedNetwork::member_range(j)`).
    pub(crate) t: Vec<f64>,
    /// Per-edge commodity flows, flat row-major (`[j·L + l]`).
    pub(crate) x: Vec<f64>,
    /// Cross-commodity edge usage totals.
    pub(crate) f_edge: Vec<f64>,
    /// Cross-commodity node usage totals.
    pub(crate) f_node: Vec<f64>,
    /// Marginal costs by member position, same layout as the traffic
    /// rates.
    pub(crate) d: Vec<f64>,
    /// Iteration counter at capture time.
    pub(crate) iterations: usize,
    /// `cost.epsilon` at capture time (the annealing schedule mutates
    /// the live value).
    pub(crate) epsilon: f64,
    /// `config.eta` at capture time (watchdog backoff mutates the live
    /// value).
    pub(crate) eta: f64,
    /// Commodity-set epoch at capture time. Online admission/eviction
    /// bumps the algorithm's epoch, so a restore across a reshape is
    /// rejected structurally instead of silently mixing row layouts
    /// that happen to share a byte size.
    pub(crate) epoch: u64,
    /// Whether a capture has been taken (restoring a default-constructed
    /// checkpoint is an error, not a silent zero-fill).
    pub(crate) captured: bool,
}

impl Checkpoint {
    /// An empty checkpoint; fill it with
    /// [`checkpoint_into`](crate::GradientAlgorithm::checkpoint_into).
    #[must_use]
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// `true` once the checkpoint holds a capture.
    #[must_use]
    pub fn is_captured(&self) -> bool {
        self.captured
    }

    /// Iteration counter at capture time.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Clears the captured flag without releasing buffers (the next
    /// capture reuses them).
    pub fn invalidate(&mut self) {
        self.captured = false;
    }

    /// Copies `src` over `dst` without changing `dst`'s capacity once
    /// warm: `clear` keeps the allocation, `extend_from_slice` refills.
    pub(crate) fn refill(dst: &mut Vec<f64>, src: &[f64]) {
        dst.clear();
        dst.extend_from_slice(src);
    }

    // --- external-runtime surface ------------------------------------
    //
    // `GradientAlgorithm` captures and restores through its own methods;
    // runtimes that hold the state buffers directly (the `spn-mesh`
    // region workers mirror a `RoutingTable`/`FlowState`/`Marginals`
    // triple per worker) reuse the same snapshot type — and the same
    // epoch fence — through the methods below, so "restore is
    // bit-for-bit" is one contract with one implementation, not two.

    /// Captures raw engine state (the mirror triple an external runtime
    /// steps directly) into this checkpoint, reusing buffers like
    /// [`checkpoint_into`](crate::GradientAlgorithm::checkpoint_into).
    #[allow(clippy::too_many_arguments)]
    pub fn capture_state(
        &mut self,
        routing: &crate::RoutingTable,
        state: &crate::FlowState,
        marginals: &crate::Marginals,
        iterations: usize,
        epsilon: f64,
        eta: f64,
        epoch: u64,
    ) {
        Checkpoint::refill(&mut self.phi, routing.flat());
        Checkpoint::refill(&mut self.t, &state.t);
        Checkpoint::refill(&mut self.x, &state.x);
        Checkpoint::refill(&mut self.f_edge, &state.f_edge);
        Checkpoint::refill(&mut self.f_node, &state.f_node);
        Checkpoint::refill(&mut self.d, &marginals.d);
        self.iterations = iterations;
        self.epsilon = epsilon;
        self.eta = eta;
        self.epoch = epoch;
        self.captured = true;
    }

    /// Applies a capture back onto an external runtime's state triple:
    /// the exact inverse of [`Checkpoint::capture_state`], a straight
    /// buffer copy (no recomputation, no rounding — bit-for-bit).
    /// Validates in the same order as
    /// [`restore`](crate::GradientAlgorithm::restore): captured flag,
    /// then the `epoch` fence, then buffer shapes. Returns
    /// `(iterations, epsilon, eta)` at capture time for the caller to
    /// reinstall.
    ///
    /// # Errors
    ///
    /// [`EmptyCheckpoint`](crate::CoreError::EmptyCheckpoint) for a
    /// never-captured checkpoint,
    /// [`EpochMismatch`](crate::CoreError::EpochMismatch) when the
    /// capture's commodity-set epoch differs from `epoch`, and
    /// [`ShapeMismatch`](crate::CoreError::ShapeMismatch) when any
    /// buffer length disagrees with the targets.
    pub fn apply_state(
        &self,
        routing: &mut crate::RoutingTable,
        state: &mut crate::FlowState,
        marginals: &mut crate::Marginals,
        epoch: u64,
    ) -> Result<(usize, f64, f64), crate::health::CoreError> {
        use crate::health::CoreError;
        if !self.captured {
            return Err(CoreError::EmptyCheckpoint);
        }
        if self.epoch != epoch {
            return Err(CoreError::EpochMismatch {
                expected: epoch,
                got: self.epoch,
            });
        }
        let shapes: [(&'static str, usize, usize); 6] = [
            ("phi", routing.flat().len(), self.phi.len()),
            ("t", state.t.len(), self.t.len()),
            ("x", state.x.len(), self.x.len()),
            ("f_edge", state.f_edge.len(), self.f_edge.len()),
            ("f_node", state.f_node.len(), self.f_node.len()),
            ("d", marginals.d.len(), self.d.len()),
        ];
        for (what, expected, got) in shapes {
            if expected != got {
                return Err(CoreError::ShapeMismatch {
                    what,
                    expected,
                    got,
                });
            }
        }
        routing.flat_mut().copy_from_slice(&self.phi);
        state.t.copy_from_slice(&self.t);
        state.x.copy_from_slice(&self.x);
        state.f_edge.copy_from_slice(&self.f_edge);
        state.f_node.copy_from_slice(&self.f_node);
        marginals.d.copy_from_slice(&self.d);
        Ok((self.iterations, self.epsilon, self.eta))
    }

    /// Rebuilds a checkpoint from raw buffers (a deserialized recovery
    /// frame). The result is captured; shape validation happens at
    /// [`Checkpoint::apply_state`] time against the actual targets.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        phi: Vec<f64>,
        t: Vec<f64>,
        x: Vec<f64>,
        f_edge: Vec<f64>,
        f_node: Vec<f64>,
        d: Vec<f64>,
        iterations: usize,
        epsilon: f64,
        eta: f64,
        epoch: u64,
    ) -> Self {
        Checkpoint {
            phi,
            t,
            x,
            f_edge,
            f_node,
            d,
            iterations,
            epsilon,
            eta,
            epoch,
            captured: true,
        }
    }

    /// Commodity-set epoch at capture time (the restore fence).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `cost.epsilon` at capture time.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// `η` at capture time.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Routing fractions, flat row-major (`[j·L + l]`).
    #[must_use]
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Node traffic rates by member position (`Σ_j members_j` entries,
    /// commodity `j`'s row at `ExtendedNetwork::member_range(j)`).
    #[must_use]
    pub fn t(&self) -> &[f64] {
        &self.t
    }

    /// Per-edge commodity flows, flat row-major (`[j·L + l]`).
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Cross-commodity edge usage totals.
    #[must_use]
    pub fn f_edge(&self) -> &[f64] {
        &self.f_edge
    }

    /// Cross-commodity node usage totals.
    #[must_use]
    pub fn f_node(&self) -> &[f64] {
        &self.f_node
    }

    /// Marginal costs by member position, same layout as the traffic
    /// rates.
    #[must_use]
    pub fn d(&self) -> &[f64] {
        &self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::CoreError;
    use crate::{GradientAlgorithm, GradientConfig};
    use spn_model::random::RandomInstance;

    fn algorithm() -> GradientAlgorithm {
        let instance = RandomInstance::builder()
            .nodes(15)
            .commodities(3)
            .seed(11)
            .build()
            .unwrap();
        GradientAlgorithm::new(
            &instance.problem,
            GradientConfig {
                eta: 0.2,
                ..GradientConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let mut alg = algorithm();
        alg.run(120);
        let ck = alg.checkpoint();
        assert!(ck.is_captured());
        assert_eq!(ck.iterations(), 120);
        // Reference trajectory from the checkpoint...
        let mut reference = Vec::new();
        for _ in 0..40 {
            alg.step();
            reference.push(alg.utility().to_bits());
        }
        // ...must replay exactly after a restore.
        alg.restore(&ck).unwrap();
        assert_eq!(alg.iterations(), 120);
        for bits in reference {
            alg.step();
            assert_eq!(alg.utility().to_bits(), bits, "replay diverged");
        }
    }

    #[test]
    fn restore_recovers_eta_and_epsilon() {
        let mut alg = algorithm();
        alg.run(30);
        let ck = alg.checkpoint();
        let eta0 = alg.config().eta;
        alg.set_eta(eta0 * 0.125);
        alg.restore(&ck).unwrap();
        assert_eq!(alg.config().eta.to_bits(), eta0.to_bits());
        assert_eq!(alg.cost_model().epsilon.to_bits(), ck.epsilon.to_bits());
    }

    #[test]
    fn checkpoint_into_reuses_buffers() {
        let mut alg = algorithm();
        alg.run(20);
        let mut ck = Checkpoint::new();
        assert!(!ck.is_captured());
        alg.checkpoint_into(&mut ck);
        let caps = (
            ck.phi.capacity(),
            ck.t.capacity(),
            ck.x.capacity(),
            ck.d.capacity(),
        );
        let ptrs = (ck.phi.as_ptr(), ck.t.as_ptr());
        alg.run(20);
        alg.checkpoint_into(&mut ck);
        assert_eq!(
            caps,
            (
                ck.phi.capacity(),
                ck.t.capacity(),
                ck.x.capacity(),
                ck.d.capacity()
            ),
            "re-capture changed buffer capacities"
        );
        assert_eq!(
            ptrs,
            (ck.phi.as_ptr(), ck.t.as_ptr()),
            "re-capture reallocated"
        );
        assert_eq!(ck.iterations(), 40);
    }

    #[test]
    fn external_surface_round_trips_bit_for_bit() {
        let mut alg = algorithm();
        alg.run(60);
        // Capture through the external-runtime surface...
        let mut ck = Checkpoint::new();
        ck.capture_state(
            alg.routing(),
            alg.flows(),
            alg.marginals(),
            alg.iterations(),
            alg.cost_model().epsilon,
            alg.config().eta,
            alg.epoch(),
        );
        // ...and it must be indistinguishable from the algorithm's own
        // capture: restore replays the identical trajectory.
        let native = alg.checkpoint();
        assert_eq!(ck, native);
        let mut routing = alg.routing().clone();
        let mut state = alg.flows().clone();
        let mut marg = alg.marginals().clone();
        alg.run(20);
        let (iters, eps, eta) = ck
            .apply_state(&mut routing, &mut state, &mut marg, alg.epoch())
            .unwrap();
        assert_eq!(iters, 60);
        assert_eq!(eps.to_bits(), alg.cost_model().epsilon.to_bits());
        assert_eq!(eta.to_bits(), alg.config().eta.to_bits());
        alg.restore(&native).unwrap();
        assert_eq!(&routing, alg.routing());
        assert_eq!(&state, alg.flows());
        assert_eq!(&marg, alg.marginals());
    }

    #[test]
    fn external_surface_enforces_the_epoch_fence() {
        let mut alg = algorithm();
        alg.run(10);
        let mut ck = Checkpoint::new();
        ck.capture_state(
            alg.routing(),
            alg.flows(),
            alg.marginals(),
            alg.iterations(),
            alg.cost_model().epsilon,
            alg.config().eta,
            7,
        );
        assert_eq!(ck.epoch(), 7);
        let mut routing = alg.routing().clone();
        let mut state = alg.flows().clone();
        let mut marg = alg.marginals().clone();
        assert_eq!(
            ck.apply_state(&mut routing, &mut state, &mut marg, 8),
            Err(CoreError::EpochMismatch {
                expected: 8,
                got: 7
            })
        );
        // from_raw round-trips the buffers for the wire path
        let rebuilt = Checkpoint::from_raw(
            ck.phi().to_vec(),
            ck.t().to_vec(),
            ck.x().to_vec(),
            ck.f_edge().to_vec(),
            ck.f_node().to_vec(),
            ck.d().to_vec(),
            ck.iterations(),
            ck.epsilon(),
            ck.eta(),
            ck.epoch(),
        );
        assert_eq!(rebuilt, ck);
    }

    #[test]
    fn restoring_an_empty_checkpoint_errors() {
        let mut alg = algorithm();
        let ck = Checkpoint::new();
        assert_eq!(alg.restore(&ck), Err(CoreError::EmptyCheckpoint));
    }

    #[test]
    fn restoring_a_foreign_shape_errors() {
        let mut alg = algorithm();
        alg.run(5);
        let other = RandomInstance::builder()
            .nodes(8)
            .commodities(1)
            .seed(2)
            .build()
            .unwrap();
        let mut small = GradientAlgorithm::new(&other.problem, GradientConfig::default()).unwrap();
        small.run(5);
        let ck = small.checkpoint();
        assert!(matches!(
            alg.restore(&ck),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn invalidate_keeps_buffers_but_blocks_restore() {
        let mut alg = algorithm();
        alg.run(10);
        let mut ck = alg.checkpoint();
        ck.invalidate();
        assert!(!ck.is_captured());
        assert_eq!(alg.restore(&ck), Err(CoreError::EmptyCheckpoint));
        // refilling re-arms it
        alg.checkpoint_into(&mut ck);
        assert!(alg.restore(&ck).is_ok());
    }
}
