//! Single-qubit error channels.
//!
//! The paper considers three physically motivated channels (Section II-B):
//! depolarizing gate errors, amplitude damping (T1) and phase flip (T2)
//! decoherence. Each channel is described both by its Kraus operators (used
//! by the exact density-matrix reference simulator) and by a stochastic
//! sampling rule (used by the Monte-Carlo simulators of Section III).
//!
//! A shot's exposures are *candidates* for an event at
//! [`ErrorChannel::candidate_rate`], and only a candidate draws again to
//! decide what it fires — [`ErrorChannel::resolve_candidate`] for the
//! unitary channels, by index into [`ErrorChannel::unitaries`], and
//! [`ErrorChannel::candidate_decays`] for damping. The compiled shot
//! programs and the presampling layer ([`crate::presample`]) find the
//! candidates one uniform at a time; [`ErrorChannel::sample_action`] decides
//! a lone exposure with a draw of its own.

use qsdd_dd::Matrix2;
use rand::Rng;

/// The kind of a single-qubit error channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Gate error: the qubit is replaced by the maximally mixed state with
    /// probability `p` (uniform application of I, X, Y or Z).
    Depolarizing,
    /// T1 decay towards `|0>` with damping probability `p`.
    AmplitudeDamping,
    /// T2 dephasing: a Z flip with probability `p`.
    PhaseFlip,
}

/// What a stochastic simulation run has to do for one sampled error event.
#[derive(Clone, Debug, PartialEq)]
pub enum StochasticAction {
    /// No error occurred; leave the state untouched.
    None,
    /// Apply the given unitary error operator to the affected qubit.
    Unitary(Matrix2),
    /// Apply one of the given (non-unitary) Kraus branches; the branch must
    /// be selected according to the squared norms of the resulting states
    /// (the channel is state-dependent, cf. Example 6 of the paper).
    Kraus(Vec<Matrix2>),
}

/// An upper bound of every decay threshold of a damping channel of
/// probability `gamma`: a threshold is `γ` times a population share, which
/// round-off may lift a hair above one.
pub fn decay_bound(gamma: f64) -> f64 {
    gamma * (1.0 + 1e-9)
}

/// A single-qubit error channel with an occurrence probability.
///
/// # Examples
///
/// ```
/// use qsdd_noise::{ErrorChannel, ErrorKind};
///
/// let t2 = ErrorChannel::new(ErrorKind::PhaseFlip, 0.001);
/// assert_eq!(t2.kind(), ErrorKind::PhaseFlip);
/// assert!(t2.kraus_operators().len() == 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorChannel {
    kind: ErrorKind,
    probability: f64,
}

impl ErrorChannel {
    /// Creates a channel of the given kind firing with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(kind: ErrorKind, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "error probability must lie in [0, 1]"
        );
        ErrorChannel { kind, probability }
    }

    /// The channel kind.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The per-application error probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// `true` for channels whose stochastic effect depends on the quantum
    /// state (amplitude damping: the Kraus branch probabilities are squared
    /// norms of the branch states, Example 6 of the paper).
    ///
    /// State-dependent channels cannot be presampled from the random stream
    /// alone; the presampling layer only resolves them where the entering
    /// state — and thus the branch threshold — is known in advance (along
    /// the precomputed no-error trajectory), and forces shots onto the live
    /// execution path everywhere else.
    pub fn state_dependent(&self) -> bool {
        matches!(self.kind, ErrorKind::AmplitudeDamping)
    }

    /// The Kraus operators of the channel (they satisfy
    /// `sum_k K_k† K_k = I`).
    pub fn kraus_operators(&self) -> Vec<Matrix2> {
        let p = self.probability;
        match self.kind {
            ErrorKind::Depolarizing => {
                // With probability 1-p nothing happens, with probability p the
                // qubit is depolarized (uniform I, X, Y, Z), i.e. the identity
                // survives with weight 1 - 3p/4.
                vec![
                    Matrix2::identity().scale((1.0 - 0.75 * p).sqrt().into()),
                    Matrix2::pauli_x().scale((0.25 * p).sqrt().into()),
                    Matrix2::pauli_y().scale((0.25 * p).sqrt().into()),
                    Matrix2::pauli_z().scale((0.25 * p).sqrt().into()),
                ]
            }
            ErrorKind::AmplitudeDamping => vec![
                Matrix2::amplitude_damping_a1(p),
                Matrix2::amplitude_damping_a0(p),
            ],
            ErrorKind::PhaseFlip => vec![
                Matrix2::identity().scale((1.0 - p).sqrt().into()),
                Matrix2::pauli_z().scale(p.sqrt().into()),
            ],
        }
    }

    /// The unitary error operators a candidate can fire, in index order.
    ///
    /// Compiled shot programs resolve these to precompiled operator diagrams
    /// once per circuit; [`Self::resolve_candidate`] indexes into this list.
    pub fn unitaries(&self) -> Vec<Matrix2> {
        match self.kind {
            ErrorKind::Depolarizing => {
                vec![Matrix2::pauli_x(), Matrix2::pauli_y(), Matrix2::pauli_z()]
            }
            ErrorKind::PhaseFlip => vec![Matrix2::pauli_z()],
            ErrorKind::AmplitudeDamping => Vec::new(),
        }
    }

    /// The `[decay, keep]` Kraus branch pair of a damping exposure; `None`
    /// for channels that never take the Kraus path.
    pub fn kraus_branches(&self) -> Option<[Matrix2; 2]> {
        match self.kind {
            ErrorKind::AmplitudeDamping => Some([
                Matrix2::amplitude_damping_a0(self.probability),
                Matrix2::amplitude_damping_a1(self.probability),
            ]),
            ErrorKind::Depolarizing | ErrorKind::PhaseFlip => None,
        }
    }

    /// The probability that an exposure to the channel is a *candidate* for
    /// an event (see [`crate::presample`]): `p` for the unitary channels,
    /// [`decay_bound`] (capped at one) for amplitude damping, whose
    /// candidates the state thins ([`Self::candidate_decays`]).
    pub fn candidate_rate(&self) -> f64 {
        match self.kind {
            ErrorKind::AmplitudeDamping => decay_bound(self.probability).min(1.0),
            ErrorKind::Depolarizing | ErrorKind::PhaseFlip => self.probability,
        }
    }

    /// Resolves a candidate exposure of a unitary-equivalent channel: the
    /// index of the unitary error it fires ([`Self::unitaries`]), `None` for
    /// the depolarizing channel's identity branch. One draw for the
    /// depolarizing channel, none for the phase flip.
    #[inline]
    pub fn resolve_candidate<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        match self.kind {
            ErrorKind::Depolarizing => rng.gen_range(0..4usize).checked_sub(1),
            ErrorKind::PhaseFlip => Some(0),
            ErrorKind::AmplitudeDamping => {
                unreachable!("damping candidates are thinned by the state, not resolved")
            }
        }
    }

    /// [`Self::resolve_candidate`] at a site that absorbs Z errors when
    /// `absorbs` (see [`crate::presample`]): a Z is counted into `absorbed`
    /// and fires nothing, a Y fires its X part (`Y = iXZ`). Same draws.
    #[inline]
    pub fn resolve_framed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        absorbs: bool,
        absorbed: &mut u32,
    ) -> Option<usize> {
        let error = self.resolve_candidate(rng)?;
        let x_part = (self.kind == ErrorKind::Depolarizing && error < 2).then_some(0);
        *absorbed += u32::from(absorbs && x_part.is_none());
        Some(error).filter(|_| !absorbs).or(x_part)
    }

    /// Resolves a candidate exposure of the damping channel whose decay
    /// branch has probability `p_decay()` (at most [`decay_bound`]): one
    /// uniform `v`, and the exposure decays iff `v · rate < p_decay`, so a
    /// candidate drawn at [`Self::candidate_rate`] decays with probability
    /// exactly `p_decay`. The threshold is read only here.
    #[inline]
    pub fn candidate_decays<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p_decay: impl FnOnce() -> f64,
    ) -> bool {
        let v = rng.gen::<f64>();
        let p_decay = p_decay();
        debug_assert!(
            p_decay <= decay_bound(self.probability),
            "threshold {p_decay} above its bound"
        );
        v * self.candidate_rate() < p_decay
    }

    /// The unitary behind an index of [`Self::unitaries`], without building
    /// the whole list.
    fn unitary(&self, index: usize) -> Matrix2 {
        match (self.kind, index) {
            (ErrorKind::Depolarizing, 0) => Matrix2::pauli_x(),
            (ErrorKind::Depolarizing, 1) => Matrix2::pauli_y(),
            (ErrorKind::Depolarizing, 2) => Matrix2::pauli_z(),
            (ErrorKind::PhaseFlip, 0) => Matrix2::pauli_z(),
            (kind, index) => unreachable!("channel {kind:?} has no unitary {index}"),
        }
    }

    /// Samples the stochastic action for one application of the channel on
    /// its own, resolved to concrete matrices: one uniform decides whether
    /// the exposure is a candidate, and a candidate resolves as in a shot.
    /// Unitary-equivalent channels (depolarizing, phase flip) resolve their
    /// randomness here, while the state-dependent amplitude-damping channel
    /// returns its Kraus branches for the simulator to pick from based on
    /// the state (Example 6 of the paper).
    pub fn sample_action<R: Rng + ?Sized>(&self, rng: &mut R) -> StochasticAction {
        if self.probability == 0.0 {
            return StochasticAction::None;
        }
        if let Some(branches) = self.kraus_branches() {
            return StochasticAction::Kraus(branches.to_vec());
        }
        match (rng.gen::<f64>() < self.probability).then(|| self.resolve_candidate(rng)) {
            Some(Some(index)) => StochasticAction::Unitary(self.unitary(index)),
            _ => StochasticAction::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_kraus_complete(channel: &ErrorChannel) {
        let kraus = channel.kraus_operators();
        let mut sum = Matrix2::zero();
        for k in &kraus {
            sum = sum.add(&k.adjoint().matmul(k));
        }
        assert!(
            sum.approx_eq(&Matrix2::identity(), 1e-12),
            "{:?} Kraus operators are not trace preserving",
            channel.kind()
        );
    }

    #[test]
    fn all_channels_are_trace_preserving() {
        for kind in [
            ErrorKind::Depolarizing,
            ErrorKind::AmplitudeDamping,
            ErrorKind::PhaseFlip,
        ] {
            for p in [0.0, 0.001, 0.1, 0.5, 1.0] {
                assert_kraus_complete(&ErrorChannel::new(kind, p));
            }
        }
    }

    #[test]
    fn zero_probability_channels_never_fire() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in [ErrorKind::Depolarizing, ErrorKind::PhaseFlip] {
            let c = ErrorChannel::new(kind, 0.0);
            for _ in 0..100 {
                assert_eq!(c.sample_action(&mut rng), StochasticAction::None);
            }
        }
    }

    #[test]
    fn phase_flip_fires_with_roughly_its_probability() {
        let c = ErrorChannel::new(ErrorKind::PhaseFlip, 0.25);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut fired = 0;
        let n = 40_000;
        for _ in 0..n {
            if matches!(c.sample_action(&mut rng), StochasticAction::Unitary(_)) {
                fired += 1;
            }
        }
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn depolarizing_splits_evenly_over_paulis() {
        let c = ErrorChannel::new(ErrorKind::Depolarizing, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = 0;
        let mut y = 0;
        let mut z = 0;
        let mut id = 0;
        let n = 40_000;
        for _ in 0..n {
            match c.sample_action(&mut rng) {
                StochasticAction::None => id += 1,
                StochasticAction::Unitary(m) => {
                    if m.approx_eq(&Matrix2::pauli_x(), 1e-12) {
                        x += 1;
                    } else if m.approx_eq(&Matrix2::pauli_y(), 1e-12) {
                        y += 1;
                    } else {
                        z += 1;
                    }
                }
                StochasticAction::Kraus(_) => panic!("depolarizing must not return Kraus"),
            }
        }
        for count in [id, x, y, z] {
            let rate = count as f64 / n as f64;
            assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
        }
    }

    #[test]
    fn amplitude_damping_always_returns_both_branches() {
        let c = ErrorChannel::new(ErrorKind::AmplitudeDamping, 0.002);
        let mut rng = StdRng::seed_from_u64(3);
        match c.sample_action(&mut rng) {
            StochasticAction::Kraus(branches) => assert_eq!(branches.len(), 2),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "error probability must lie in [0, 1]")]
    fn invalid_probability_panics() {
        let _ = ErrorChannel::new(ErrorKind::PhaseFlip, 1.5);
    }
}
