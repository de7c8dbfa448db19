//! Where a walk over program steps takes its stochastic decisions from.
//!
//! Each back-end evolves its state through one step walker generic over a
//! [`Decisions`] source: a shot's random stream ([`Sampled`]), a pattern's
//! event list ([`Replayed`]) or, once per program, none ([`NoError`]). The
//! operator sequence is the same either way, so a replay reaches the state,
//! and reads the damping thresholds, of every shot that draws the pattern's
//! decisions live — bit for bit. Sites are numbered from the walk's start
//! in protocol order, like the presample plan's.

use qsdd_noise::{ErrorChannel, ErrorEvent, ErrorPattern, SampledError};
use rand::rngs::StdRng;
use rand::Rng;

/// The source of a walk's stochastic decisions.
pub(crate) trait Decisions {
    /// The unitary error a passive exposure fires, if any.
    fn error(&mut self, site: u32, channel: &ErrorChannel) -> Option<usize>;
    /// Whether a damping exposure whose decay branch has probability
    /// `p_decay()`, at most `bound`, decays. The threshold is a walk over
    /// the state, so it is read only when the decision depends on it.
    fn decays(&mut self, site: u32, bound: f64, p_decay: impl FnOnce() -> f64) -> bool;
    /// The generator measurements and resets draw from.
    fn rng(&mut self) -> &mut StdRng;
}

/// Live decisions: one `sample_error` per passive exposure, one uniform
/// draw per damping exposure (the damping channel consumes no randomness in
/// `sample_error`; the branch decision is its single draw). A uniform at or
/// above the threshold's bound keeps without reading the threshold.
pub(crate) struct Sampled<'a>(pub(crate) &'a mut StdRng);

impl Decisions for Sampled<'_> {
    #[inline]
    fn error(&mut self, _site: u32, channel: &ErrorChannel) -> Option<usize> {
        match channel.sample_error(self.0) {
            SampledError::None => None,
            SampledError::Unitary(u) => Some(u),
            SampledError::Kraus => {
                unreachable!("passive exposures come from unitary-equivalent channels")
            }
        }
    }

    #[inline]
    fn decays(&mut self, _site: u32, bound: f64, p_decay: impl FnOnce() -> f64) -> bool {
        let u = self.0.gen::<f64>();
        if u >= bound {
            return false;
        }
        let p_decay = p_decay();
        debug_assert!(
            p_decay <= bound,
            "threshold {p_decay} above its bound {bound}"
        );
        u < p_decay
    }

    fn rng(&mut self) -> &mut StdRng {
        self.0
    }
}

/// Compile's one walk past the recorded trajectory: no error fires, every
/// damping exposure keeps, measurements draw from a generator of their own.
pub(crate) struct NoError(pub(crate) StdRng);

impl Decisions for NoError {
    fn error(&mut self, _site: u32, _channel: &ErrorChannel) -> Option<usize> {
        None
    }

    fn decays(&mut self, _site: u32, _bound: f64, _p_decay: impl FnOnce() -> f64) -> bool {
        false
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// Decisions replayed from a pattern: an exposure deviates exactly when the
/// next event names its site. Past the last event every damping exposure
/// keeps, and its threshold is recorded into `learned` — what the shots
/// sharing this pattern compare their next draws against.
pub(crate) struct Replayed<'a> {
    events: &'a [ErrorEvent],
    next: usize,
    learned: Option<&'a mut Vec<f64>>,
}

impl<'a> Replayed<'a> {
    /// A replay of `pattern` from its first event.
    pub(crate) fn new(pattern: &'a ErrorPattern, learned: Option<&'a mut Vec<f64>>) -> Self {
        Replayed {
            events: pattern.events(),
            next: 0,
            learned,
        }
    }

    /// `true` once every event of the pattern has been taken.
    pub(crate) fn exhausted(&self) -> bool {
        self.next == self.events.len()
    }

    #[inline]
    fn take(&mut self, site: u32) -> Option<u8> {
        let event = self.events.get(self.next).filter(|e| e.site == site)?;
        self.next += 1;
        Some(event.error)
    }
}

impl Decisions for Replayed<'_> {
    #[inline]
    fn error(&mut self, site: u32, _channel: &ErrorChannel) -> Option<usize> {
        self.take(site).map(usize::from)
    }

    #[inline]
    fn decays(&mut self, site: u32, _bound: f64, p_decay: impl FnOnce() -> f64) -> bool {
        if self.exhausted() {
            if let Some(learned) = &mut self.learned {
                learned.push(p_decay());
            }
        }
        self.take(site).is_some()
    }

    fn rng(&mut self) -> &mut StdRng {
        unreachable!("the dedup prefix contains no measurement or reset")
    }
}
