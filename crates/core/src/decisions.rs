//! Where a walk over program steps takes its stochastic decisions from.
//!
//! Each back-end evolves its state through one step walker generic over a
//! [`Decisions`] source: a shot's random stream ([`Sampled`]), a pattern's
//! event list ([`Replayed`]) or, once per program, none ([`NoError`]). The
//! operator sequence is the same either way, so a replay reaches the state,
//! and reads the damping thresholds, of every shot that draws the pattern's
//! decisions live — bit for bit. Sites are numbered over the whole program
//! in protocol order, like the presample plan's.

use qsdd_noise::{ErrorChannel, ErrorEvent, ErrorPattern, Survival};
use rand::rngs::StdRng;

/// The source of a walk's stochastic decisions.
pub(crate) trait Decisions {
    /// The unitary error a passive exposure fires, if any.
    fn error(&mut self, site: u32, channel: &ErrorChannel) -> Option<usize>;
    /// Whether a damping exposure whose decay branch has probability `p()`
    /// decays. The threshold is a walk over the state, so it is read only
    /// when the decision depends on it.
    fn decays(&mut self, site: u32, channel: &ErrorChannel, p: impl FnOnce() -> f64) -> bool;
    /// The generator measurements and resets draw from.
    fn rng(&mut self) -> &mut StdRng;
}

/// Live decisions: a shot's generator and its next candidate site over the
/// sites before `end` (see [`qsdd_noise::presample`]). An exposure that is
/// not the next candidate fires nothing and draws nothing; the candidate
/// draws what decides it, then the candidate after it. A Z at a site of
/// `absorbing` is counted into `absorbed`, not fired ([`crate::frame`]).
pub(crate) struct Sampled<'a> {
    pub(crate) rng: &'a mut StdRng,
    survival: &'a Survival,
    absorbing: &'a [bool],
    /// The next candidate, `end` once the sites before it have none left.
    pub(crate) next: u32,
    end: u32,
    pub(crate) absorbed: u32,
}

/// A candidate process and its absorbing sites.
pub(crate) type Process<'a> = (&'a Survival, &'a [bool]);

impl<'a> Sampled<'a> {
    /// Continues a stream whose next candidate is `next`.
    pub(crate) fn new(rng: &'a mut StdRng, process: Process<'a>, next: u32, end: u32) -> Self {
        let (survival, absorbing) = process;
        Sampled {
            rng,
            survival,
            absorbing,
            next,
            end,
            absorbed: 0,
        }
    }

    /// Starts a stream over sites `from..end`: draws its first candidate.
    pub(crate) fn start(rng: &'a mut StdRng, process: Process<'a>, from: u32, end: u32) -> Self {
        let next = process.0.next(rng, from, end);
        Sampled::new(rng, process, next, end)
    }
}

impl Decisions for Sampled<'_> {
    #[inline]
    fn error(&mut self, site: u32, channel: &ErrorChannel) -> Option<usize> {
        if site != self.next {
            return None;
        }
        let absorbs = self.absorbing.get(site as usize) == Some(&true);
        let fired = channel.resolve_framed(self.rng, absorbs, &mut self.absorbed);
        self.next = self.survival.next(self.rng, site + 1, self.end);
        fired
    }

    #[inline]
    fn decays(&mut self, site: u32, channel: &ErrorChannel, p: impl FnOnce() -> f64) -> bool {
        if site != self.next {
            return false;
        }
        let decays = channel.candidate_decays(self.rng, p);
        self.next = self.survival.next(self.rng, site + 1, self.end);
        decays
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Compile's one walk past the recorded trajectory: no error fires, every
/// damping exposure keeps, measurements draw from a generator of their own.
pub(crate) struct NoError(pub(crate) StdRng);

impl Decisions for NoError {
    fn error(&mut self, _site: u32, _channel: &ErrorChannel) -> Option<usize> {
        None
    }

    fn decays(&mut self, _: u32, _: &ErrorChannel, _: impl FnOnce() -> f64) -> bool {
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
    fn decays(&mut self, site: u32, _: &ErrorChannel, p_decay: impl FnOnce() -> f64) -> bool {
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
