//! Presampling: splitting error *sampling* from error *application*.
//!
//! The stochastic protocol draws every error decision from a per-shot
//! random number generator. All of those draws are state-independent for
//! unitary-equivalent channels (depolarizing, phase flip), and even the
//! state-dependent amplitude-damping branch decision becomes predictable
//! along the no-error trajectory, where the branch threshold is known in
//! advance. A shot's error decisions can therefore be **presampled** —
//! resolved up front, without simulating anything — into a compact
//! [`ErrorPattern`]: the `(site, error)` list of every error that fires.
//!
//! Shots with equal patterns evolve through *identical* states, so a
//! simulator only needs to execute one representative per distinct pattern
//! and can fan the result out to every shot that drew it (trajectory
//! deduplication). At realistic noise strengths most shots draw the empty
//! pattern, which turns the shot loop from `O(shots × circuit)` into
//! `O(unique_patterns × circuit + shots × sampling)`.
//!
//! Presampling consumes the random number stream **exactly** like live
//! execution (the same draws, in the same order, via the same
//! [`ErrorChannel::sample_error`] calls), so the generator handed back with
//! a pattern is positioned precisely where live execution would be after
//! the last exposure — ready for the final measurement sampling. That
//! stream identity is what makes deduplicated results byte-identical to
//! per-shot execution.

use rand::Rng;

use crate::channels::{ErrorChannel, ErrorKind, SampledError};

/// One fired error of a presampled shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ErrorEvent {
    /// Flattened exposure-site index the error fired at (sites are numbered
    /// in protocol order: step-major, then qubit-major, then channels in
    /// noise-model order).
    pub site: u32,
    /// Index into the site channel's [`ErrorChannel::unitaries`] list, or
    /// [`ErrorEvent::DECAY`] at a damping site.
    pub error: u8,
}

impl ErrorEvent {
    /// Reserved [`error`](Self::error) code of a damping site's decay
    /// branch: a state change rather than one of a channel's unitaries, so
    /// it only appears in the patterns of shots that left the no-error path
    /// ([`Presampled::Deviated`] and what [`PresamplePlan::resume`] finds
    /// after it).
    pub const DECAY: u8 = u8::MAX;
}

/// The compact key of one presampled trajectory: every error that fires
/// during the shot, as `(site, error)` pairs in site order.
///
/// Two shots with equal patterns apply the identical operator sequence and
/// therefore reach the identical final state; the empty pattern (no error
/// fired anywhere) is by far the most common at realistic noise strengths.
///
/// # Examples
///
/// ```
/// use qsdd_noise::{ErrorChannel, ErrorKind, Presampled, PresamplePlan, SiteChannel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Two exposure sites of a phase-flip channel that never fires.
/// let site = SiteChannel::Passive(ErrorChannel::new(ErrorKind::PhaseFlip, 0.0));
/// let plan = PresamplePlan::new(vec![site, site]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let Presampled::Pattern(pattern) = plan.presample(&mut rng) else {
///     panic!("state-independent sites always presample");
/// };
/// assert!(pattern.is_empty());
/// assert_eq!(pattern.error_events(), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ErrorPattern {
    events: Vec<ErrorEvent>,
}

impl ErrorPattern {
    /// Builds a pattern from its fired errors (must be sorted by site, one
    /// event per site). Used by the enumeration layer ([`crate::enumerate`])
    /// to construct the patterns it weighs.
    pub(crate) fn from_events(events: Vec<ErrorEvent>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].site < w[1].site),
            "pattern events must be strictly site-ordered"
        );
        ErrorPattern { events }
    }

    /// The fired errors in site order.
    pub fn events(&self) -> &[ErrorEvent] {
        &self.events
    }

    /// This pattern followed by one later `event` — the key of the shots
    /// that deviated once more after sharing this pattern.
    pub fn with_event(&self, event: ErrorEvent) -> ErrorPattern {
        let mut events = self.events.clone();
        events.push(event);
        ErrorPattern::from_events(events)
    }

    /// `true` when no error fired (the no-error trajectory).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of stochastic error events of the pattern (each entry is one
    /// fired error; damping "keep" branches are not errors and never appear
    /// in a pattern).
    pub fn error_events(&self) -> u64 {
        self.events.len() as u64
    }
}

/// What decides the outcome of one noise-exposure site during presampling.
#[derive(Clone, Copy, Debug)]
pub enum SiteChannel {
    /// A state-independent channel ([`ErrorChannel::state_dependent`] is
    /// `false`): [`ErrorChannel::sample_error`] fully resolves the draw.
    Passive(ErrorChannel),
    /// A state-dependent damping channel whose branch threshold along the
    /// no-error path has been precomputed: the single branch draw compares
    /// against `p_decay` exactly as live execution would. The threshold is
    /// only valid while the shot is still on the no-error path — any
    /// earlier deviation invalidates it.
    Damping {
        /// Probability of the decay branch on the no-error path.
        p_decay: f64,
    },
}

/// Result of presampling one shot against a [`PresamplePlan`].
#[derive(Clone, Debug)]
pub enum Presampled {
    /// Every site resolved; the shot's trajectory is fully described by the
    /// pattern, and the generator is positioned exactly after the last
    /// exposure draw.
    Pattern(ErrorPattern),
    /// The shot left the no-error path at this event — a damping branch
    /// decayed ([`ErrorEvent::DECAY`]), or an error fired with a
    /// state-dependent site still ahead, whose precomputed threshold the
    /// deviation invalidates. The generator is positioned exactly after the
    /// event's draws: the shot either continues through
    /// [`PresamplePlan::resume`] with thresholds learned along the deviated
    /// trajectory, or executes live with a **freshly derived** generator.
    Deviated(ErrorEvent),
}

/// The flattened, dispatch-free form of one site (see
/// [`PresamplePlan::new`]): the presample inner loop is the hottest loop of
/// a deduplicated run, so the per-site decision is resolved to one branch
/// on a dense tag instead of two nested enum matches. The semantics — and
/// crucially the random-stream consumption — of each arm are exactly those
/// of [`ErrorChannel::sample_error`] for the corresponding kind.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FlatSite {
    /// Depolarizing channel with probability `p`: one uniform draw against
    /// `p`, one `0..4` draw when it fires.
    Depolarizing(f64),
    /// Phase flip with probability `p`: one uniform draw against `p`.
    PhaseFlip(f64),
    /// State-dependent damping with precomputed no-error-path threshold:
    /// one uniform draw against it; a decay leaves the no-error path.
    Damping(f64),
    /// Any other state-independent channel: defer to
    /// [`ErrorChannel::sample_error`].
    Other(ErrorChannel),
}

/// The flattened noise-exposure sites of a program's deduplicable prefix.
///
/// Built once per compiled program; [`PresamplePlan::presample`] then
/// resolves any shot's error decisions in `O(sites)` random draws.
#[derive(Clone, Debug, Default)]
pub struct PresamplePlan {
    pub(crate) sites: Vec<FlatSite>,
    /// Index of the last state-dependent site, if any: an error firing
    /// before it takes the shot off the no-error path (the deviation
    /// invalidates every later precomputed damping threshold).
    pub(crate) last_damping: Option<usize>,
}

impl PresamplePlan {
    /// Builds a plan over the given exposure sites (in protocol order).
    pub fn new(sites: Vec<SiteChannel>) -> Self {
        debug_assert!(
            sites.iter().all(|site| match site {
                SiteChannel::Passive(channel) => !channel.state_dependent(),
                SiteChannel::Damping { .. } => true,
            }),
            "state-dependent channels must use SiteChannel::Damping"
        );
        let sites: Vec<FlatSite> = sites
            .into_iter()
            .map(|site| match site {
                SiteChannel::Passive(channel) => match channel.kind() {
                    ErrorKind::Depolarizing => FlatSite::Depolarizing(channel.probability()),
                    ErrorKind::PhaseFlip => FlatSite::PhaseFlip(channel.probability()),
                    _ => FlatSite::Other(channel),
                },
                SiteChannel::Damping { p_decay } => FlatSite::Damping(p_decay),
            })
            .collect();
        let last_damping = sites
            .iter()
            .rposition(|site| matches!(site, FlatSite::Damping(_)));
        PresamplePlan {
            sites,
            last_damping,
        }
    }

    /// Number of exposure sites covered by the plan.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Resolves one shot's error decisions against the plan.
    ///
    /// Consumes the random number stream exactly like live execution of the
    /// covered exposures: one [`ErrorChannel::sample_error`] per passive
    /// site, one branch draw per damping site. On [`Presampled::Pattern`]
    /// the generator is therefore positioned precisely where a live shot
    /// would be after the last covered exposure; on
    /// [`Presampled::Deviated`], right after the deviating exposure.
    #[inline]
    pub fn presample<R: Rng + ?Sized>(&self, rng: &mut R) -> Presampled {
        let mut events = Vec::new();
        let mut from = 0;
        while let Some(event) = self.next_event(rng, from, |p_decay| p_decay) {
            let site = event.site as usize;
            if event.error == ErrorEvent::DECAY || self.last_damping.is_some_and(|last| last > site)
            {
                // A decay is a state change, and past any other error the
                // state-dependent sites ahead no longer see the no-error
                // path their thresholds were precomputed for.
                return Presampled::Deviated(event);
            }
            events.push(event);
            from = site + 1;
        }
        Presampled::Pattern(ErrorPattern { events })
    }

    /// Continues a deviated shot from `from_site` to its next event, or to
    /// the end of the plan (`None`).
    ///
    /// `learned` holds the decay threshold of every damping site at or
    /// after `from_site`, in site order, as read off the trajectory the
    /// shot is now on (the plan's own thresholds only hold on the no-error
    /// path). Stream consumption per site is that of [`presample`](Self::presample).
    pub fn resume<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        from_site: usize,
        learned: &[f64],
    ) -> Option<ErrorEvent> {
        let mut learned = learned.iter();
        self.next_event(rng, from_site, |_| {
            *learned
                .next()
                .expect("one learned threshold per damping site ahead")
        })
    }

    /// Draws sites `from..` until one fires; `threshold` maps a damping
    /// site's no-error-path threshold to the one to compare against.
    #[inline]
    fn next_event<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        from: usize,
        mut threshold: impl FnMut(f64) -> f64,
    ) -> Option<ErrorEvent> {
        for (site, flat) in self.sites.iter().enumerate().skip(from) {
            // Each arm consumes the stream exactly like
            // `ErrorChannel::sample_error` for its kind (the depolarizing
            // and phase-flip arms are that method's bodies, inlined).
            let error = match *flat {
                FlatSite::Depolarizing(p) => {
                    if p == 0.0 || rng.gen::<f64>() >= p {
                        continue;
                    }
                    match rng.gen_range(0..4) {
                        0 => continue, // identity branch
                        branch => branch - 1,
                    }
                }
                FlatSite::PhaseFlip(p) => {
                    if p == 0.0 || rng.gen::<f64>() >= p {
                        continue;
                    }
                    0
                }
                FlatSite::Damping(p_decay) => {
                    // The damping channel's single draw.
                    if rng.gen::<f64>() >= threshold(p_decay) {
                        continue;
                    }
                    usize::from(ErrorEvent::DECAY)
                }
                FlatSite::Other(channel) => match channel.sample_error(rng) {
                    SampledError::None => continue,
                    SampledError::Unitary(error) => error,
                    SampledError::Kraus => {
                        unreachable!("passive sites come from state-independent channels")
                    }
                },
            };
            return Some(ErrorEvent {
                site: site as u32,
                error: error as u8,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ErrorKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn passive(kind: ErrorKind, p: f64) -> SiteChannel {
        SiteChannel::Passive(ErrorChannel::new(kind, p))
    }

    #[test]
    fn passive_sites_always_presample() {
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::Depolarizing, 0.3),
            passive(ErrorKind::PhaseFlip, 0.3),
            passive(ErrorKind::Depolarizing, 0.3),
        ]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(matches!(plan.presample(&mut rng), Presampled::Pattern(_)));
        }
    }

    #[test]
    fn presampling_consumes_the_stream_like_live_sampling() {
        // The pattern generator and a hand-rolled live replay must agree on
        // every event and leave their generators in identical states.
        let channels = [
            ErrorChannel::new(ErrorKind::Depolarizing, 0.4),
            ErrorChannel::new(ErrorKind::PhaseFlip, 0.25),
        ];
        let sites: Vec<SiteChannel> = channels
            .iter()
            .cycle()
            .take(20)
            .map(|c| SiteChannel::Passive(*c))
            .collect();
        let plan = PresamplePlan::new(sites.clone());
        for seed in 0..50 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let Presampled::Pattern(pattern) = plan.presample(&mut rng_a) else {
                panic!("passive plans always presample");
            };
            let mut expected = Vec::new();
            for (site, channel) in sites.iter().enumerate() {
                let SiteChannel::Passive(channel) = channel else {
                    unreachable!()
                };
                if let SampledError::Unitary(error) = channel.sample_error(&mut rng_b) {
                    expected.push(ErrorEvent {
                        site: site as u32,
                        error: error as u8,
                    });
                }
            }
            assert_eq!(pattern.events(), expected.as_slice());
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "stream diverged");
        }
    }

    #[test]
    fn damping_decay_reports_where_the_shot_deviated() {
        let plan = PresamplePlan::new(vec![SiteChannel::Damping { p_decay: 1.0 }]);
        let mut rng = StdRng::seed_from_u64(3);
        let decay = ErrorEvent {
            site: 0,
            error: ErrorEvent::DECAY,
        };
        assert!(matches!(plan.presample(&mut rng), Presampled::Deviated(event) if event == decay));
        // A never-decaying damping site stays on the pattern path.
        let plan = PresamplePlan::new(vec![SiteChannel::Damping { p_decay: 0.0 }]);
        let Presampled::Pattern(pattern) = plan.presample(&mut rng) else {
            panic!("p_decay = 0 never deviates");
        };
        assert!(pattern.is_empty());
    }

    #[test]
    fn an_error_before_a_damping_site_deviates() {
        // A certain phase flip ahead of a damping site: the precomputed
        // threshold is invalidated, the shot leaves the pattern path there.
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::PhaseFlip, 1.0),
            SiteChannel::Damping { p_decay: 0.0 },
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let flip = ErrorEvent { site: 0, error: 0 };
        assert!(matches!(plan.presample(&mut rng), Presampled::Deviated(event) if event == flip));
        // The same deviation *after* the last damping site is fine.
        let plan = PresamplePlan::new(vec![
            SiteChannel::Damping { p_decay: 0.0 },
            passive(ErrorKind::PhaseFlip, 1.0),
        ]);
        let Presampled::Pattern(pattern) = plan.presample(&mut rng) else {
            panic!("trailing deviations stay presampleable");
        };
        assert_eq!(
            pattern.events(),
            &[ErrorEvent { site: 1, error: 0 }],
            "the trailing flip must be recorded"
        );
        assert_eq!(pattern.error_events(), 1);
    }

    #[test]
    fn resuming_with_the_no_error_thresholds_reproduces_presample() {
        // Damping sites first, so `presample` either deviates by a decay or
        // collects the passive events behind them into a pattern.
        let thresholds = [0.1, 0.05, 0.2];
        let mut sites: Vec<SiteChannel> = thresholds
            .iter()
            .map(|&p_decay| SiteChannel::Damping { p_decay })
            .collect();
        sites.extend(
            [
                passive(ErrorKind::Depolarizing, 0.3),
                passive(ErrorKind::PhaseFlip, 0.25),
            ]
            .repeat(3),
        );
        let plan = PresamplePlan::new(sites);
        let (mut patterns, mut deviations) = (0, 0);
        for seed in 0..200 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            // Resume event by event, each time from the site behind the
            // last one with the thresholds of the damping sites still ahead.
            let mut chained = Vec::new();
            let mut from = 0;
            while let Some(event) =
                plan.resume(&mut rng_b, from, &thresholds[from.min(thresholds.len())..])
            {
                chained.push(event);
                from = event.site as usize + 1;
                if event.error == ErrorEvent::DECAY {
                    break;
                }
            }
            match plan.presample(&mut rng_a) {
                Presampled::Pattern(pattern) => {
                    assert_eq!(pattern.events(), chained);
                    patterns += usize::from(chained.len() > 1);
                }
                Presampled::Deviated(event) => {
                    assert_eq!(chained, [event]);
                    deviations += 1;
                }
            }
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "stream diverged");
        }
        assert!(patterns > 0 && deviations > 0, "both outcomes must occur");
    }

    #[test]
    fn learned_thresholds_force_and_forbid_the_decay() {
        // The plan's own threshold says "coin flip"; the learned one wins.
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::PhaseFlip, 0.0),
            SiteChannel::Damping { p_decay: 0.5 },
        ]);
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let decay = ErrorEvent {
                site: 1,
                error: ErrorEvent::DECAY,
            };
            assert_eq!(plan.resume(&mut rng, 0, &[1.0]), Some(decay));
            assert_eq!(plan.resume(&mut rng, 1, &[0.0]), None);
            // Past the last damping site no threshold is consulted.
            assert_eq!(plan.resume(&mut rng, 2, &[]), None);
        }
    }

    #[test]
    fn patterns_hash_and_compare_by_content() {
        use std::collections::HashMap;
        let plan = PresamplePlan::new(vec![passive(ErrorKind::Depolarizing, 0.5); 4]);
        let mut groups: HashMap<ErrorPattern, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let Presampled::Pattern(pattern) = plan.presample(&mut rng) else {
                unreachable!()
            };
            *groups.entry(pattern).or_insert(0) += 1;
        }
        // At p = 0.5 over four sites many shots share patterns.
        assert!(groups.len() > 1);
        assert!(groups.values().sum::<u64>() == 500);
        assert!(groups.values().any(|&count| count > 1));
    }
}
