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
//! # One uniform per event
//!
//! Every exposure site is a *candidate* for an event at a state-independent
//! rate ([`ErrorChannel::candidate_rate`]), so a shot's next candidate
//! follows from one uniform and the cumulative [`Survival`] array — the
//! waiting-time form of the Monte-Carlo wavefunction method (Dalibard,
//! Castin and Mølmer, PRL 68, 580, 1992). Only a candidate draws again to
//! decide what it fires. A walk draws its first candidate when it starts and
//! the next one right after each candidate resolves; presampling and live
//! execution follow that one rule, so the generator — and the next
//! candidate of a shot that left the no-error path — sit exactly where live
//! execution would be, which makes deduplicated results byte-identical to
//! per-shot execution.
//!
//! A site may *absorb* Z errors (one flag per site in `absorbing`; an empty
//! table absorbs nothing): a Z there is drawn and counted but is no event,
//! and a Y fires its X part. Absorption moves no draw.

use std::borrow::Borrow;

use rand::Rng;

use crate::channels::{ErrorChannel, ErrorKind};

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
    /// it only appears in the events of shots that left the no-error path
    /// ([`Presampled::Deviated`] and what their bucket walks draw after it).
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
/// let (Presampled::Pattern(pattern), ..) = plan.presample(&mut rng, &[]) else {
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

/// A pattern hashes and compares as its event slice: maps keyed by patterns take slice lookups.
impl Borrow<[ErrorEvent]> for ErrorPattern {
    fn borrow(&self) -> &[ErrorEvent] {
        &self.events
    }
}

/// The candidate process of a run of exposure sites. `log[s]` is
/// `Σ ln(1 − c_j)` over the sites `j ≤ s` with `c_j < 1`; a certain site
/// (`c = 1`) would put `−∞` into every later difference, so certain sites
/// are kept aside and cap each search instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Survival {
    log: Vec<f64>,
    /// The sites with `c = 1`, ascending.
    certain: Vec<u32>,
}

impl Survival {
    /// The process over sites with the given candidate rates, in order.
    pub fn new(rates: impl IntoIterator<Item = f64>) -> Self {
        let (mut log, mut certain, mut sum) = (Vec::new(), Vec::new(), 0.0f64);
        for (site, rate) in rates.into_iter().enumerate() {
            if rate >= 1.0 {
                certain.push(site as u32);
            } else {
                sum += (-rate).ln_1p();
            }
            log.push(sum);
        }
        Survival { log, certain }
    }

    /// Number of sites covered.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when the process covers no site.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Draws the first candidate at or after site `from` among the sites
    /// before `end`, or returns `end` when there is none. One uniform `u`:
    /// the candidate is the first site `s` at which `log[s] − log[from − 1]`
    /// falls below `ln(1 − u)`. A search over no site (`from >= end`)
    /// draws nothing.
    #[inline]
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R, from: u32, end: u32) -> u32 {
        if from >= end {
            return end;
        }
        let base = self.log[..from as usize].last().copied().unwrap_or(0.0);
        let threshold = base + (-rng.gen::<f64>()).ln_1p();
        let certain = self.certain.partition_point(|&site| site < from);
        let cap = self.certain.get(certain).map_or(end, |&site| site.min(end));
        let window = &self.log[from as usize..cap as usize];
        from + window.partition_point(|&log| log >= threshold) as u32
    }
}

/// What decides the outcome of one noise-exposure site during presampling.
#[derive(Clone, Copy, Debug)]
pub enum SiteChannel {
    /// A state-independent channel ([`ErrorChannel::state_dependent`] is
    /// `false`): a candidate resolves by [`ErrorChannel::resolve_candidate`].
    Passive(ErrorChannel),
    /// A state-dependent damping channel whose branch threshold along the
    /// no-error path has been precomputed: a candidate decays by comparing
    /// against `p_decay` exactly as live execution would. The threshold is
    /// only valid while the shot is still on the no-error path — any
    /// earlier deviation invalidates it.
    Damping {
        /// The channel's damping probability `γ`, which sets the site's
        /// candidate rate.
        gamma: f64,
        /// Probability of the decay branch on the no-error path.
        p_decay: f64,
    },
}

impl SiteChannel {
    /// The site's channel.
    fn channel(&self) -> ErrorChannel {
        match *self {
            Self::Passive(channel) => channel,
            Self::Damping { gamma, .. } => ErrorChannel::new(ErrorKind::AmplitudeDamping, gamma),
        }
    }
}

/// Result of presampling one shot against a [`PresamplePlan`].
#[derive(Clone, Debug)]
pub enum Presampled {
    /// Every site resolved; the shot's trajectory is fully described by the
    /// pattern, and the generator sits after the plan's last draw.
    Pattern(ErrorPattern),
    /// The shot left the no-error path at `event` — a damping branch
    /// decayed ([`ErrorEvent::DECAY`]), or an error fired with a
    /// state-dependent site still ahead, whose precomputed threshold the
    /// deviation invalidates — and drew its next candidate, `next` (the
    /// site count when there is none). Its later candidates are drawn by the
    /// walk of its deviation bucket, which reads their thresholds off the
    /// state the shot is on.
    Deviated {
        /// Where the shot left the no-error path.
        event: ErrorEvent,
        /// The shot's next candidate site.
        next: u32,
    },
}

/// The noise-exposure sites of a program's deduplicable prefix and their
/// candidate process.
///
/// Built once per compiled program; [`PresamplePlan::presample`] then
/// resolves any shot's error decisions with one uniform per candidate.
#[derive(Clone, Debug, Default)]
pub struct PresamplePlan {
    pub(crate) sites: Vec<SiteChannel>,
    survival: Survival,
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
        let survival = Survival::new(sites.iter().map(|site| site.channel().candidate_rate()));
        let last_damping = sites
            .iter()
            .rposition(|site| matches!(site, SiteChannel::Damping { .. }));
        PresamplePlan {
            sites,
            survival,
            last_damping,
        }
    }

    /// Number of exposure sites covered by the plan.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Resolves one shot's error decisions against the plan, from a fresh
    /// generator, absorbing Z errors at the `absorbing` sites.
    ///
    /// Consumes the random number stream exactly like live execution of the
    /// covered exposures (see the module docs). Also returns the number of
    /// waiting-time uniforms drawn — one at the start and one after every
    /// candidate that has a site behind it — and of Z errors absorbed.
    #[inline]
    pub fn presample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        absorbing: &[bool],
    ) -> (Presampled, u32, u32) {
        let end = self.sites.len() as u32;
        let (mut next, mut uniforms) = (self.survival.next(rng, 0, end), u32::from(end > 0));
        let (mut events, mut absorbed) = (Vec::new(), 0);
        while next < end {
            let event = self.resolve(rng, next, (absorbing, &mut absorbed));
            let site = next as usize;
            next = self.survival.next(rng, next + 1, end);
            uniforms += u32::from(site + 1 < end as usize);
            let Some(event) = event else { continue };
            if event.error == ErrorEvent::DECAY || self.last_damping.is_some_and(|last| last > site)
            {
                // A decay is a state change, and past any other error the
                // state-dependent sites ahead no longer see the no-error
                // path their thresholds were precomputed for.
                return (Presampled::Deviated { event, next }, uniforms, absorbed);
            }
            events.push(event);
        }
        let pattern = Presampled::Pattern(ErrorPattern { events });
        (pattern, uniforms, absorbed)
    }

    /// Resolves the candidate at `site` against the no-error path.
    #[inline]
    fn resolve<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        site: u32,
        (absorbing, absorbed): (&[bool], &mut u32),
    ) -> Option<ErrorEvent> {
        let at = self.sites[site as usize];
        let absorbs = absorbing.get(site as usize) == Some(&true);
        let error = match at {
            SiteChannel::Passive(channel) => channel.resolve_framed(rng, absorbs, absorbed)? as u8,
            SiteChannel::Damping { p_decay, .. } => {
                let decays = at.channel().candidate_decays(rng, || p_decay);
                decays.then_some(ErrorEvent::DECAY)?
            }
        };
        Some(ErrorEvent { site, error })
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

    fn damping(p_decay: f64) -> SiteChannel {
        SiteChannel::Damping {
            gamma: p_decay,
            p_decay,
        }
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
            assert!(matches!(
                plan.presample(&mut rng, &[]).0,
                Presampled::Pattern(_)
            ));
        }
    }

    #[test]
    fn presampling_consumes_the_stream_like_a_candidate_walk() {
        // The pattern generator and a hand-rolled walk over every site —
        // drawing only at the next candidate, the next one right after —
        // must agree on every event and leave their generators in identical
        // states.
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
        let survival = Survival::new(channels.iter().cycle().take(20).map(|c| c.candidate_rate()));
        for seed in 0..50 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let (Presampled::Pattern(pattern), uniforms, _) = plan.presample(&mut rng_a, &[])
            else {
                panic!("passive plans always presample");
            };
            let (mut expected, mut draws) = (Vec::new(), 1);
            let mut next = survival.next(&mut rng_b, 0, 20);
            for (site, channel) in sites.iter().enumerate() {
                let SiteChannel::Passive(channel) = channel else {
                    unreachable!()
                };
                if site as u32 != next {
                    continue;
                }
                let fired = channel.resolve_candidate(&mut rng_b);
                next = survival.next(&mut rng_b, next + 1, 20);
                draws += usize::from(site < 19);
                if let Some(error) = fired {
                    expected.push(ErrorEvent {
                        site: site as u32,
                        error: error as u8,
                    });
                }
            }
            assert_eq!(pattern.events(), expected.as_slice());
            assert_eq!(uniforms as usize, draws);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "stream diverged");
        }
    }

    #[test]
    fn absorbing_sites_count_z_fire_x_for_y_and_move_no_draw() {
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::Depolarizing, 1.0),
            passive(ErrorKind::PhaseFlip, 1.0),
            passive(ErrorKind::Depolarizing, 1.0),
        ]);
        let absorbing = [true, true, false];
        for seed in 0..200 {
            let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (Presampled::Pattern(kept), _, none) = plan.presample(&mut rng_a, &[]) else {
                unreachable!()
            };
            let (Presampled::Pattern(framed), _, absorbed) = plan.presample(&mut rng_b, &absorbing)
            else {
                unreachable!()
            };
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "stream diverged");
            assert_eq!(none, 0);
            // Site 0: X stays X, Y becomes X, Z is absorbed; site 1's Z is
            // absorbed; site 2 absorbs nothing.
            let expected: Vec<ErrorEvent> = (kept.events().iter())
                .filter(|e| e.site == 2 || (e.site == 0 && e.error < 2))
                .map(|&e| ErrorEvent {
                    error: if e.site == 0 { 0 } else { e.error },
                    ..e
                })
                .collect();
            assert_eq!(framed.events(), expected);
            assert_eq!(
                framed.error_events() + u64::from(absorbed),
                kept.error_events()
            );
        }
    }

    #[test]
    fn searches_stop_at_certain_sites_and_at_their_end() {
        let survival = Survival::new([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            // Zero-rate sites are never candidates; certain ones always are.
            assert_eq!(survival.next(&mut rng, 0, 6), 1);
            assert_eq!(survival.next(&mut rng, 2, 6), 4);
            assert_eq!(survival.next(&mut rng, 2, 4), 4);
            assert_eq!(survival.next(&mut rng, 5, 6), 6);
        }
        // A search over no site draws nothing.
        let mut twin = rng.clone();
        assert_eq!(survival.next(&mut rng, 6, 6), 6);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    fn damping_decay_reports_where_the_shot_deviated() {
        let plan = PresamplePlan::new(vec![damping(1.0)]);
        let mut rng = StdRng::seed_from_u64(3);
        let decay = ErrorEvent {
            site: 0,
            error: ErrorEvent::DECAY,
        };
        assert!(matches!(
            plan.presample(&mut rng, &[]).0,
            Presampled::Deviated { event, next: 1 } if event == decay
        ));
        // A never-decaying damping site stays on the pattern path.
        let plan = PresamplePlan::new(vec![SiteChannel::Damping {
            gamma: 0.5,
            p_decay: 0.0,
        }]);
        let (Presampled::Pattern(pattern), ..) = plan.presample(&mut rng, &[]) else {
            panic!("p_decay = 0 never deviates");
        };
        assert!(pattern.is_empty());
    }

    #[test]
    fn an_error_before_a_damping_site_deviates() {
        // A certain phase flip ahead of a damping site: the precomputed
        // threshold is invalidated, the shot leaves the pattern path there.
        let plan = PresamplePlan::new(vec![passive(ErrorKind::PhaseFlip, 1.0), damping(0.0)]);
        let mut rng = StdRng::seed_from_u64(4);
        let flip = ErrorEvent { site: 0, error: 0 };
        assert!(matches!(
            plan.presample(&mut rng, &[]).0,
            Presampled::Deviated { event, .. } if event == flip
        ));
        // The same deviation *after* the last damping site is fine.
        let plan = PresamplePlan::new(vec![damping(0.0), passive(ErrorKind::PhaseFlip, 1.0)]);
        let (Presampled::Pattern(pattern), ..) = plan.presample(&mut rng, &[]) else {
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
    fn patterns_hash_and_compare_by_content() {
        use std::collections::HashMap;
        let plan = PresamplePlan::new(vec![passive(ErrorKind::Depolarizing, 0.5); 4]);
        let mut groups: HashMap<ErrorPattern, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let (Presampled::Pattern(pattern), ..) = plan.presample(&mut rng, &[]) else {
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
