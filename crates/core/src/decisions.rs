//! Where a walk over program steps takes its stochastic decisions from.
//!
//! Each back-end evolves its state through one step walker generic over a
//! [`Decisions`] source: a shot's random stream ([`Sampled`]), a pattern's
//! event list ([`Replayed`]) or, at compile time, none ([`NoError`],
//! [`Recording`]). The operator sequence is the same either way, so a replay
//! reaches the state, and a recording reads the damping thresholds, of every
//! shot that draws the same decisions live — bit for bit. Sites are numbered
//! over the whole program in protocol order, like the presample plan's.

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

/// Compile's walks along the no-error path over unitary steps: no error
/// fires, and every damping exposure keeps after recording the decay
/// threshold it meets — what presampling compares shots' draws against.
pub(crate) struct Recording(pub(crate) Vec<f64>);

impl Decisions for Recording {
    fn error(&mut self, _site: u32, _channel: &ErrorChannel) -> Option<usize> {
        None
    }

    fn decays(&mut self, _: u32, _: &ErrorChannel, p_decay: impl FnOnce() -> f64) -> bool {
        self.0.push(p_decay());
        false
    }

    fn rng(&mut self) -> &mut StdRng {
        unreachable!("thresholds are recorded over unitary steps")
    }
}

/// Decisions replayed from a pattern: an exposure deviates exactly when the
/// next event names its site.
pub(crate) struct Replayed<'a> {
    events: &'a [ErrorEvent],
    next: usize,
}

impl<'a> Replayed<'a> {
    /// A replay of `pattern` from its first event.
    pub(crate) fn new(pattern: &'a ErrorPattern) -> Self {
        Replayed {
            events: pattern.events(),
            next: 0,
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
    fn decays(&mut self, site: u32, _: &ErrorChannel, _: impl FnOnce() -> f64) -> bool {
        self.take(site).is_some()
    }

    fn rng(&mut self) -> &mut StdRng {
        unreachable!("the dedup prefix contains no measurement or reset")
    }
}

#[cfg(test)]
mod tests {
    //! Statistical fence of the candidate sampler: drawing one uniform per
    //! candidate event over the survival array must give every shot the error
    //! distribution of one Bernoulli draw per exposure site.
    //!
    //! Each plan is sampled 10⁶ times both ways — by the candidate sampler
    //! ([`Survival::next`] and [`Sampled`], the path every walk takes) and by a
    //! per-site reference, one uniform against each site's probability — and a
    //! two-sample chi-square test compares the site and error of the first
    //! event, and the pair of the first two events (the second conditioned on
    //! the first). Seeds are fixed; a p-value under 1e-4 fails the test. The
    //! plans cover the paper's mix on a GHZ-8-like circuit, damping at
    //! γ ∈ {0.002, 0.3, 0.999} with thresholds from 0 up to the bound, certain
    //! sites (rate 1), and a long plan at γ = 0.999 whose events lie where the
    //! survival is far below the smallest double.
    //!
    //! Millions of draws per plan: the suite runs in optimised builds only
    //! (`cargo test --release -p qsdd-core --lib`).

    use std::collections::HashMap;

    use qsdd_noise::{decay_bound, ErrorKind, SiteChannel};
    use rand::{Rng, SeedableRng};

    use super::*;

    const SHOTS: usize = 1_000_000;
    const P_FLOOR: f64 = 1e-4;

    /// The first two events of a shot (`None`: fewer fired).
    type Events = [Option<ErrorEvent>; 2];

    /// The reference: one Bernoulli draw per site, in site order; a
    /// depolarizing error picks I, X, Y or Z (I fires nothing).
    fn per_site(sites: &[SiteChannel], rng: &mut StdRng) -> Events {
        let mut events = [None; 2];
        let mut fired = 0;
        for (site, channel) in sites.iter().enumerate() {
            let error = match *channel {
                SiteChannel::Passive(channel) if rng.gen::<f64>() < channel.probability() => {
                    match channel.kind() {
                        ErrorKind::Depolarizing => rng.gen_range(0..4u8).checked_sub(1),
                        ErrorKind::PhaseFlip => Some(0),
                        ErrorKind::AmplitudeDamping => unreachable!("damping sites are Damping"),
                    }
                }
                SiteChannel::Passive(_) => None,
                SiteChannel::Damping { p_decay, .. } => {
                    (rng.gen::<f64>() < p_decay).then_some(ErrorEvent::DECAY)
                }
            };
            if let Some(error) = error {
                events[fired] = Some(ErrorEvent {
                    site: site as u32,
                    error,
                });
                fired += 1;
                if fired == 2 {
                    break;
                }
            }
        }
        events
    }

    /// The sampler under test: the live decisions every walk draws through,
    /// the first candidate drawn at the start, each site visited in order and
    /// its channel decided against its own threshold.
    fn candidates(sites: &[SiteChannel], survival: &Survival, rng: &mut StdRng) -> Events {
        let mut sampled = Sampled::start(rng, (survival, &[]), 0, survival.len() as u32);
        let mut events = [None; 2];
        let mut fired = 0;
        for (site, channel) in sites.iter().enumerate() {
            let site = site as u32;
            let error = match *channel {
                SiteChannel::Passive(channel) => sampled.error(site, &channel).map(|u| u as u8),
                SiteChannel::Damping { gamma, p_decay } => {
                    let channel = ErrorChannel::new(ErrorKind::AmplitudeDamping, gamma);
                    let decays = sampled.decays(site, &channel, || p_decay);
                    decays.then_some(ErrorEvent::DECAY)
                }
            };
            if let Some(error) = error {
                events[fired] = Some(ErrorEvent { site, error });
                fired += 1;
                if fired == 2 {
                    break;
                }
            }
        }
        events
    }

    /// The upper tail `Q(a, x)` of the regularised incomplete gamma function.
    fn gamma_q(a: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        let prefactor = (-x + a * x.ln() - ln_gamma(a)).exp();
        if x < a + 1.0 {
            // Series of the lower tail.
            let (mut term, mut sum, mut n) = (1.0 / a, 1.0 / a, a);
            while term.abs() > sum.abs() * 1e-15 {
                n += 1.0;
                term *= x / n;
                sum += term;
            }
            1.0 - sum * prefactor
        } else {
            // Continued fraction of the upper tail (modified Lentz).
            let tiny = 1e-300;
            let mut b = x + 1.0 - a;
            let (mut c, mut d) = (1.0 / tiny, 1.0 / b);
            let mut h = d;
            for i in 1..10_000 {
                let an = -(i as f64) * (i as f64 - a);
                b += 2.0;
                d = an * d + b;
                d = if d.abs() < tiny { tiny } else { d };
                c = b + an / c;
                c = if c.abs() < tiny { tiny } else { c };
                d = 1.0 / d;
                h *= d * c;
                if (d * c - 1.0).abs() < 1e-15 {
                    break;
                }
            }
            prefactor * h
        }
    }

    /// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
    fn ln_gamma(x: f64) -> f64 {
        const C: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.520_368_121_885_1,
            -1_259.139_216_722_402_8,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507_343_278_686_905,
            -0.138_571_095_265_720_12,
            9.984_369_578_019_572e-6,
            1.505_632_735_149_311_6e-7,
        ];
        let x = x - 1.0;
        let t = x + 7.5;
        let series = (1..9).fold(C[0], |sum, i| sum + C[i] / (x + i as f64));
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
    }

    /// Two equally large samples of one categorical variable: the p-value of
    /// the chi-square test of homogeneity. Categories the two samples together
    /// saw fewer than 20 times share one bin.
    fn homogeneity<K: std::hash::Hash + Eq>(
        a: &HashMap<K, u64>,
        b: &HashMap<K, u64>,
    ) -> (f64, usize) {
        let pooled = |key: &K| a.get(key).copied().unwrap_or(0) + b.get(key).copied().unwrap_or(0);
        let (mut statistic, mut bins, mut rare) = (0.0, 0usize, (0u64, 0u64));
        let mut add = |x: u64, y: u64| {
            let (x, y) = (x as f64, y as f64);
            statistic += (x - y) * (x - y) / (x + y);
            bins += 1;
        };
        let keys = a.keys().chain(b.keys().filter(|key| !a.contains_key(key)));
        for key in keys {
            let (x, y) = (
                a.get(key).copied().unwrap_or(0),
                b.get(key).copied().unwrap_or(0),
            );
            if pooled(key) < 20 {
                rare = (rare.0 + x, rare.1 + y);
            } else {
                add(x, y);
            }
        }
        if rare.0 + rare.1 > 0 {
            add(rare.0, rare.1);
        }
        let df = bins.saturating_sub(1).max(1) as f64;
        (gamma_q(df / 2.0, statistic / 2.0), bins)
    }

    /// Samples `sites` `shots` times both ways and fences the first event and
    /// the first two.
    fn assert_matches_per_site(name: &str, sites: Vec<SiteChannel>, shots: usize) {
        let survival = Survival::new(sites.iter().map(|site| match *site {
            SiteChannel::Passive(channel) => channel.candidate_rate(),
            SiteChannel::Damping { gamma, .. } => {
                ErrorChannel::new(ErrorKind::AmplitudeDamping, gamma).candidate_rate()
            }
        }));
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(27), StdRng::seed_from_u64(1992));
        let mut samples = [HashMap::new(), HashMap::new()];
        let mut pairs = [HashMap::new(), HashMap::new()];
        let mut fired = [0u64; 2];
        for _ in 0..shots {
            let drawn = [
                candidates(&sites, &survival, &mut rng_a),
                per_site(&sites, &mut rng_b),
            ];
            for (side, events) in drawn.into_iter().enumerate() {
                *samples[side].entry(events[0]).or_insert(0u64) += 1;
                *pairs[side].entry(events).or_insert(0u64) += 1;
                fired[side] += events.iter().flatten().count() as u64;
            }
        }
        let (first, bins) = homogeneity(&samples[0], &samples[1]);
        let (both, pair_bins) = homogeneity(&pairs[0], &pairs[1]);
        eprintln!(
            "{name}: first event p = {first:.4} over {bins} bins, first two p = {both:.4} over \
             {pair_bins} bins; events fired {fired:?}"
        );
        assert!(bins > 1 && pair_bins > 1, "{name}: nothing to compare");
        assert!(first > P_FLOOR, "{name}: first event p = {first}");
        assert!(both > P_FLOOR, "{name}: first two events p = {both}");
    }

    fn passive(kind: ErrorKind, p: f64) -> SiteChannel {
        SiteChannel::Passive(ErrorChannel::new(kind, p))
    }

    /// Damping sites at `gamma` whose thresholds run through 0, the bound and
    /// values between.
    fn damping_sites(gamma: f64, count: usize) -> Vec<SiteChannel> {
        let bound = decay_bound(gamma);
        let shares = [0.0, 1.0, 0.5, 0.1, 0.9, 0.25];
        (0..count)
            .map(|site| SiteChannel::Damping {
                gamma,
                p_decay: bound * shares[site % shares.len()],
            })
            .collect()
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10^6-shot statistical fence: run with --release"
    )]
    fn the_papers_mix_on_a_ghz8_circuit() {
        // GHZ-8 exposes 15 qubits (the H, then both qubits of seven CXs) to
        // depolarizing, damping and phase flip; GHZ thresholds sit near γ/2,
        // here spread from 0 to the bound.
        let gamma = 0.002;
        let (depolarizing, phase_flip) = (0.001, 0.001);
        let mut sites = Vec::new();
        for (exposure, damping) in damping_sites(gamma, 15).into_iter().enumerate() {
            // A tenfold exposure every fifth, so second events are not rare.
            let scale = if exposure % 5 == 4 { 10.0 } else { 1.0 };
            sites.push(passive(ErrorKind::Depolarizing, depolarizing * scale));
            sites.push(damping);
            sites.push(passive(ErrorKind::PhaseFlip, phase_flip * scale));
        }
        assert_matches_per_site("ghz8 paper mix", sites, SHOTS);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10^6-shot statistical fence: run with --release"
    )]
    fn damping_thinned_at_every_strength() {
        for (gamma, count) in [(0.002, 150), (0.3, 30), (0.999, 30)] {
            let sites = damping_sites(gamma, count);
            assert_matches_per_site(&format!("damping γ = {gamma}"), sites, SHOTS);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10^6-shot statistical fence: run with --release"
    )]
    fn certain_sites_cap_every_search() {
        // Rate-1 sites of all three kinds, with uncertain ones between and
        // behind them: searches start before, at and after certain sites.
        let certain_damping = SiteChannel::Damping {
            gamma: 1.0,
            p_decay: 0.4,
        };
        let sites = vec![
            passive(ErrorKind::PhaseFlip, 0.05),
            passive(ErrorKind::Depolarizing, 1.0),
            passive(ErrorKind::Depolarizing, 0.2),
            certain_damping,
            passive(ErrorKind::PhaseFlip, 0.1),
            certain_damping,
            passive(ErrorKind::Depolarizing, 0.3),
            passive(ErrorKind::PhaseFlip, 1.0),
            passive(ErrorKind::Depolarizing, 0.05),
            passive(ErrorKind::PhaseFlip, 0.2),
        ];
        assert_matches_per_site("certain sites", sites, SHOTS);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10^6-shot statistical fence: run with --release"
    )]
    fn long_plans_at_gamma_0_999_do_not_underflow() {
        // A thousand damping candidates that cannot decay, then thresholds up
        // to the bound: every event lies where the survival since the start is
        // below e^-6900, which no double holds. Each shot walks a thousand
        // candidates either way, so this plan takes a tenth of the shots.
        let gamma = 0.999;
        let mut sites: Vec<SiteChannel> = (0..1_000)
            .map(|_| SiteChannel::Damping {
                gamma,
                p_decay: 0.0,
            })
            .collect();
        sites.extend(damping_sites(gamma, 60).into_iter().map(|site| match site {
            SiteChannel::Damping { p_decay, .. } => SiteChannel::Damping {
                gamma,
                p_decay: p_decay * 0.2,
            },
            passive => passive,
        }));
        assert_matches_per_site("long γ = 0.999", sites, SHOTS / 10);
    }
}
