//! Weighted error-pattern enumeration: visiting trajectories by
//! probability instead of by sampling them.
//!
//! Presampling ([`crate::presample`]) resolves a *sampled* shot into an
//! [`ErrorPattern`]; this module walks the same pattern space
//! *deterministically*, yielding patterns in **descending probability
//! order** — the no-error pattern first (at realistic noise strengths),
//! then single-site errors, pairs, and so on — together with each
//! pattern's exact occurrence probability under the stochastic protocol.
//!
//! A weighted simulation driver can then simulate each enumerated
//! trajectory **once**, scale its exact outcome distribution by the
//! pattern probability, and cover the un-enumerated residual mass with
//! ordinary rejection-sampled shots. Enumeration turns the shot count from
//! the cost driver into a precision knob: the enumerated mass is computed
//! exactly, only the (small) tail is estimated stochastically.
//!
//! # Which patterns are enumerable
//!
//! Exactly the patterns [`PresamplePlan::presample`] can return. Sites up
//! to (and including) the last state-dependent damping site must resolve
//! to "no event" — any earlier deviation forces the live path — so those
//! sites contribute a single common probability factor. Every site after
//! the last damping site is free: it independently chooses "no event" or
//! one of its unitary errors. The total enumerable mass
//! ([`PatternEnumerator::enumerable_mass`]) is therefore the product of
//! the no-event probabilities of the constrained prefix — `1.0` when the
//! plan has no damping site at all.
//!
//! # Order and exactness guarantees
//!
//! * Yielded probabilities are non-increasing, with a deterministic
//!   tie-break (lexicographically smallest option assignment first).
//! * No pattern is ever yielded twice (the search tree assigns each
//!   pattern a unique parent).
//! * Probabilities are recomputed canonically (one product over sites in
//!   site order) rather than updated incrementally, so a pattern's weight
//!   is bit-identical no matter when it is reached.
//! * [`PatternEnumerator::covered_mass`] accumulates yielded weights in
//!   yield order; [`PatternEnumerator::residual_mass`] is defined as
//!   `1 - covered_mass`, so covered + residual is exactly `1.0` by
//!   construction.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::channels::ErrorKind;
use crate::presample::{ErrorEvent, ErrorPattern, PresamplePlan, SiteChannel};

/// One enumerated trajectory: the pattern plus its exact occurrence
/// probability under the stochastic sampling protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedPattern {
    /// The error pattern (possibly empty: the no-error trajectory).
    pub pattern: ErrorPattern,
    /// Exact probability that a presampled shot draws this pattern.
    pub probability: f64,
}

/// One choice a free site can make: `error == None` is "no event", any
/// other value is the index into the site channel's unitary list.
#[derive(Clone, Copy, Debug)]
struct SiteOption {
    probability: f64,
    error: Option<u8>,
}

/// A free site's choices, sorted by descending probability (deterministic
/// tie-break: "no event" first, then ascending error index).
#[derive(Clone, Debug)]
struct SiteOptions {
    /// Flattened exposure-site index in the presample plan.
    site: u32,
    options: Vec<SiteOption>,
}

/// A node of the best-first search: one complete option assignment over
/// the free sites. Ordered by probability (max-heap), ties broken towards
/// the lexicographically smallest assignment.
#[derive(Clone, Debug)]
struct Node {
    probability: f64,
    /// `assignment[i]` indexes into `free[i].options`.
    assignment: Vec<u8>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Probabilities are finite and non-negative, so the partial order
        // is total here. The reversed assignment comparison makes the
        // max-heap prefer the lexicographically smallest assignment among
        // equal probabilities.
        self.probability
            .partial_cmp(&other.probability)
            .expect("pattern probabilities are never NaN")
            .then_with(|| other.assignment.cmp(&self.assignment))
    }
}

/// Enumerates the presampleable error patterns of a [`PresamplePlan`] in
/// descending probability order.
///
/// The enumerator is an [`Iterator`] over [`WeightedPattern`]s. It stops
/// when the configured mass cutoff is covered, the max-patterns budget is
/// exhausted, or the (finite) pattern space is fully enumerated —
/// whichever comes first.
///
/// # Examples
///
/// ```
/// use qsdd_noise::{ErrorChannel, ErrorKind, PatternEnumerator, PresamplePlan, SiteChannel};
///
/// let site = SiteChannel::Passive(ErrorChannel::new(ErrorKind::PhaseFlip, 0.1));
/// let plan = PresamplePlan::new(vec![site, site]);
/// let mut enumerator = PatternEnumerator::new(&plan);
/// let first = enumerator.next().unwrap();
/// assert!(first.pattern.is_empty(), "the no-error pattern comes first");
/// assert!((first.probability - 0.81).abs() < 1e-12);
/// // Full enumeration covers the whole mass: 0.81 + 2 * 0.09 + 0.01.
/// let rest: f64 = enumerator.map(|p| p.probability).sum();
/// assert!((first.probability + rest - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct PatternEnumerator {
    /// Product of the no-event probabilities of the constrained prefix
    /// (sites up to the last damping site); `1.0` without damping. This is
    /// the total mass of the enumerable pattern space.
    prefix_mass: f64,
    free: Vec<SiteOptions>,
    heap: BinaryHeap<Node>,
    mass_cutoff: f64,
    max_patterns: u64,
    covered: f64,
    emitted: u64,
}

impl PatternEnumerator {
    /// Builds an enumerator over the plan's pattern space with no mass
    /// cutoff (`1.0`) and an effectively unlimited pattern budget.
    pub fn new(plan: &PresamplePlan) -> Self {
        let prefix_len = plan.last_damping.map_or(0, |last| last + 1);
        let mut prefix_mass = 1.0f64;
        let mut free = Vec::new();
        for (index, site) in plan.sites.iter().enumerate() {
            let (no_event, errors) = match *site {
                SiteChannel::Passive(channel) => {
                    let p = channel.probability();
                    match channel.kind() {
                        ErrorKind::Depolarizing => (1.0 - 0.75 * p, [0.25 * p; 3].to_vec()),
                        ErrorKind::PhaseFlip => (1.0 - p, vec![p]),
                        ErrorKind::AmplitudeDamping => {
                            unreachable!("damping sites are SiteChannel::Damping")
                        }
                    }
                }
                SiteChannel::Damping { p_decay, .. } => (1.0 - p_decay, Vec::new()),
            };
            if index < prefix_len {
                // Constrained site: any event (or decay) forces the live
                // path, so only the no-event branch contributes.
                prefix_mass *= no_event;
                continue;
            }
            debug_assert!(
                !matches!(site, SiteChannel::Damping { .. }),
                "free sites lie after the last damping site"
            );
            let mut options = vec![SiteOption {
                probability: no_event,
                error: None,
            }];
            options.extend((errors.into_iter().zip(0u8..)).map(|(probability, error)| {
                SiteOption {
                    probability,
                    error: Some(error),
                }
            }));
            // Zero-probability options can never be sampled; dropping them
            // keeps every heap node's weight strictly positive. Sort by
            // descending probability with a deterministic tie-break.
            options.retain(|option| option.probability > 0.0);
            options.sort_by(|a, b| {
                b.probability
                    .partial_cmp(&a.probability)
                    .expect("option probabilities are never NaN")
                    .then_with(|| a.error.cmp(&b.error))
            });
            free.push(SiteOptions {
                site: index as u32,
                options,
            });
        }
        let mut enumerator = PatternEnumerator {
            prefix_mass,
            free,
            heap: BinaryHeap::new(),
            mass_cutoff: 1.0,
            max_patterns: u64::MAX,
            covered: 0.0,
            emitted: 0,
        };
        let root = enumerator.node(vec![0; enumerator.free.len()]);
        if root.probability > 0.0 {
            enumerator.heap.push(root);
        }
        enumerator
    }

    /// Stops enumerating once the yielded mass reaches `cutoff` (clamped
    /// to `[0, 1]`). A cutoff of `1.0` enumerates the full pattern space.
    pub fn with_mass_cutoff(mut self, cutoff: f64) -> Self {
        self.mass_cutoff = cutoff.clamp(0.0, 1.0);
        self
    }

    /// Stops enumerating after at most `max` patterns.
    pub fn with_max_patterns(mut self, max: u64) -> Self {
        self.max_patterns = max;
        self
    }

    /// Total mass of the enumerable pattern space: the probability that a
    /// presampled shot yields *some* pattern (as opposed to the live
    /// path). `1.0` for plans without state-dependent sites.
    pub fn enumerable_mass(&self) -> f64 {
        self.prefix_mass
    }

    /// Probability mass of the patterns yielded so far, accumulated in
    /// yield order.
    pub fn covered_mass(&self) -> f64 {
        self.covered
    }

    /// The un-enumerated probability mass: exactly `1 - covered_mass`,
    /// clamped at zero against floating-point overshoot.
    pub fn residual_mass(&self) -> f64 {
        (1.0 - self.covered).max(0.0)
    }

    /// Number of patterns yielded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Builds the node for an option assignment, recomputing its
    /// probability canonically (site order) for bit-determinism.
    fn node(&self, assignment: Vec<u8>) -> Node {
        let mut probability = self.prefix_mass;
        for (options, &choice) in self.free.iter().zip(&assignment) {
            probability *= options.options[choice as usize].probability;
        }
        Node {
            probability,
            assignment,
        }
    }

    /// Pushes the children of a popped node. Each assignment has a unique
    /// parent (decrement its last non-zero position), so the tree visits
    /// every assignment exactly once: the children of `u` are `u` with its
    /// last non-zero position incremented, plus `u` with any later
    /// position raised from 0 to 1. Every child's probability is at most
    /// the parent's (options are sorted descending), which keeps the
    /// best-first order globally non-increasing.
    fn push_children(&mut self, node: &Node) {
        let last_nonzero = node.assignment.iter().rposition(|&choice| choice > 0);
        if let Some(position) = last_nonzero {
            let next = node.assignment[position] as usize + 1;
            if next < self.free[position].options.len() {
                let mut assignment = node.assignment.clone();
                assignment[position] = next as u8;
                let child = self.node(assignment);
                if child.probability > 0.0 {
                    self.heap.push(child);
                }
            }
        }
        let start = last_nonzero.map_or(0, |position| position + 1);
        for position in start..node.assignment.len() {
            if self.free[position].options.len() > 1 {
                let mut assignment = node.assignment.clone();
                assignment[position] = 1;
                let child = self.node(assignment);
                if child.probability > 0.0 {
                    self.heap.push(child);
                }
            }
        }
    }

    /// Materialises the pattern behind an assignment: one event per free
    /// site whose chosen option is an error.
    fn pattern(&self, assignment: &[u8]) -> ErrorPattern {
        let mut events = Vec::new();
        for (options, &choice) in self.free.iter().zip(assignment) {
            if let Some(error) = options.options[choice as usize].error {
                events.push(ErrorEvent {
                    site: options.site,
                    error,
                });
            }
        }
        ErrorPattern::from_events(events)
    }
}

impl Iterator for PatternEnumerator {
    type Item = WeightedPattern;

    fn next(&mut self) -> Option<WeightedPattern> {
        if self.emitted >= self.max_patterns || self.covered >= self.mass_cutoff {
            return None;
        }
        let node = self.heap.pop()?;
        self.push_children(&node);
        self.covered += node.probability;
        self.emitted += 1;
        Some(WeightedPattern {
            pattern: self.pattern(&node.assignment),
            probability: node.probability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ErrorChannel;

    fn passive(kind: ErrorKind, p: f64) -> SiteChannel {
        SiteChannel::Passive(ErrorChannel::new(kind, p))
    }

    #[test]
    fn empty_plan_yields_exactly_the_empty_pattern() {
        let plan = PresamplePlan::new(Vec::new());
        let mut enumerator = PatternEnumerator::new(&plan);
        let first = enumerator.next().unwrap();
        assert!(first.pattern.is_empty());
        assert_eq!(first.probability, 1.0);
        assert!(enumerator.next().is_none());
        assert_eq!(enumerator.covered_mass(), 1.0);
    }

    #[test]
    fn full_enumeration_covers_the_whole_mass() {
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::Depolarizing, 0.2),
            passive(ErrorKind::PhaseFlip, 0.3),
            passive(ErrorKind::Depolarizing, 0.05),
        ]);
        let patterns: Vec<WeightedPattern> = PatternEnumerator::new(&plan).collect();
        // 4 * 2 * 4 assignments.
        assert_eq!(patterns.len(), 32);
        let total: f64 = patterns.iter().map(|p| p.probability).sum();
        assert!((total - 1.0).abs() < 1e-12, "total mass {total}");
    }

    #[test]
    fn damping_prefix_scales_the_enumerable_mass() {
        let plan = PresamplePlan::new(vec![
            passive(ErrorKind::Depolarizing, 0.1),
            SiteChannel::Damping {
                gamma: 0.25,
                p_decay: 0.25,
            },
            passive(ErrorKind::PhaseFlip, 0.5),
        ]);
        let enumerator = PatternEnumerator::new(&plan);
        // Prefix: depolarizing no-event (1 - 0.075) times damping keep 0.75.
        let expected = (1.0 - 0.075) * 0.75;
        assert!((enumerator.enumerable_mass() - expected).abs() < 1e-12);
        let patterns: Vec<WeightedPattern> = enumerator.collect();
        // Only the trailing phase flip is free: no-event or flip.
        assert_eq!(patterns.len(), 2);
        let total: f64 = patterns.iter().map(|p| p.probability).sum();
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn budgets_stop_enumeration() {
        let plan = PresamplePlan::new(vec![passive(ErrorKind::Depolarizing, 0.4); 6]);
        let limited: Vec<_> = PatternEnumerator::new(&plan).with_max_patterns(5).collect();
        assert_eq!(limited.len(), 5);
        let mut by_mass = PatternEnumerator::new(&plan).with_mass_cutoff(0.5);
        let mut count = 0;
        while by_mass.next().is_some() {
            count += 1;
        }
        assert!(by_mass.covered_mass() >= 0.5);
        assert!(count < 4096, "cutoff must stop early");
    }
}
