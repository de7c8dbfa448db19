//! Order and exactness guarantees of the weighted pattern enumerator.
//!
//! [`PatternEnumerator`] promises: yielded probabilities are non-increasing,
//! no pattern repeats, the covered mass never exceeds 1, and the residual is
//! exactly `1 - covered_mass` at every step. These properties are what the
//! weighted driver's unbiasedness proof leans on, so they get direct
//! property-based coverage over random site plans plus targeted edge cases
//! (zero-probability channels, saturated channels, wide 64-site plans).

use std::collections::HashSet;

use proptest::prelude::*;
use qsdd::noise::{
    ErrorChannel, ErrorKind, ErrorPattern, PatternEnumerator, PresamplePlan, SiteChannel,
};

fn passive(kind: ErrorKind, p: f64) -> SiteChannel {
    SiteChannel::Passive(ErrorChannel::new(kind, p))
}

/// Strategy: one random exposure site — depolarizing, phase flip or
/// amplitude damping with a random strength.
fn arb_site() -> impl Strategy<Value = SiteChannel> {
    (0..3u8, 0.0f64..0.3).prop_map(|(kind, p)| match kind {
        0 => passive(ErrorKind::Depolarizing, p),
        1 => passive(ErrorKind::PhaseFlip, p),
        _ => SiteChannel::Damping {
            gamma: p,
            p_decay: p,
        },
    })
}

/// Drains an enumerator, asserting the order/exactness invariants along the
/// way; returns (yielded patterns, covered mass at exhaustion).
fn check_invariants(mut enumerator: PatternEnumerator) -> (Vec<ErrorPattern>, f64) {
    let mut seen: HashSet<ErrorPattern> = HashSet::new();
    let mut previous = f64::INFINITY;
    let mut running = 0.0f64;
    while let Some(weighted) = enumerator.next() {
        assert!(
            weighted.probability > 0.0,
            "zero-probability patterns are never yielded"
        );
        assert!(
            weighted.probability <= previous,
            "order violated: {} after {}",
            weighted.probability,
            previous
        );
        previous = weighted.probability;
        assert!(
            seen.insert(weighted.pattern.clone()),
            "pattern yielded twice: {:?}",
            weighted.pattern
        );
        // Covered mass accumulates the yielded weights in yield order, so
        // recomputing the same sum reproduces it bit for bit — and the
        // residual is exactly its complement.
        running += weighted.probability;
        assert_eq!(running.to_bits(), enumerator.covered_mass().to_bits());
        assert_eq!(
            enumerator.residual_mass().to_bits(),
            (1.0 - running).max(0.0).to_bits(),
            "residual must be exactly 1 - covered"
        );
    }
    let covered = enumerator.covered_mass();
    assert!(covered <= 1.0 + 1e-9, "covered mass overshot: {covered}");
    assert!(covered <= enumerator.enumerable_mass() + 1e-9);
    assert_eq!(enumerator.emitted(), seen.len() as u64);
    (seen.into_iter().collect(), covered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random plans (mixing passive channels and damping sites), bounded
    /// enumeration: non-increasing order, no repeats, covered + residual
    /// exactly 1.
    #[test]
    fn random_plans_enumerate_in_order_without_repeats(
        sites in proptest::collection::vec(arb_site(), 1..10),
    ) {
        let plan = PresamplePlan::new(sites);
        let enumerator = PatternEnumerator::new(&plan).with_max_patterns(512);
        check_invariants(enumerator);
    }

    /// A mass cutoff stops the walk as soon as the target is covered, and
    /// everything yielded up to that point still satisfies the invariants.
    #[test]
    fn mass_cutoffs_respect_the_invariants(
        sites in proptest::collection::vec(arb_site(), 1..8),
        cutoff in 0.1f64..1.0,
    ) {
        let plan = PresamplePlan::new(sites);
        let enumerator = PatternEnumerator::new(&plan).with_mass_cutoff(cutoff);
        let (_patterns, covered) = check_invariants(enumerator);
        // The walk either reached the cutoff or exhausted the enumerable
        // space below it.
        prop_assert!(covered + 1e-12 >= cutoff || covered <= cutoff);
    }
}

#[test]
fn full_enumeration_of_a_passive_plan_covers_everything() {
    let plan = PresamplePlan::new(vec![
        passive(ErrorKind::Depolarizing, 0.1),
        passive(ErrorKind::PhaseFlip, 0.25),
        passive(ErrorKind::Depolarizing, 0.05),
    ]);
    let enumerator = PatternEnumerator::new(&plan);
    assert_eq!(enumerator.enumerable_mass(), 1.0);
    let (patterns, covered) = check_invariants(enumerator);
    assert_eq!(patterns.len(), 32, "4 * 2 * 4 option assignments");
    assert!((covered - 1.0).abs() < 1e-12, "full mass, got {covered}");
}

#[test]
fn zero_probability_channels_collapse_to_the_empty_pattern() {
    // All-zero channels: the only samplable trajectory is "no error", with
    // probability exactly 1 — zero-probability branches never appear.
    let plan = PresamplePlan::new(vec![
        passive(ErrorKind::PhaseFlip, 0.0),
        passive(ErrorKind::Depolarizing, 0.0),
        passive(ErrorKind::PhaseFlip, 0.0),
    ]);
    let mut enumerator = PatternEnumerator::new(&plan);
    let first = enumerator.next().expect("the no-error pattern");
    assert!(first.pattern.is_empty());
    assert_eq!(first.probability, 1.0);
    assert!(enumerator.next().is_none());
    assert_eq!(enumerator.covered_mass(), 1.0);
    assert_eq!(enumerator.residual_mass(), 0.0);
}

#[test]
fn saturated_phase_flip_yields_only_the_certain_error() {
    // p = 1: "no event" has probability zero and must be dropped — the
    // single enumerable trajectory is the certain flip.
    let plan = PresamplePlan::new(vec![passive(ErrorKind::PhaseFlip, 1.0)]);
    let mut enumerator = PatternEnumerator::new(&plan);
    let only = enumerator.next().expect("the certain-flip pattern");
    assert!(!only.pattern.is_empty(), "the flip always fires");
    assert_eq!(only.probability, 1.0);
    assert!(enumerator.next().is_none());
    assert_eq!(enumerator.covered_mass(), 1.0);
}

#[test]
fn saturated_depolarizing_breaks_ties_deterministically() {
    // p = 1 depolarizing: no-event keeps 0.25 and each Pauli gets 0.25 — a
    // four-way tie resolved lexicographically: no-event first, then
    // ascending error index.
    let plan = PresamplePlan::new(vec![passive(ErrorKind::Depolarizing, 1.0)]);
    let patterns: Vec<_> = PatternEnumerator::new(&plan).collect();
    assert_eq!(patterns.len(), 4);
    assert!(patterns[0].pattern.is_empty(), "no-event wins the tie");
    for weighted in &patterns {
        assert_eq!(weighted.probability, 0.25);
    }
    let total: f64 = patterns.iter().map(|p| p.probability).sum();
    assert!((total - 1.0).abs() < 1e-12);
}

#[test]
fn sixty_four_sites_enumerate_within_budget_in_order() {
    // A wide plan (64 depolarizing exposure sites — the flattened site
    // count of a mid-sized circuit): the best-first walk must stay ordered
    // and repeat-free under a pattern budget far smaller than the 4^64
    // space, starting from the no-error pattern.
    let plan = PresamplePlan::new(vec![passive(ErrorKind::Depolarizing, 0.01); 64]);
    let first = PatternEnumerator::new(&plan)
        .next()
        .expect("no-error pattern first");
    assert!(first.pattern.is_empty());
    let expected = (1.0f64 - 0.0075).powi(64);
    assert!((first.probability - expected).abs() < 1e-12);
    let enumerator = PatternEnumerator::new(&plan).with_max_patterns(1000);
    let (patterns, covered) = check_invariants(enumerator);
    assert_eq!(patterns.len(), 1000, "budget exhausted exactly");
    assert!(covered < 1.0);
    // 64 sites * 3 Pauli errors: every single-error pattern outranks any
    // double-error pattern at this strength, so the no-error pattern plus
    // all 192 single-error patterns land within the 1000-pattern budget.
    assert_eq!(
        patterns
            .iter()
            .filter(|pattern| pattern.events().len() <= 1)
            .count(),
        193,
        "single-error patterns must all appear within the budget"
    );
}

#[test]
fn damping_prefix_limits_the_enumerable_mass_exactly() {
    let plan = PresamplePlan::new(vec![
        passive(ErrorKind::Depolarizing, 0.2),
        SiteChannel::Damping {
            gamma: 0.5,
            p_decay: 0.5,
        },
        passive(ErrorKind::PhaseFlip, 0.25),
    ]);
    let enumerator = PatternEnumerator::new(&plan);
    // Prefix: depolarizing no-event (1 - 0.15) times damping keep (0.5).
    let expected = (1.0 - 0.15) * 0.5;
    assert!((enumerator.enumerable_mass() - expected).abs() < 1e-12);
    let (patterns, covered) = check_invariants(enumerator);
    // Only the trailing phase flip is free.
    assert_eq!(patterns.len(), 2);
    assert!((covered - expected).abs() < 1e-12);
}
