//! Empirical validation of Theorem 1: the Monte-Carlo estimates of quadratic
//! observables converge to the exact values within the guaranteed accuracy.

use qsdd::circuit::generators::ghz;
use qsdd::core::{sampling, BackendKind, Observable, StochasticSimulator};
use qsdd::density;
use qsdd::noise::NoiseModel;

#[test]
fn estimates_stay_within_the_theorem_1_epsilon() {
    let qubits = 4;
    let circuit = ghz(qubits);
    let noise = NoiseModel::new(0.01, 0.02, 0.01);

    let exact = density::simulate(&circuit, &noise);
    let populations = exact.populations();

    let all_ones = (1u64 << qubits) - 1;
    let observables = vec![
        Observable::BasisProbability(0),
        Observable::BasisProbability(all_ones),
        Observable::QubitExcitation(0),
        Observable::QubitExcitation(qubits - 1),
    ];
    let exact_values = [
        populations[0],
        populations[all_ones as usize],
        exact.probability_one(0),
        exact.probability_one(qubits - 1),
    ];

    // Choose the shot count from the theorem, delta = 0.05, for each
    // accuracy target and seed.
    let delta = 0.05;
    for (epsilon, seed) in [(0.05, 2024), (0.1, 7), (0.05, 7), (0.02, 7)] {
        let shots = sampling::required_samples(observables.len(), epsilon, delta);
        // M grows as 1 / epsilon^2: under 3 000 samples at epsilon = 0.05.
        assert!(
            shots as f64 * epsilon * epsilon < 3000.0 * 0.05 * 0.05,
            "bound unexpectedly large at epsilon {epsilon}: {shots}"
        );

        let result = StochasticSimulator::new()
            .with_backend(BackendKind::DecisionDiagram)
            .with_shots(shots)
            .with_noise(noise)
            .with_seed(seed)
            .run_with_observables(&circuit, &observables);

        for ((observable, estimate), exact) in observables
            .iter()
            .zip(&result.observable_estimates)
            .zip(&exact_values)
        {
            let error = (estimate - exact).abs();
            assert!(
                error <= epsilon,
                "{} (seed {seed}, M = {shots}): error {error:.4} exceeds epsilon {epsilon}",
                observable.label()
            );
        }
    }
}

#[test]
fn increasing_samples_reduces_the_error() {
    let circuit = ghz(3);
    let noise = NoiseModel::new(0.02, 0.04, 0.02);
    let exact = density::simulate(&circuit, &noise).populations()[0];
    let observable = vec![Observable::BasisProbability(0)];

    let mut errors = Vec::new();
    for shots in [50usize, 500, 5000] {
        // Average the absolute error over several seeds to smooth out luck.
        let mut total = 0.0;
        for seed in 0..4u64 {
            let result = StochasticSimulator::new()
                .with_backend(BackendKind::DecisionDiagram)
                .with_shots(shots)
                .with_noise(noise)
                .with_seed(seed)
                .run_with_observables(&circuit, &observable);
            total += (result.observable_estimates[0] - exact).abs();
        }
        errors.push(total / 4.0);
    }
    assert!(
        errors[2] < errors[0],
        "error did not shrink with more samples: {errors:?}"
    );
}

#[test]
fn sample_bound_matches_paper_configuration() {
    // The paper reports M = 30 000 samples for 1000 properties, error < 0.01
    // (we read this as roughly 0.013 given the stated confidence of 95 %).
    let m = sampling::required_samples(1000, 0.0129, 0.05);
    assert!((29_000..=32_000).contains(&m), "M = {m}");
    // And the corresponding achievable epsilon for 30 000 samples is ~0.013.
    let epsilon = sampling::achievable_epsilon(30_000, 1000, 0.05);
    assert!(epsilon < 0.0135 && epsilon > 0.012, "epsilon = {epsilon}");
}
