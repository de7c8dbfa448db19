//! Monte-Carlo property estimation and the Theorem 1 sample bound.
//!
//! The example estimates several quadratic observables of a noisy GHZ
//! circuit with the stochastic decision-diagram simulator and compares them
//! against the exact values from the density-matrix reference simulator.
//! The observed errors are then put side by side with the epsilon guaranteed
//! by Theorem 1 for the used number of samples.
//!
//! Run with `cargo run --release --example property_estimation`.

use qsdd::circuit::generators::ghz;
use qsdd::core::{sampling, BackendKind, Observable, StochasticSimulator};
use qsdd::density;
use qsdd::noise::NoiseModel;

fn main() {
    let qubits = 5;
    let circuit = ghz(qubits);
    let noise = NoiseModel::new(0.01, 0.02, 0.01); // exaggerated noise for visible effects

    // Exact reference: the full density matrix of the noisy computation.
    let exact = density::simulate(&circuit, &noise);
    let populations = exact.populations();

    // Observables: the probabilities of the two GHZ peaks and of qubit 0
    // being excited.
    let all_ones = (1u64 << qubits) - 1;
    let observables = vec![
        Observable::BasisProbability(0),
        Observable::BasisProbability(all_ones),
        Observable::QubitExcitation(0),
    ];
    let exact_values = [
        populations[0],
        populations[all_ones as usize],
        exact.probability_one(0),
    ];

    let delta = 0.05;
    println!("Theorem 1 sample bound (delta = {delta}):");
    for epsilon in [0.05, 0.02, 0.01] {
        let m = sampling::required_samples(observables.len(), epsilon, delta);
        println!("  epsilon = {epsilon:<5} -> M = {m}");
    }

    let shots = 4000;
    let epsilon = sampling::achievable_epsilon(shots, observables.len(), delta);
    println!("\nrunning M = {shots} samples (guaranteed epsilon = {epsilon:.4})\n");

    let simulator = StochasticSimulator::new()
        .with_backend(BackendKind::DecisionDiagram)
        .with_shots(shots)
        .with_noise(noise)
        .with_seed(99);
    let result = simulator.run_with_observables(&circuit, &observables);

    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "observable", "estimate", "exact", "abs error"
    );
    for ((observable, estimate), exact) in observables
        .iter()
        .zip(&result.observable_estimates)
        .zip(&exact_values)
    {
        println!(
            "{:<14} {:>12.5} {:>12.5} {:>12.5}",
            observable.label(),
            estimate,
            exact,
            (estimate - exact).abs()
        );
    }
    println!("\nall errors should lie below the guaranteed epsilon = {epsilon:.4}");
}
