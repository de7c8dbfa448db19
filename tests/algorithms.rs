//! Algorithm-level correctness tests: the generated benchmark circuits do
//! what the algorithms they model promise, when simulated noiselessly.

use qsdd::circuit::generators::{
    bernstein_vazirani, deutsch_jozsa, draper_adder, ghz, grover, qaoa_maxcut_ring,
    ring_graph_state, w_state,
};
use qsdd::core::{DdSimulator, StochasticSimulator};
use qsdd::noise::NoiseModel;

fn noiseless(shots: usize) -> StochasticSimulator {
    StochasticSimulator::new()
        .with_shots(shots)
        .with_noise(NoiseModel::noiseless())
        .with_seed(17)
}

#[test]
fn deutsch_jozsa_distinguishes_constant_from_balanced() {
    // Constant oracle: all data qubits measure 0 in every run.
    let constant = noiseless(100).run(&deutsch_jozsa(6, false));
    assert_eq!(constant.frequency(0), 1.0);

    // Balanced oracle: the all-zero data outcome never occurs.
    let balanced = noiseless(100).run(&deutsch_jozsa(6, true));
    assert_eq!(balanced.frequency(0), 0.0);
}

#[test]
fn bernstein_vazirani_recovers_the_hidden_string() {
    let hidden = 0b01101u64;
    let n = 6; // 5 data qubits + ancilla
    let circuit = bernstein_vazirani(n, hidden);
    let result = noiseless(50).run(&circuit);
    // The classical register holds the hidden string: clbit q equals bit q of
    // `hidden`, and clbit 0 is the most significant bit of the outcome.
    let expected = (0..n - 1).fold(0u64, |acc, q| (acc << 1) | ((hidden >> q) & 1)) << 1; // the ancilla clbit (last, least significant) stays 0
    assert_eq!(
        result.frequency(expected),
        1.0,
        "expected outcome {expected:b}, histogram {:?}",
        result.counts
    );
}

#[test]
fn grover_amplifies_the_marked_state() {
    let marked = 0b1011u64;
    let circuit = grover(4, marked, None);
    let result = noiseless(300).run(&circuit);
    // With the optimal iteration count the marked state dominates strongly.
    assert!(
        result.frequency(marked) > 0.9,
        "marked-state frequency {}",
        result.frequency(marked)
    );
}

#[test]
fn draper_adder_adds_the_constant() {
    for (bits, addend) in [(3usize, 1u64), (3, 5), (4, 7), (4, 15)] {
        let circuit = draper_adder(bits, addend);
        let result = noiseless(50).run(&circuit);
        let expected = addend % (1u64 << bits);
        assert!(
            result.frequency(expected) > 0.99,
            "{bits}-bit adder of {addend}: histogram {:?}",
            result.counts
        );
    }
}

#[test]
fn w_state_has_exactly_one_excitation_per_outcome() {
    let n = 7;
    let circuit = w_state(n);
    let result = noiseless(500).run(&circuit);
    for &outcome in result.counts.keys() {
        assert_eq!(
            outcome.count_ones(),
            1,
            "W-state outcome {outcome:b} does not have exactly one excitation"
        );
    }
    // All n outcomes appear with roughly equal frequency 1/n.
    for q in 0..n {
        let outcome = 1u64 << q;
        let freq = result.frequency(outcome);
        assert!(
            (freq - 1.0 / n as f64).abs() < 0.08,
            "outcome {outcome:b} frequency {freq}"
        );
    }
}

#[test]
fn ghz_under_noise_keeps_most_mass_on_the_peaks() {
    let circuit = ghz(30);
    let result = StochasticSimulator::new()
        .with_shots(400)
        .with_noise(NoiseModel::paper_defaults())
        .with_seed(3)
        .run(&circuit);
    let peak = result.frequency(0) + result.frequency((1u64 << 30) - 1);
    // 30 gates at ~0.4 % total error per gate-qubit leave most runs error-free.
    assert!(peak > 0.7, "peak mass {peak}");
    assert!(peak < 1.0, "some noise should be visible at 400 shots");
}

#[test]
fn graph_state_diagrams_stay_small() {
    let circuit = ring_graph_state(20);
    let nodes = DdSimulator::new().simulate_noiseless(&circuit).node_count();
    // Ring graph states have bounded-width decision diagrams.
    assert!(nodes <= 4 * 20, "graph state DD has {nodes} nodes");
}

#[test]
fn qaoa_histogram_is_valid_distribution() {
    let circuit = qaoa_maxcut_ring(8, &[(0.4, 0.9), (0.7, 0.3)]);
    let result = noiseless(300).run(&circuit);
    let total: u64 = result.counts.values().sum();
    assert_eq!(total, 300);
    // The uniform-superposition start plus mixing keeps many outcomes alive.
    assert!(result.counts.len() > 10);
}
