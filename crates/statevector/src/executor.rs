//! Noiseless circuit execution on dense state vectors.
//!
//! The stochastic (noisy) execution loop for this back-end lives in
//! `qsdd-core`, which drives both the decision diagram and the dense
//! back-end through the same Monte-Carlo runner. The helpers here are used
//! for noiseless reference runs and for tests.

use qsdd_circuit::{Circuit, Operation};

use crate::state::StateVector;

/// Runs the unitary part of a circuit on `|0...0>` without noise, ignoring
/// measurements, resets and barriers, and returns the final state.
///
/// # Panics
///
/// Panics if the circuit is wider than 30 qubits (dense limit).
pub fn run_noiseless(circuit: &Circuit) -> StateVector {
    let mut state = StateVector::new(circuit.num_qubits());
    for op in circuit {
        apply_unitary_operation(&mut state, op);
    }
    state
}

/// Applies one unitary circuit operation to a dense state. Measurements,
/// resets and barriers are ignored.
pub fn apply_unitary_operation(state: &mut StateVector, op: &Operation) {
    match op {
        Operation::Gate {
            gate,
            target,
            controls,
        } => {
            let m = gate
                .matrix()
                .expect("non-swap gates always provide a matrix");
            state.apply_controlled(controls, *target, &m);
        }
        Operation::Swap { a, b } => state.apply_swap(*a, *b),
        Operation::Measure { .. } | Operation::Reset { .. } | Operation::Barrier => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};

    #[test]
    fn ghz_state_has_two_equal_peaks() {
        let state = run_noiseless(&ghz(4));
        assert!((state.probability_of_index(0) - 0.5).abs() < 1e-12);
        assert!((state.probability_of_index(15) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qft_of_zero_state_is_uniform() {
        let state = run_noiseless(&qft(4));
        for i in 0..16u64 {
            assert!((state.probability_of_index(i) - 1.0 / 16.0).abs() < 1e-10);
        }
    }

    #[test]
    fn norm_is_preserved_by_noiseless_execution() {
        let state = run_noiseless(&qsdd_circuit::generators::random_circuit(6, 8, 3));
        assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
