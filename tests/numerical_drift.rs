//! Numerical drift of the tolerance-interned arithmetic (ROADMAP
//! "numerics").
//!
//! Vector addition factors one operand's weight out and multiplies it back
//! in, a divide/multiply round trip through the complex table per level.
//! These tests pin that the round trip costs no accuracy: a long unitary
//! round trip returns to its start, and random circuits with long-range
//! SWAPs and Hadamards agree with the dense simulator amplitude by
//! amplitude, also across a mid-circuit error and damping exposure.

mod common;

use common::operation_diagram;
use qsdd::circuit::generators::qft;
use qsdd::circuit::Circuit;
use qsdd::core::DdSimulator;
use qsdd::dd::{DdPackage, Matrix2};
use qsdd::statevector::{apply_unitary_operation, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn qft16_round_trips_keep_norm_and_fidelity() {
    let n = 16;
    let forward = qft(n);
    let backward = forward.inverse();
    let mut circuit = Circuit::new(n);
    for _ in 0..4 {
        circuit.append(&forward);
        circuit.append(&backward);
    }
    let mut run = DdSimulator::new().simulate_noiseless(&circuit);
    let norm = run.package.norm_sqr(run.state);
    assert!((norm - 1.0).abs() < 1e-9, "norm drifted to {norm}");
    let start = run.package.zero_state(n);
    let fidelity = run.package.fidelity(start, run.state);
    assert!((fidelity - 1.0).abs() < 1e-9, "fidelity fell to {fidelity}");
}

/// A random 8-qubit circuit whose two-qubit gates, SWAPs included, pick
/// their operands anywhere in the register.
fn random_circuit(rng: &mut StdRng) -> Circuit {
    const N: usize = 8;
    let mut circuit = Circuit::new(N);
    for _ in 0..40 {
        let a = rng.gen_range(0..N);
        let b = (a + rng.gen_range(1..N)) % N;
        let angle = rng.gen_range(-3.2..3.2);
        match rng.gen_range(0..7) {
            0 | 1 => circuit.h(a),
            2 => circuit.rz(angle, a),
            3 => circuit.ry(angle, a),
            4 => circuit.cp(angle, a, b),
            5 => circuit.cx(a, b),
            _ => circuit.swap(a, b),
        };
    }
    circuit
}

#[test]
fn random_long_range_circuits_agree_with_the_dense_simulator() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..50 {
        let circuit = random_circuit(&mut rng);
        let n = circuit.num_qubits();
        let (flipped, damped) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let keep = Matrix2::amplitude_damping_a1(0.3);
        for noisy in [false, true] {
            let mut dd = DdPackage::new();
            let mut state = dd.zero_state(n);
            let mut dense = StateVector::new(n);
            for (index, op) in circuit.iter().enumerate() {
                let diagram = operation_diagram(&mut dd, n, op);
                state = dd.mat_vec_mul(diagram, state);
                apply_unitary_operation(&mut dense, op);
                if noisy && index == circuit.len() / 2 {
                    // A bit-flip error, then a damping exposure that did
                    // not decay: the renormalised keep branch.
                    let flip = dd.single_qubit_op(n, flipped, Matrix2::pauli_x());
                    state = dd.mat_vec_mul(flip, state);
                    dense.apply_single(flipped, &Matrix2::pauli_x());
                    let keep_op = dd.single_qubit_op(n, damped, keep);
                    state = dd.apply_kraus(keep_op, state).1;
                    dense.apply_single(damped, &keep);
                    dense.normalize();
                }
            }
            let amplitudes = dd.to_statevector(state, n);
            for (index, (got, want)) in amplitudes.iter().zip(dense.amplitudes()).enumerate() {
                assert!(
                    got.approx_eq(*want, 1e-9),
                    "case {case} noisy={noisy} amplitude {index}: {got:?} vs {want:?}"
                );
            }
        }
    }
}
