//! Absorbed phase errors: the Z-frame passes.
//!
//! A Z error is counted, not evolved, where it changes nothing a later
//! branch probability or the readout sees — at a site flagged by either:
//! - [`diagonal_to_readout`]: the Z stays diagonal (Zs, up to sign) through
//!   every later gate until a computational-basis readout, so populations,
//!   damping thresholds `γ·P(q = 1)`, measurement probabilities and diagram
//!   sizes are as they were (the Pauli-frame argument, restricted to Z so
//!   that it holds under amplitude damping);
//! - [`in_basis_state`]: the qubit is in a computational basis state in
//!   every trajectory, so the Z is `±1`, a global phase, and even the
//!   amplitudes are as they were.
//!
//! A Y at an absorbing site is `iXZ`, so only its X part is applied.
//! Phase-reading observables (a fidelity) and weighted enumeration run with
//! an empty table.

use qsdd_circuit::{Circuit, Gate, Operation};

/// One flag per exposure site of `circuit` under `channels` channels, in
/// protocol order: whether a Z on the site's qubit right after its step is
/// absorbed, by either rule.
pub(crate) fn absorbing_sites(circuit: &Circuit, channels: usize) -> Vec<bool> {
    let backward = diagonal_to_readout(circuit, channels);
    let both = std::iter::zip(backward, in_basis_state(circuit, channels));
    both.map(|(a, b)| a | b).collect()
}

/// How a gate's 2x2 matrix acts on a basis state of its target, up to a
/// phase: keeps it (diagonal), flips it (anti-diagonal), or neither.
enum Shape {
    Diagonal,
    AntiDiagonal,
    Other,
}

fn shape(gate: &Gate) -> Shape {
    let [[a, b], [c, d]] = gate.matrix().expect("gates have matrices").0;
    if b.is_zero() && c.is_zero() {
        Shape::Diagonal
    } else if a.is_zero() && d.is_zero() {
        Shape::AntiDiagonal
    } else {
        Shape::Other
    }
}

/// The backward rule, flags as in [`absorbing_sites`]. One backward pass
/// from `A(q) = true`: each exposure reads the `A` after its operation,
/// which then updates it — a measurement or reset sets `A(q)`, a swap
/// exchanges two flags, a diagonal gate (any controls) or an uncontrolled
/// anti-diagonal one keeps them, an anti-diagonal gate with one control `c`
/// sets `A(t) &= A(c)` (a Z on its target leaves as `Z_c Z_t`), any other
/// gate clears its target's.
fn diagonal_to_readout(circuit: &Circuit, channels: usize) -> Vec<bool> {
    let mut absorbs = vec![true; circuit.num_qubits()];
    let mut sites = Vec::new();
    for op in circuit.iter().rev() {
        if op.is_unitary() {
            for qubit in op.qubits().into_iter().rev() {
                sites.extend(std::iter::repeat_n(absorbs[qubit], channels));
            }
        }
        match op {
            Operation::Measure { qubit, .. } | Operation::Reset { qubit } => absorbs[*qubit] = true,
            Operation::Swap { a, b } => absorbs.swap(*a, *b),
            Operation::Gate { gate, target, .. } => match (shape(gate), &op.qubits()[..]) {
                (Shape::Diagonal, _) | (Shape::AntiDiagonal, [_]) => {}
                (Shape::AntiDiagonal, &[control, _]) => absorbs[*target] &= absorbs[control],
                _ => absorbs[*target] = false,
            },
            Operation::Barrier => {}
        }
    }
    sites.reverse();
    sites
}

/// The forward rule, flags as in [`absorbing_sites`]. One forward pass from
/// `B(q) = true` (every run starts in `|0…0>`): each operation updates `B`,
/// then its exposures read it — a measurement or reset sets `B(q)`, a swap
/// exchanges two flags, a diagonal gate (any controls) keeps them, an
/// anti-diagonal gate keeps its target's only while all its controls are in
/// a basis state, any other gate clears its target's. Errors never clear a
/// flag: Pauli and damping Kraus operators map basis states to basis states.
fn in_basis_state(circuit: &Circuit, channels: usize) -> Vec<bool> {
    let mut basis = vec![true; circuit.num_qubits()];
    let mut sites = Vec::new();
    for op in circuit {
        match op {
            Operation::Measure { qubit, .. } | Operation::Reset { qubit } => basis[*qubit] = true,
            Operation::Swap { a, b } => basis.swap(*a, *b),
            // Testing the target too changes nothing: a cleared flag stays so.
            Operation::Gate { gate, target, .. } => match shape(gate) {
                Shape::Diagonal => {}
                Shape::AntiDiagonal if op.qubits().iter().all(|&q| basis[q]) => {}
                _ => basis[*target] = false,
            },
            Operation::Barrier => {}
        }
        if op.is_unitary() {
            for qubit in op.qubits() {
                sites.extend(std::iter::repeat_n(basis[qubit], channels));
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};

    /// The backward flags of `circuit` with one channel: one per touched
    /// qubit of every unitary operation.
    fn flags(circuit: &Circuit) -> Vec<bool> {
        diagonal_to_readout(circuit, 1)
    }

    /// The forward flags of `circuit` with one channel.
    fn basis(circuit: &Circuit) -> Vec<bool> {
        in_basis_state(circuit, 1)
    }

    #[test]
    fn every_ghz_site_absorbs() {
        let sites = diagonal_to_readout(&ghz(8), 3);
        assert_eq!(sites.len(), 3 * (1 + 2 * 7));
        assert!(sites.iter().all(|&absorbs| absorbs));
    }

    #[test]
    fn a_qft_qubit_absorbs_only_after_its_own_hadamard() {
        let circuit = qft(5);
        let mut rotated = [false; 5];
        let mut expected = Vec::new();
        for op in &circuit {
            if let Operation::Gate { target, .. } = op {
                rotated[*target] |= op.qubits().len() == 1;
            }
            expected.extend(op.qubits().iter().map(|&qubit| rotated[qubit]));
        }
        assert_eq!(flags(&circuit), expected);
        assert!(expected.contains(&false) && expected.contains(&true));
    }

    #[test]
    fn a_cx_target_spreads_to_its_control() {
        let mut circuit = Circuit::new(2);
        circuit.cx(0, 1).h(1);
        // After the CX: its control's Z commutes to the end, its target's
        // meets the H.
        assert_eq!(flags(&circuit), [true, false, true]);
        let mut circuit = Circuit::new(2);
        circuit.h(1).cx(0, 1);
        assert_eq!(flags(&circuit), [true, true, true]);
        // Before a CX, the target's Z becomes `Z_c Z_t`: absorbed only
        // while the control's Z is; an H on the control ends that.
        let mut circuit = Circuit::new(2);
        circuit.x(1).cx(0, 1);
        assert_eq!(flags(&circuit), [true, true, true]);
        circuit.h(0);
        assert_eq!(flags(&circuit), [false, false, true, true]);
    }

    #[test]
    fn a_swap_moves_the_flag() {
        let mut circuit = Circuit::new(2);
        circuit.x(0).swap(0, 1).h(1);
        assert_eq!(flags(&circuit), [false, true, false, true]);
    }

    #[test]
    fn measurements_and_resets_absorb() {
        let mut circuit = Circuit::new(2);
        circuit.x(0).x(1).measure(0, 0).reset(1).h(0).h(1);
        assert_eq!(flags(&circuit), [true, true, true, true]);
        let mut circuit = Circuit::new(1);
        circuit.x(0).h(0).measure(0, 0);
        assert_eq!(flags(&circuit), [false, true]);
    }

    #[test]
    fn a_target_with_two_controls_does_not_absorb() {
        let mut circuit = Circuit::new(3);
        circuit.x(2).ccx(0, 1, 2);
        assert_eq!(flags(&circuit), [false, true, true, true]);
        // Diagonal gates keep the flag whatever their controls.
        let mut circuit = Circuit::new(3);
        circuit.x(2).cp(0.3, 0, 2).rz(0.2, 2);
        assert_eq!(flags(&circuit), [true; 4]);
    }

    #[test]
    fn every_qft_site_absorbs_by_exactly_one_rule() {
        // A cphase meets its control before that qubit's H (a basis state)
        // and its target after it (diagonal to the readout).
        let circuit = qft(5);
        let backward = flags(&circuit);
        let forward = basis(&circuit);
        assert!(backward.iter().zip(&forward).all(|(b, f)| b != f));
        assert!(absorbing_sites(&circuit, 2).iter().all(|&absorbs| absorbs));
    }

    #[test]
    fn a_cx_keeps_its_target_in_a_basis_state_only_under_a_basis_control() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).cx(0, 1);
        assert_eq!(basis(&circuit), [false, false, false]);
        let mut circuit = Circuit::new(2);
        circuit.x(0).cx(0, 1);
        assert_eq!(basis(&circuit), [true, true, true]);
    }

    #[test]
    fn diagonal_and_flip_gates_keep_a_basis_state_and_others_clear_it() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).cp(0.3, 0, 1).rz(0.2, 1).x(1);
        assert_eq!(basis(&circuit), [false, false, true, true, true]);
        // A controlled H clears its target even under a basis control.
        let mut circuit = Circuit::new(2);
        circuit.x(0).ch(0, 1);
        assert_eq!(basis(&circuit), [true, true, false]);
    }

    #[test]
    fn measurements_and_resets_restore_a_basis_state() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).h(1).measure(0, 0).reset(1).x(0).x(1);
        assert_eq!(basis(&circuit), [false, false, true, true]);
    }

    #[test]
    fn a_swap_moves_the_basis_flag() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).swap(0, 1).x(0).x(1);
        assert_eq!(basis(&circuit), [false, true, false, true, false]);
    }
}
