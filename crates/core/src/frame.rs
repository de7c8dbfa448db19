//! Absorbed phase errors: the Z-frame pass.
//!
//! A Z error that stays diagonal (Zs, up to sign) through every later gate
//! until a computational-basis readout leaves populations, damping
//! thresholds `γ·P(q = 1)`, measurement probabilities and diagram sizes as
//! they were (the Pauli-frame argument, restricted to Z so that it holds
//! under amplitude damping). Such an error is counted, not evolved; a Y
//! there is `iXZ`, so only its X part is applied. Phase-reading observables
//! (a fidelity) and weighted enumeration run with an empty table.

use qsdd_circuit::{Circuit, Operation};

/// One flag per exposure site of `circuit` under `channels` channels, in
/// protocol order: whether a Z on the site's qubit right after its step is
/// absorbed. One backward pass from `A(q) = true`: each exposure reads the
/// `A` after its operation, which then updates it — a measurement or reset
/// sets `A(q)`, a swap exchanges two flags, a gate with a diagonal matrix
/// (any controls) or an uncontrolled anti-diagonal one keeps them, one with
/// an anti-diagonal matrix and one control `c` sets `A(t) &= A(c)` (a Z on
/// its target leaves as `Z_c Z_t`), any other clears its target's.
pub(crate) fn absorbing_sites(circuit: &Circuit, channels: usize) -> Vec<bool> {
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
            Operation::Gate { gate, .. } => {
                let [[a, b], [c, d]] = gate.matrix().expect("gates have matrices").0;
                let (diagonal, flips) = (b.is_zero() && c.is_zero(), a.is_zero() && d.is_zero());
                match op.qubits()[..] {
                    _ if diagonal => {}
                    [_] if flips => {}
                    [control, target] if flips => absorbs[target] &= absorbs[control],
                    [.., target] => absorbs[target] = false,
                    [] => unreachable!("a gate has a target"),
                }
            }
            Operation::Barrier => {}
        }
    }
    sites.reverse();
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};

    /// The flags of `circuit` with one channel: one per touched qubit of
    /// every unitary operation.
    fn flags(circuit: &Circuit) -> Vec<bool> {
        absorbing_sites(circuit, 1)
    }

    #[test]
    fn every_ghz_site_absorbs() {
        let sites = absorbing_sites(&ghz(8), 3);
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
}
