//! Helpers shared by the integration suites that drive a bare `DdPackage`.

use qsdd::circuit::Operation;
use qsdd::dd::{DdPackage, MatEdge};

/// The operator diagram of a unitary operation over `n` qubits, built like
/// the simulator's compile phase builds it.
///
/// # Panics
///
/// Panics on measurements, resets and barriers.
pub fn operation_diagram(dd: &mut DdPackage, n: usize, op: &Operation) -> MatEdge {
    match op {
        Operation::Gate {
            gate,
            target,
            controls,
        } => {
            let matrix = gate.matrix().expect("non-swap gates provide a matrix");
            dd.controlled_op(n, *target, controls, matrix)
        }
        Operation::Swap { a, b } => dd.swap_op(n, *a, *b),
        other => panic!("not a unitary operation: {other:?}"),
    }
}
