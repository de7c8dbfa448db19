//! # qsdd-dd — decision diagrams for quantum simulation
//!
//! This crate implements the decision diagram (DD) package underlying the
//! stochastic quantum circuit simulator of Grurl et al., *Stochastic Quantum
//! Circuit Simulation Using Decision Diagrams* (DATE 2021).
//!
//! Quantum states (`2^n` amplitude vectors) and quantum operations
//! (`2^n x 2^n` unitary or Kraus matrices) are represented as rooted, edge-
//! weighted decision diagrams:
//!
//! * a **vector node** splits the amplitude vector on one qubit into the
//!   `|0>` and `|1>` halves,
//! * a **matrix node** splits an operator into four quadrants,
//! * identical sub-diagrams are stored once (hash-consing through unique
//!   tables), and common factors are pulled into edge weights, which are
//!   interned in a tolerance-bucketed [`ComplexTable`].
//!
//! On structured states (GHZ, QFT outputs, basis states, product states) the
//! representation is linear in the number of qubits rather than exponential,
//! which is what the paper exploits to scale stochastic noise simulation to
//! dozens of qubits.
//!
//! ## Quick start
//!
//! ```
//! use qsdd_dd::{DdPackage, Matrix2};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Build a Bell state and sample a measurement from it.
//! let mut dd = DdPackage::new();
//! let state = dd.zero_state(2);
//! let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
//! let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
//! let state = dd.mat_vec_mul(h, state);
//! let state = dd.mat_vec_mul(cx, state);
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let outcome = dd.sample_measurement(state, 2, &mut rng);
//! assert!(outcome == 0b00 || outcome == 0b11);
//! ```
//!
//! The crate deliberately exposes a low-level API (states are [`VecEdge`]
//! handles tied to a [`DdPackage`]); the `qsdd-core` crate wraps it in the
//! circuit-level simulator described in the paper.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod complex;
mod complex_table;
mod export;
mod layered;
mod measure;
mod node;
mod ops;
mod package;

pub mod fxhash;
pub mod matrix2;

pub use complex::{Complex, FRAC_1_SQRT_2};
pub use complex_table::{ComplexId, ComplexTable, DEFAULT_TOLERANCE};
pub use matrix2::Matrix2;
pub use measure::SamplePlan;
pub use node::{MatEdge, MatNode, MatNodeId, VecEdge, VecNode, VecNodeId};
pub use package::{
    Checkpoint, DdPackage, MatrixMark, PackageStats, TableStats, DEFAULT_CACHE_LIMIT,
};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<DdPackage>();
        assert_sync::<DdPackage>();
        assert_send::<VecEdge>();
        assert_send::<MatEdge>();
        assert_send::<Complex>();
    }

    #[test]
    fn edges_and_cached_results_stay_eight_bytes() {
        // Scratch values are tagged ids, not inline weights: the multiply
        // and add caches store `VecEdge`s.
        assert_eq!(std::mem::size_of::<ComplexId>(), 4);
        assert_eq!(std::mem::size_of::<VecEdge>(), 8);
        assert_eq!(std::mem::size_of::<MatEdge>(), 8);
    }
}
