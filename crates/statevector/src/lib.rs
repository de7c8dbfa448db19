//! # qsdd-statevector — dense statevector baseline
//!
//! A straightforward array-based state-vector simulator. Every state over
//! `n` qubits is stored as `2^n` complex amplitudes and every gate sweeps
//! over the whole array.
//!
//! Within the QSDD workspace this crate is the stand-in for the dense
//! baseline simulators the paper compares against (IBM Qiskit's statevector
//! simulator and the Atos QLM LinAlg simulator): it has the same asymptotic
//! cost profile — Θ(2ⁿ) memory and Θ(2ⁿ) work per gate — independent of any
//! structure in the state. The comparison against the decision-diagram
//! back-end in `qsdd-core` therefore reproduces the *shape* of the paper's
//! Table I results.
//!
//! ## Quick start
//!
//! ```
//! use qsdd_circuit::generators::ghz;
//! use qsdd_statevector::run_noiseless;
//!
//! let state = run_noiseless(&ghz(3));
//! assert!((state.probability_of_index(0b000) - 0.5).abs() < 1e-12);
//! assert!((state.probability_of_index(0b111) - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod executor;
mod state;

pub use executor::{apply_unitary_operation, run_noiseless, run_with_measurements};
pub use state::{sample_cumulative, StateVector};
