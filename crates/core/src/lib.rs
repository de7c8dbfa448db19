//! # qsdd-core — stochastic quantum circuit simulation using decision diagrams
//!
//! This crate implements the contribution of Grurl, Kueng, Fuß and Wille,
//! *Stochastic Quantum Circuit Simulation Using Decision Diagrams*
//! (DATE 2021):
//!
//! 1. **Decision diagrams for individual simulation runs** — every stochastic
//!    run represents the state and the applied operators as decision diagrams
//!    (via `qsdd-dd`), which keeps structured states compact and lets noisy
//!    simulations scale to dozens of qubits ([`DdSimulator`]).
//! 2. **Concurrency across simulation runs** — the one job driver
//!    ([`execute`]) spreads the independent runs of an [`ExecPlan`] over
//!    worker threads and merges histograms and observable estimates.
//!
//! Shot execution follows a **compile / execute** split: a circuit + noise
//! model pair is compiled once into an immutable program (operator
//! diagrams, noise tables resolved up front), and every shot replays that
//! program against a reusable per-worker execution context that is rewound
//! — not rebuilt — between shots. See [`StochasticBackend`] and
//! [`ShotEngine`].
//!
//! On top of the compiled pipeline sits **trajectory deduplication**
//! ([`dedup`]): every shot's error decisions are presampled up front,
//! shots are grouped by their error pattern, and each distinct trajectory
//! is simulated once — turning the hot path from `O(shots × circuit)` into
//! `O(unique_patterns × circuit + shots × sampling)` while staying
//! byte-identical to per-shot execution.
//!
//! The dense [`DenseSimulator`] back-end executes the identical stochastic
//! protocol on flat amplitude arrays and serves as the baseline
//! (Qiskit / Atos QLM stand-in) for the benchmark harness.
//!
//! ## Quick start
//!
//! ```
//! use qsdd_circuit::generators::ghz;
//! use qsdd_core::{sampling, Observable, StochasticSimulator};
//! use qsdd_noise::NoiseModel;
//!
//! // How many samples do we need for 10 properties at 5 % accuracy?
//! let shots = sampling::required_samples(10, 0.05, 0.05).min(2000);
//!
//! let simulator = StochasticSimulator::new()
//!     .with_shots(shots)
//!     .with_noise(NoiseModel::paper_defaults())
//!     .with_seed(42);
//! let result = simulator.run_with_observables(
//!     &ghz(6),
//!     &[Observable::BasisProbability(0), Observable::QubitExcitation(3)],
//! );
//! assert!(result.observable_estimates[0] > 0.4);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod dd_backend;
pub mod deadline;
mod decisions;
pub mod dedup;
pub mod dense_backend;
pub mod estimator;
mod frame;
pub mod fxhash;
pub mod sampling;
pub mod shot_engine;
pub mod simulator;
pub mod stochastic;
pub mod weighted;

pub use backend::{SingleRun, StochasticBackend};
pub use dd_backend::{DdContext, DdProgram, DdRunState, DdSimulator, Handoff};
pub use deadline::{Deadline, TimedOut};
pub use dedup::{DedupPartial, DedupStats, DedupSupport, TrajectoryWork};
pub use dense_backend::{DenseContext, DenseProgram, DenseSimulator};
pub use estimator::{Observable, ObservableAccumulator};
pub use shot_engine::{ExecContext, ShotEngine, ShotSample};
pub use simulator::{BackendKind, StochasticSimulator};
pub use stochastic::{
    execute, resolve_threads, run_lanes, ExecMode, ExecPlan, Placement, StochasticOutcome,
};
pub use weighted::{WeightedOptions, WeightedStats, MAX_WEIGHTED_QUBITS};
// Re-exported so `StochasticSimulator::with_opt_level` is usable without a
// direct `qsdd-transpile` dependency.
pub use qsdd_transpile::OptLevel;
// Re-exported so consumers of `StochasticOutcome::stage_timings` can name
// the types without a direct `qsdd-telemetry` dependency.
pub use qsdd_telemetry::{Stage, StageTimings};
