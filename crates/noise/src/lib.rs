//! # qsdd-noise — error channels and noise models
//!
//! Quantum hardware is noisy: gates are imperfect (depolarizing errors) and
//! qubits decohere over time (amplitude damping / T1 and phase flip / T2).
//! This crate describes those errors in two equivalent ways:
//!
//! * as **Kraus operators** (used by the exact density-matrix reference
//!   simulator in `qsdd-density`), and
//! * as **stochastic events** sampled per gate application (used by the
//!   Monte-Carlo simulators in `qsdd-core` and `qsdd-statevector`, following
//!   Section III of the paper).
//!
//! The stochastic side draws one uniform per *candidate* event rather than
//! one per exposure: a shot's candidates follow from a precomputed
//! [`Survival`] array, and only a candidate draws again to decide what it
//! fires. On top of it, the [`presample`] module splits error *sampling*
//! from error *application*: a shot's complete error decisions are
//! resolved up front into a compact [`ErrorPattern`], which is what enables
//! trajectory deduplication — simulating each distinct pattern once and
//! fanning the result out over every shot that drew it.
//!
//! ## Quick start
//!
//! ```
//! use qsdd_noise::{ErrorKind, NoiseModel, StochasticAction};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = NoiseModel::paper_defaults();
//! let mut rng = StdRng::seed_from_u64(0);
//! for channel in model.channels() {
//!     match channel.sample_action(&mut rng) {
//!         StochasticAction::None => {}
//!         StochasticAction::Unitary(_) => { /* apply the error unitary */ }
//!         StochasticAction::Kraus(branches) => assert_eq!(branches.len(), 2),
//!     }
//!     let _ = channel.kind() == ErrorKind::PhaseFlip;
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod channels;
pub mod enumerate;
mod model;
pub mod presample;

pub use channels::{decay_bound, ErrorChannel, ErrorKind, StochasticAction};
pub use enumerate::{PatternEnumerator, WeightedPattern};
pub use model::NoiseModel;
pub use presample::{ErrorEvent, ErrorPattern, PresamplePlan, Presampled, SiteChannel, Survival};
