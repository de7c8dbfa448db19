//! High-level facade over the back-ends and the Monte-Carlo runner.
//!
//! Most users interact with [`StochasticSimulator`]: pick a back-end, set
//! the shot count and noise model, and run circuits. The lower-level pieces
//! ([`crate::ShotEngine`], [`crate::execute`]) remain public for users who
//! need deadlines, their own contexts or their own aggregation.

use qsdd_circuit::Circuit;
use qsdd_noise::NoiseModel;
use qsdd_transpile::OptLevel;

use crate::estimator::Observable;
use crate::shot_engine::ShotEngine;
use crate::stochastic::{execute, ExecMode, ExecPlan, Placement, StochasticOutcome};
use crate::weighted::WeightedOptions;

/// Which simulation engine executes the individual runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Either engine, chosen per job when it compiles: the decision-diagram
    /// engine, unless a state of the job's no-error walk fills
    /// `2^-`[`AUTO_DENSITY`](Self::AUTO_DENSITY) (an eighth) of the state
    /// vector on at most [`AUTO_MAX_QUBITS`](Self::AUTO_MAX_QUBITS) qubits.
    #[default]
    Auto,
    /// The decision-diagram engine proposed by the paper.
    DecisionDiagram,
    /// The dense statevector baseline (Qiskit/QLM stand-in).
    Statevector,
}

impl BackendKind {
    /// The widest job [`Auto`](Self::Auto) may hand to the statevector
    /// engine; wider jobs always run on decision diagrams.
    pub const AUTO_MAX_QUBITS: usize = 16;

    /// `Auto`'s density threshold as a power of two: a job goes dense when a
    /// state of its no-error walk reaches `2^(n − AUTO_DENSITY)` nodes,
    /// 1/8 of the `2^n` amplitudes. A diagram that large costs a unique- and
    /// compute-table round trip per node where the dense kernels pay a
    /// plain slice loop; one that much smaller wins by sharing. Measured
    /// no-error peaks against the threshold under the paper's noise:
    /// Grover-6 15 vs 8 is the narrowest margin among jobs that go dense
    /// (QAOA-8 255 vs 32, random 7-qubit circuits 127 vs 16), measured
    /// BV-10 93 vs 128 and BV-12 189 vs 512 the narrowest among jobs that
    /// stay (GHZ-16 31 vs 8 192, QFT-16 16 vs 8 192).
    pub const AUTO_DENSITY: usize = 3;

    /// The widest circuit the engine executes: decision-diagram outcomes
    /// are `u64` basis indices, the dense buffer holds `2^n` amplitudes;
    /// `Auto` runs wide jobs on decision diagrams.
    pub fn max_qubits(self) -> usize {
        match self {
            BackendKind::Auto | BackendKind::DecisionDiagram => 64,
            BackendKind::Statevector => 30,
        }
    }

    /// The one-line reason a circuit of `qubits` qubits cannot run here, if
    /// it is wider than [`max_qubits`](Self::max_qubits). It names the
    /// engine that refuses: `auto` runs a job that wide on `dd`.
    pub fn check_width(self, qubits: usize) -> Result<(), String> {
        let engine = match self {
            BackendKind::Auto => BackendKind::DecisionDiagram,
            kind => kind,
        };
        let limit = engine.max_qubits();
        let refusal =
            || format!("{qubits} qubits exceed the `{engine}` back-end's limit of {limit}");
        (qubits <= limit).then_some(()).ok_or_else(refusal)
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    /// Parses the CLI/job-file spelling of a back-end (`auto`, `dd` or
    /// `dense`).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "auto" => Ok(BackendKind::Auto),
            "dd" | "decision-diagram" => Ok(BackendKind::DecisionDiagram),
            "dense" | "statevector" => Ok(BackendKind::Statevector),
            other => Err(format!(
                "unknown backend `{other}` (expected auto|dd|dense)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Auto => write!(f, "auto"),
            BackendKind::DecisionDiagram => write!(f, "dd"),
            BackendKind::Statevector => write!(f, "dense"),
        }
    }
}

/// A ready-to-use stochastic noise-aware quantum circuit simulator.
///
/// # Examples
///
/// ```
/// use qsdd_circuit::generators::ghz;
/// use qsdd_core::StochasticSimulator;
/// use qsdd_noise::NoiseModel;
///
/// let simulator = StochasticSimulator::new()
///     .with_shots(256)
///     .with_noise(NoiseModel::paper_defaults())
///     .with_seed(1);
/// let result = simulator.run(&ghz(8));
/// // The two GHZ peaks dominate even under realistic noise.
/// let all_ones = (1u64 << 8) - 1;
/// assert!(result.frequency(0) + result.frequency(all_ones) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct StochasticSimulator {
    backend: BackendKind,
    opt_level: OptLevel,
    shots: usize,
    threads: usize,
    seed: u64,
    noise: NoiseModel,
    weighted: Option<WeightedOptions>,
}

impl StochasticSimulator {
    /// Creates a simulator with the [`BackendKind::Auto`] back-end, the
    /// paper's noise model, 1024 shots on all available cores and no
    /// circuit optimization. Shots that make the same errors share one
    /// trajectory ([`ExecMode::Dedup`]).
    pub fn new() -> Self {
        StochasticSimulator {
            backend: BackendKind::default(),
            opt_level: OptLevel::O0,
            shots: 1024,
            threads: 0,
            seed: 0xD1CE_5EED,
            noise: NoiseModel::paper_defaults(),
            weighted: None,
        }
    }

    /// Selects the back-end.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the number of independent stochastic runs (samples).
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the number of worker threads (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the master seed; every shot derives its own generator from it,
    /// so results are reproducible and independent of the thread count.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the noise model applied after every gate.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Enables weighted enumeration (see [`crate::weighted`]): error
    /// patterns are enumerated in probability order and their exact
    /// outcome distributions weighted, with sampled shots covering only the
    /// residual mass. Falls back to deduplicated sampling when the circuit
    /// does not support enumeration.
    pub fn with_weighted(mut self, options: WeightedOptions) -> Self {
        self.weighted = Some(options);
        self
    }

    /// Sets the circuit-optimization level applied before the shot loop.
    ///
    /// The circuit is transpiled **once** (see [`qsdd_transpile`]); every
    /// stochastic run then executes the smaller circuit, so the savings
    /// multiply by the shot count. Results are reported in the original
    /// circuit's qubit order: outcomes and observables are remapped through
    /// the transpiler's output layout when trailing SWAPs were elided.
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The currently selected back-end.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The currently selected optimization level.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Runs the circuit and returns the aggregated measurement statistics.
    pub fn run(&self, circuit: &Circuit) -> StochasticOutcome {
        self.run_with_observables(circuit, &[])
    }

    /// Runs the circuit while additionally estimating the given quadratic
    /// observables (Section III of the paper).
    ///
    /// With an optimization level above [`OptLevel::O0`] the circuit is
    /// transpiled once before the shot loop; outcomes and observables are
    /// reported in the original circuit's qubit order regardless. For a
    /// [`Deadline`](crate::Deadline), an existing
    /// [`TranspileResult`](qsdd_transpile::TranspileResult) or a context of
    /// the caller's own, hand [`Self::engine`] to [`execute`] directly.
    pub fn run_with_observables(
        &self,
        circuit: &Circuit,
        observables: &[Observable],
    ) -> StochasticOutcome {
        let mode = (self.weighted.clone()).map_or(ExecMode::Dedup, ExecMode::Weighted);
        let plan = ExecPlan::new(mode, self.shots, observables);
        execute(
            &self.engine(circuit),
            &plan,
            Placement::Threads(self.threads),
        )
        .expect("an unbounded deadline never expires")
    }

    /// Builds the re-entrant [`ShotEngine`] this simulator would execute
    /// `circuit` on (transpiling at the configured opt level).
    ///
    /// The engine is the shareable execution primitive: the batch scheduler
    /// pulls single shots from it, while [`Self::run`] hands it to the job
    /// driver. Either way, shot `i` yields the same sample.
    pub fn engine(&self, circuit: &Circuit) -> ShotEngine {
        ShotEngine::new(circuit, self.backend, self.noise, self.seed, self.opt_level)
    }
}

impl Default for StochasticSimulator {
    fn default() -> Self {
        StochasticSimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{Deadline, TimedOut};
    use qsdd_circuit::generators::{ghz, qft};
    use qsdd_circuit::Circuit;

    #[test]
    fn facade_runs_both_backends() {
        let circuit = ghz(5);
        for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
            let simulator = StochasticSimulator::new()
                .with_backend(backend)
                .with_shots(100)
                .with_seed(2)
                .with_threads(2);
            let outcome = simulator.run(&circuit);
            assert_eq!(outcome.shots, 100);
            let total: u64 = outcome.counts.values().sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn qft_of_zero_state_gives_nearly_uniform_outcomes() {
        let simulator = StochasticSimulator::new()
            .with_shots(2000)
            .with_noise(NoiseModel::noiseless())
            .with_seed(3);
        let outcome = simulator.run(&qft(3));
        // Eight outcomes, each with probability 1/8.
        for index in 0..8u64 {
            let freq = outcome.frequency(index);
            assert!(
                (freq - 0.125).abs() < 0.05,
                "outcome {index} frequency {freq}"
            );
        }
    }

    #[test]
    fn observables_are_estimated_through_the_facade() {
        let simulator = StochasticSimulator::new()
            .with_shots(200)
            .with_noise(NoiseModel::noiseless())
            .with_seed(5);
        let outcome = simulator.run_with_observables(&ghz(4), &[Observable::QubitExcitation(0)]);
        assert!((outcome.observable_estimates[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn opt_levels_preserve_noiseless_statistics() {
        // qft(3) ends in a trailing swap that O2 elides, exercising the
        // outcome-remapping path end to end.
        let run = |level: OptLevel| {
            StochasticSimulator::new()
                .with_shots(2000)
                .with_noise(NoiseModel::noiseless())
                .with_seed(3)
                .with_opt_level(level)
                .run(&qft(3))
        };
        let baseline = run(OptLevel::O0);
        let optimized = run(OptLevel::O2);
        for index in 0..8u64 {
            let diff = (baseline.frequency(index) - optimized.frequency(index)).abs();
            assert!(diff < 0.05, "outcome {index} drifted by {diff}");
            assert!((optimized.frequency(index) - 0.125).abs() < 0.05);
        }
    }

    #[test]
    fn opt_level_remaps_observables_through_the_layout() {
        // Prepare |1> on qubit 1 only, then swap it onto qubit 2 at the very
        // end: O2 elides the swap and must still report qubit 2 as excited.
        let mut circuit = Circuit::new(3);
        circuit.x(1).swap(1, 2);
        let observables = [
            Observable::QubitExcitation(1),
            Observable::QubitExcitation(2),
            Observable::BasisProbability(0b001),
        ];
        for level in [OptLevel::O0, OptLevel::O2] {
            let outcome = StochasticSimulator::new()
                .with_shots(50)
                .with_noise(NoiseModel::noiseless())
                .with_seed(4)
                .with_opt_level(level)
                .run_with_observables(&circuit, &observables);
            assert!(
                (outcome.observable_estimates[0] - 0.0).abs() < 1e-9,
                "{level}"
            );
            assert!(
                (outcome.observable_estimates[1] - 1.0).abs() < 1e-9,
                "{level}"
            );
            assert!(
                (outcome.observable_estimates[2] - 1.0).abs() < 1e-9,
                "{level}"
            );
            assert!((outcome.frequency(0b001) - 1.0).abs() < 1e-12, "{level}");
        }
    }

    #[test]
    fn opt_level_accessor_round_trips() {
        let simulator = StochasticSimulator::new().with_opt_level(OptLevel::O1);
        assert_eq!(simulator.opt_level(), OptLevel::O1);
        assert_eq!(StochasticSimulator::new().opt_level(), OptLevel::O0);
    }

    #[test]
    fn expired_deadlines_time_out_every_mode() {
        use std::time::Duration;
        let engine = StochasticSimulator::new().with_seed(2).engine(&ghz(5));
        let spent = Deadline::within(Duration::ZERO);
        for mode in [
            ExecMode::Dedup,
            ExecMode::PerShot,
            ExecMode::Weighted(WeightedOptions::default()),
        ] {
            let plan = ExecPlan::new(mode, 200, &[]).with_deadline(spent.clone());
            let result = execute(&engine, &plan, Placement::Threads(0));
            assert_eq!(result.unwrap_err(), TimedOut);
        }
    }

    #[test]
    fn generous_deadlines_match_unbounded_runs_exactly() {
        use std::time::Duration;
        let circuit = ghz(6);
        let simulator = StochasticSimulator::new()
            .with_shots(300)
            .with_seed(7)
            .with_threads(2);
        let unbounded = simulator.run(&circuit);
        let plan = ExecPlan::new(ExecMode::Dedup, 300, &[])
            .with_deadline(Deadline::within(Duration::from_secs(600)));
        let bounded = execute(&simulator.engine(&circuit), &plan, Placement::Threads(2))
            .expect("a ten-minute budget outlives a 300-shot GHZ");
        assert_eq!(bounded.counts, unbounded.counts);
        assert_eq!(bounded.error_events, unbounded.error_events);
    }

    #[test]
    fn noise_spreads_probability_beyond_the_ideal_peaks() {
        let noiseless = StochasticSimulator::new()
            .with_shots(1500)
            .with_noise(NoiseModel::noiseless())
            .with_seed(8)
            .run(&ghz(10));
        let noisy = StochasticSimulator::new()
            .with_shots(1500)
            .with_noise(NoiseModel::new(0.01, 0.02, 0.01))
            .with_seed(8)
            .run(&ghz(10));
        let all_ones = (1u64 << 10) - 1;
        let ideal_mass = |o: &StochasticOutcome| o.frequency(0) + o.frequency(all_ones);
        assert!((ideal_mass(&noiseless) - 1.0).abs() < 1e-12);
        assert!(ideal_mass(&noisy) < ideal_mass(&noiseless));
    }
}
