//! Support library for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the tables of the paper's
//! evaluation section (Table Ia, Ib, Ic plus the thread-scaling
//! ablation); every other timing is a workload of the repository
//! benchmark (`qsdd_benchmark/`). This library holds the shared machinery:
//! per-cell execution with a wall-clock budget, the baseline/proposed
//! pairing, and table formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

use qsdd_circuit::Circuit;
use qsdd_core::{
    execute, BackendKind, Deadline, ExecMode, ExecPlan, OptLevel, Placement, ShotEngine, TimedOut,
};
use qsdd_noise::NoiseModel;

/// Which engine a table cell is measured with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The dense statevector baseline (the "Qiskit"/"QLM" columns). Like
    /// those simulators it evolves every run ([`ExecMode::PerShot`]), even
    /// though the statevector back-end could share trajectories too.
    Dense,
    /// The decision-diagram simulator (the "Proposed" column), sharing
    /// equal trajectories ([`ExecMode::Dedup`]).
    DecisionDiagram,
    /// Whichever of the two [`BackendKind::Auto`] resolves the job to,
    /// sharing trajectories like the proposed column.
    Auto,
}

impl Engine {
    /// Column label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Dense => "Dense baseline [s]",
            Engine::DecisionDiagram => "Proposed (DD) [s]",
            Engine::Auto => "auto [s]",
        }
    }
}

/// The result of measuring one table cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellOutcome {
    /// Completed within the budget; wall-clock seconds for the full shot
    /// count.
    Seconds(f64),
    /// Aborted: the run exceeded the wall-clock budget (seconds shown are
    /// the budget, mirroring the ">3600" entries of the paper).
    TimedOut(f64),
    /// Not attempted (e.g. the dense representation would not fit in
    /// memory).
    Skipped,
    /// The run panicked; the rest of the table still runs.
    Failed,
}

impl CellOutcome {
    /// Formats the cell like the paper's tables (`12.34`, `>60`, `-`).
    pub fn format(&self) -> String {
        match self {
            CellOutcome::Seconds(s) => format!("{s:.2}"),
            CellOutcome::TimedOut(budget) => format!(">{budget:.0}"),
            CellOutcome::Skipped => "-".to_string(),
            CellOutcome::Failed => "failed".to_string(),
        }
    }

    /// The measured seconds, if the cell completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            CellOutcome::Seconds(s) => Some(*s),
            _ => None,
        }
    }
}

/// What a completed cell's job did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellWork {
    /// The engine that ran the job (`auto` resolved).
    pub engine: BackendKind,
    /// Evolutions and shots run live (every shot on the per-shot path).
    pub evolutions: u64,
    /// Shots run live on their own.
    pub live_shots: u64,
    /// Peak decision-diagram node count (`0` on the statevector engine).
    pub peak_nodes: u64,
}

/// Configuration of a table regeneration run.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Stochastic runs per cell. The paper uses 30 000; the default here is
    /// far smaller so the tables regenerate in minutes — runtime scales
    /// linearly in this value (Section III), so the comparison shape is
    /// unchanged.
    pub shots: usize,
    /// Per-cell wall-clock budget.
    pub budget: Duration,
    /// Worker threads for the proposed simulator (0 = all cores).
    pub threads: usize,
    /// Largest qubit count attempted with the dense baseline.
    pub dense_limit: usize,
    /// Noise model applied after every gate.
    pub noise: NoiseModel,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            shots: 200,
            budget: Duration::from_secs(30),
            threads: 0,
            dense_limit: 22,
            noise: NoiseModel::paper_defaults(),
            seed: 2021,
        }
    }
}

impl HarnessConfig {
    /// Reads overrides from environment variables (`QSDD_SHOTS`,
    /// `QSDD_BUDGET_SECS`, `QSDD_THREADS`, `QSDD_DENSE_LIMIT`).
    pub fn from_env() -> Self {
        let mut config = HarnessConfig::default();
        if let Some(shots) = read_env("QSDD_SHOTS") {
            config.shots = shots;
        }
        if let Some(budget) = read_env("QSDD_BUDGET_SECS") {
            config.budget = Duration::from_secs(budget as u64);
        }
        if let Some(threads) = read_env("QSDD_THREADS") {
            config.threads = threads;
        }
        if let Some(limit) = read_env("QSDD_DENSE_LIMIT") {
            config.dense_limit = limit;
        }
        config
    }
}

fn read_env(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Measures one table cell: `shots` stochastic runs of `circuit` with the
/// selected engine, aborting once the wall-clock budget is exceeded.
///
/// A cell is one job — compile once, then every shot under one seed — run
/// under a [`Deadline`] of the budget, which the driver checks between
/// trajectories (like the 1-hour limit in the paper, the clock includes
/// compilation). A run that panics is reported as [`CellOutcome::Failed`].
pub fn run_cell(engine: Engine, circuit: &Circuit, config: &HarnessConfig) -> CellOutcome {
    measure_cell(engine, circuit, config).0
}

/// Measures one table cell like [`run_cell`], with what a completed job did.
pub fn measure_cell(
    engine: Engine,
    circuit: &Circuit,
    config: &HarnessConfig,
) -> (CellOutcome, Option<CellWork>) {
    if engine == Engine::Dense && circuit.num_qubits() > config.dense_limit {
        return (CellOutcome::Skipped, None);
    }
    let (backend, mode, threads) = match engine {
        Engine::Dense => (BackendKind::Statevector, ExecMode::PerShot, 1),
        Engine::DecisionDiagram => (
            BackendKind::DecisionDiagram,
            ExecMode::Dedup,
            config.threads,
        ),
        Engine::Auto => (BackendKind::Auto, ExecMode::Dedup, config.threads),
    };
    let (started, deadline) = (Instant::now(), Deadline::within(config.budget));
    let run = std::panic::catch_unwind(|| {
        let engine = ShotEngine::new(circuit, backend, config.noise, config.seed, OptLevel::O0);
        let plan = ExecPlan::new(mode, config.shots, &[]).with_deadline(deadline);
        execute(&engine, &plan, Placement::Threads(threads))
    });
    let seconds = started.elapsed().as_secs_f64();
    match run {
        Ok(Ok(outcome)) => {
            let shots = (outcome.shots as u64, outcome.shots as u64);
            let (evolutions, live_shots) = (outcome.dedup)
                .map_or(shots, |stats| (stats.unique_trajectories, stats.live_shots));
            let work = CellWork {
                engine: outcome.backend,
                evolutions,
                live_shots,
                peak_nodes: outcome.dd_nodes_peak,
            };
            (CellOutcome::Seconds(seconds), Some(work))
        }
        Ok(Err(TimedOut)) => (CellOutcome::TimedOut(config.budget.as_secs_f64()), None),
        Err(_) => (CellOutcome::Failed, None),
    }
}

/// Width of the label column: the longest label a table prints is Table
/// Ic's `multiplier_15 (15)`.
const LABEL_WIDTH: usize = 20;

/// One table line: the label and the five cells, each right-aligned in the
/// column the header and every row share.
fn table_line(label: &str, [dense, proposed, work, auto, speedup]: [&str; 5]) -> String {
    format!("{label:>LABEL_WIDTH$} {dense:>20} {proposed:>20} {work:>22} {auto:>16} {speedup:>10}")
}

/// Prints a table header with the standard columns, the decision-diagram
/// job's evolutions, live shots and peak nodes, and the `auto` cell.
pub fn print_header(first_column: &str) {
    println!("{}", header_line(first_column));
}

fn header_line(first_column: &str) -> String {
    table_line(
        first_column,
        [
            Engine::Dense.label(),
            Engine::DecisionDiagram.label(),
            "evolutions/live/peak",
            Engine::Auto.label(),
            "speedup",
        ],
    )
}

/// Prints one table row and returns the (baseline, proposed) outcomes.
pub fn print_row(
    label: &str,
    circuit: &Circuit,
    config: &HarnessConfig,
) -> (CellOutcome, CellOutcome) {
    let dense = run_cell(Engine::Dense, circuit, config);
    let (proposed, work) = measure_cell(Engine::DecisionDiagram, circuit, config);
    let (auto, auto_work) = measure_cell(Engine::Auto, circuit, config);
    let work = work.map_or("-".to_string(), |work| {
        format!(
            "{}/{}/{}",
            work.evolutions, work.live_shots, work.peak_nodes
        )
    });
    let auto = match auto_work {
        Some(work) => format!("{} {}", work.engine, auto.format()),
        None => auto.format(),
    };
    let speedup = match (dense.seconds(), proposed.seconds()) {
        (Some(a), Some(b)) if b > 0.0 => format!("{:.1}x", a / b),
        (None, Some(_)) => ">limit".to_string(),
        _ => "-".to_string(),
    };
    let cells = [&dense.format(), &proposed.format(), &work, &auto, &speedup];
    println!("{}", table_line(label, cells.map(String::as_str)));
    (dense, proposed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qasmbench_suite};

    #[test]
    fn rows_line_up_with_the_header() {
        // Every cell is right-aligned in a fixed width, so a line is as long
        // as the header exactly when no cell overflowed its column.
        let width = |line: String| line.chars().count();
        let header = width(header_line("benchmark (n)"));
        assert_eq!(width(header_line("qubits n")), header);
        let labels = (qasmbench_suite().into_iter())
            .map(|entry| format!("{} ({})", entry.name, entry.num_qubits))
            .chain(["64".to_string()]);
        for label in labels {
            let cells = [
                "3.64",
                "failed",
                "696826/305847/127",
                "dense 0.00",
                ">limit",
            ];
            assert_eq!(width(table_line(&label, cells)), header, "{label}");
        }
    }

    #[test]
    fn cell_outcome_formatting() {
        assert_eq!(CellOutcome::Seconds(1.234).format(), "1.23");
        assert_eq!(CellOutcome::TimedOut(60.0).format(), ">60");
        assert_eq!(CellOutcome::Skipped.format(), "-");
        assert_eq!(CellOutcome::Failed.format(), "failed");
        assert_eq!(CellOutcome::Seconds(2.0).seconds(), Some(2.0));
        assert_eq!(CellOutcome::Skipped.seconds(), None);
    }

    #[test]
    fn dense_cells_above_the_limit_are_skipped() {
        let config = HarnessConfig {
            shots: 1,
            dense_limit: 10,
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::Dense, &ghz(12), &config);
        assert_eq!(outcome, CellOutcome::Skipped);
    }

    #[test]
    fn small_cells_complete_within_budget() {
        let config = HarnessConfig {
            shots: 5,
            budget: Duration::from_secs(20),
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::DecisionDiagram, &ghz(8), &config);
        assert!(matches!(outcome, CellOutcome::Seconds(_)));
    }

    #[test]
    fn tiny_budget_reports_timeout() {
        let config = HarnessConfig {
            shots: 2000,
            budget: Duration::from_millis(1),
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::DecisionDiagram, &ghz(20), &config);
        assert!(matches!(outcome, CellOutcome::TimedOut(_)));
    }

    #[test]
    fn a_panicking_cell_fails_and_the_table_goes_on() {
        // QFT-64 under the paper noise samples from a zero vector (an
        // underflowing top weight); the next cell runs all the same.
        let config = HarnessConfig {
            shots: 20,
            threads: 1,
            ..HarnessConfig::default()
        };
        let outcome = run_cell(
            Engine::DecisionDiagram,
            &qsdd_circuit::generators::qft(64),
            &config,
        );
        assert_eq!(outcome, CellOutcome::Failed);
        let outcome = run_cell(Engine::DecisionDiagram, &ghz(8), &config);
        assert!(matches!(outcome, CellOutcome::Seconds(_)));
    }
}
