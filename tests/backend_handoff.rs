//! Both sides of the `auto` back-end's rule, fenced by outputs and counts.
//!
//! `BackendKind::Auto` compiles a job for decision diagrams and hands it to
//! the statevector engine when a state of its no-error walk reaches
//! `2^(n − 3)` nodes on at most 16 qubits. A handed-off job must be the
//! explicit dense job, and a job that stays must be the explicit DD job,
//! byte for byte; which side a job lands on is read off the engine, never
//! off a wall clock.

use qsdd::circuit::generators::{
    bernstein_vazirani, by_name, qasmbench_suite, qft, random_circuit, w_state,
};
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, ExecContext, ExecMode, ExecPlan, OptLevel, Placement, ShotEngine,
    StochasticOutcome, WeightedOptions,
};
use qsdd::noise::NoiseModel;

const SEED: u64 = 2021;
const BV_SECRET: u64 = 0x5555_5555_5555_5555;

fn engine(circuit: &Circuit, backend: BackendKind, noise: NoiseModel) -> ShotEngine {
    ShotEngine::new(circuit, backend, noise, SEED, OptLevel::O0)
}

fn run(engine: &ShotEngine, mode: ExecMode, shots: usize) -> StochasticOutcome {
    let plan = ExecPlan::new(mode, shots, &[]);
    execute(engine, &plan, Placement::Threads(2)).expect("no deadline is set")
}

fn suite_circuit(name: &str) -> Circuit {
    let entry = qasmbench_suite()
        .into_iter()
        .find(|entry| entry.name == name);
    entry.expect("a suite circuit").circuit
}

/// Runs `circuit` under `auto` and under `expected`, and asserts that `auto`
/// resolved to `expected` and reproduced its run in every deterministic
/// field. Returns the explicit run.
fn assert_resolves_to(
    circuit: &Circuit,
    noise: NoiseModel,
    expected: BackendKind,
    mode: ExecMode,
    shots: usize,
) -> StochasticOutcome {
    let auto = engine(circuit, BackendKind::Auto, noise);
    let name = circuit.name();
    assert_eq!(auto.backend_kind(), expected, "{name}");
    assert_eq!(
        auto.handoff().is_some(),
        expected == BackendKind::Statevector,
        "{name}"
    );
    let (auto, explicit) = (
        run(&auto, mode.clone(), shots),
        run(&engine(circuit, expected, noise), mode, shots),
    );
    assert_eq!(
        auto.backend, expected,
        "{name}: the report names the engine"
    );
    assert_eq!(auto.counts, explicit.counts, "{name}");
    assert_eq!(auto.error_events, explicit.error_events, "{name}");
    assert_eq!(auto.dd_nodes_peak, explicit.dd_nodes_peak, "{name}");
    let avg = |outcome: &StochasticOutcome| outcome.dd_nodes_avg.to_bits();
    assert_eq!(avg(&auto), avg(&explicit), "{name}");
    assert_eq!(auto.dedup, explicit.dedup, "{name}");
    explicit
}

#[test]
fn dense_state_jobs_run_on_amplitudes() {
    let noise = NoiseModel::paper_defaults();
    let random = random_circuit(7, 10, 2021);
    for (circuit, shots) in [
        (by_name("qaoa", 8).expect("a generator"), 500),
        (by_name("grover", 6).expect("a generator"), 300),
        (by_name("bv", 8).expect("a generator"), 300),
        (suite_circuit("vqe_uccsd_6"), 100),
        (random.clone(), 200),
    ] {
        assert_resolves_to(
            &circuit,
            noise,
            BackendKind::Statevector,
            ExecMode::Dedup,
            shots,
        );
    }
    let weighted = ExecMode::Weighted(WeightedOptions::default());
    assert_resolves_to(&random, noise, BackendKind::Statevector, weighted, 200);
}

#[test]
fn structured_jobs_stay_on_decision_diagrams() {
    let paper = NoiseModel::paper_defaults();
    // At damping 1 a keep zeroes the no-error state at the first excited
    // qubit, so the diagram never grows and the compile's walk must stop
    // there instead of measuring the zero vector.
    let certain_decay = NoiseModel::new(0.0, 1.0, 0.0);
    for (circuit, noise, shots) in [
        (qft(16), paper, 300),
        (bernstein_vazirani(12, BV_SECRET), paper, 500),
        (by_name("bv", 10).expect("a generator"), paper, 500),
        (suite_circuit("seca_11"), paper, 100),
        (suite_circuit("multiplier_15"), paper, 50),
        (w_state(24), paper, 200),
        (
            by_name("grover", 6).expect("a generator"),
            certain_decay,
            300,
        ),
    ] {
        let dd = assert_resolves_to(
            &circuit,
            noise,
            BackendKind::DecisionDiagram,
            ExecMode::Dedup,
            shots,
        );
        if noise == certain_decay {
            let dense = run(
                &engine(&circuit, BackendKind::Statevector, noise),
                ExecMode::Dedup,
                shots,
            );
            assert_eq!(dd.counts, dense.counts, "{}", circuit.name());
        }
    }
}

#[test]
fn a_handed_off_job_runs_no_decision_diagram_shot() {
    let qaoa = by_name("qaoa", 8).expect("a generator");
    let auto = engine(&qaoa, BackendKind::Auto, NoiseModel::paper_defaults());
    let mut ctx = ExecContext::new();
    let plan = ExecPlan::new(ExecMode::Dedup, 200, &[]);
    execute(&auto, &plan, Placement::Inline(&mut ctx)).expect("no deadline is set");
    assert_eq!(ctx.dd_table_stats(), Default::default());
    // Where the watch stopped: the first no-error state past 2^(8 - 3).
    let handoff = auto.handoff().expect("QAOA-8 goes dense");
    assert!(handoff.nodes >= 32, "{handoff:?}");
}
