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

fn engine(circuit: &Circuit, backend: BackendKind) -> ShotEngine {
    let noise = NoiseModel::paper_defaults();
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
/// field.
fn assert_resolves_to(circuit: &Circuit, expected: BackendKind, mode: ExecMode, shots: usize) {
    let auto = engine(circuit, BackendKind::Auto);
    let name = circuit.name();
    assert_eq!(auto.backend_kind(), expected, "{name}");
    assert_eq!(
        auto.handoff().is_some(),
        expected == BackendKind::Statevector,
        "{name}"
    );
    let (auto, explicit) = (
        run(&auto, mode.clone(), shots),
        run(&engine(circuit, expected), mode, shots),
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
}

#[test]
fn dense_state_jobs_run_on_amplitudes() {
    let random = random_circuit(7, 10, 2021);
    for (circuit, shots) in [
        (by_name("qaoa", 8).expect("a generator"), 500),
        (by_name("grover", 6).expect("a generator"), 300),
        (by_name("bv", 8).expect("a generator"), 300),
        (suite_circuit("vqe_uccsd_6"), 100),
        (random.clone(), 200),
    ] {
        assert_resolves_to(&circuit, BackendKind::Statevector, ExecMode::Dedup, shots);
    }
    let weighted = ExecMode::Weighted(WeightedOptions::default());
    assert_resolves_to(&random, BackendKind::Statevector, weighted, 200);
}

#[test]
fn structured_jobs_stay_on_decision_diagrams() {
    for (circuit, shots) in [
        (qft(16), 300),
        (bernstein_vazirani(12, BV_SECRET), 500),
        (by_name("bv", 10).expect("a generator"), 500),
        (suite_circuit("seca_11"), 100),
        (suite_circuit("multiplier_15"), 50),
        (w_state(24), 200),
    ] {
        assert_resolves_to(
            &circuit,
            BackendKind::DecisionDiagram,
            ExecMode::Dedup,
            shots,
        );
    }
}

#[test]
fn a_handed_off_job_runs_no_decision_diagram_shot() {
    let auto = engine(&by_name("qaoa", 8).expect("a generator"), BackendKind::Auto);
    let mut ctx = ExecContext::new();
    let plan = ExecPlan::new(ExecMode::Dedup, 200, &[]);
    execute(&auto, &plan, Placement::Inline(&mut ctx)).expect("no deadline is set");
    assert_eq!(ctx.dd_table_stats(), Default::default());
    // Where the watch stopped: the first no-error state past 2^(8 - 3).
    let handoff = auto.handoff().expect("QAOA-8 goes dense");
    assert!(handoff.nodes >= 32, "{handoff:?}");
}
