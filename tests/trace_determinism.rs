//! Tracing must be a pure observer: result payloads are byte-identical
//! whether span recording is off, on, or on with no tracer installed —
//! across shot-thread counts, both backends and every driver (per-shot,
//! trajectory-dedup, weighted enumeration).
//!
//! Each case runs the same job three times — tracing off (the baseline),
//! tracing on with a live tracer installed, and tracing on with no tracer
//! installed (the state of every untraced thread) — and compares the
//! histogram, the observable-estimate *bits* and the decision-diagram peak
//! across all three.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use qsdd::circuit::generators;
use qsdd::core::{
    execute, BackendKind, ExecMode, ExecPlan, Observable, Placement, StochasticSimulator,
    WeightedOptions,
};
use qsdd::noise::NoiseModel;
use qsdd::telemetry::trace;

/// The comparable fingerprint of one run: exact counts, exact observable
/// bits, exact DD peak. Wall time and stage timings are excluded — they
/// are the only fields allowed to differ.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    counts: BTreeMap<u64, u64>,
    observable_bits: Vec<u64>,
    dd_nodes_peak: u64,
    error_events: u64,
}

/// Which engine driver the case exercises.
#[derive(Debug, Clone, Copy)]
enum Driver {
    PerShot,
    Dedup,
    Weighted,
}

fn run_once(
    qubits: usize,
    shots: usize,
    seed: u64,
    threads: usize,
    backend: BackendKind,
    driver: Driver,
) -> Fingerprint {
    let engine = StochasticSimulator::new()
        .with_backend(backend)
        .with_seed(seed)
        .with_noise(NoiseModel::paper_defaults())
        .engine(&generators::ghz(qubits));
    let mode = match driver {
        Driver::PerShot => ExecMode::PerShot,
        Driver::Dedup => ExecMode::Dedup,
        Driver::Weighted => ExecMode::Weighted(WeightedOptions::default()),
    };
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(0),
    ];
    let plan = ExecPlan::new(mode, shots, &observables);
    let outcome = execute(&engine, &plan, Placement::Threads(threads)).unwrap();
    Fingerprint {
        counts: outcome.counts.iter().map(|(&k, &v)| (k, v)).collect(),
        observable_bits: outcome
            .observable_estimates
            .iter()
            .map(|estimate| estimate.to_bits())
            .collect(),
        dd_nodes_peak: outcome.dd_nodes_peak,
        error_events: outcome.error_events,
    }
}

/// Serializes cases: the tracing gate is a process global, so concurrent
/// flipping would blur which mode a run saw.
static GATE: Mutex<()> = Mutex::new(());

fn assert_tracing_invisible(
    qubits: usize,
    shots: usize,
    seed: u64,
    threads: usize,
    backend: BackendKind,
    driver: Driver,
) {
    let _gate = GATE.lock().unwrap();

    trace::set_trace_enabled(false);
    let off = run_once(qubits, shots, seed, threads, backend, driver);

    // Tracing on, tracer installed: every span the drivers emit records.
    trace::set_trace_enabled(true);
    let tracer = trace::Tracer::forced("determinism", "determinism");
    let on = {
        let _install = tracer.install(0);
        run_once(qubits, shots, seed, threads, backend, driver)
    };
    let traced = tracer.finish("job");
    assert!(
        traced.spans.len() > 1,
        "the traced run must actually record spans"
    );

    // Tracing on but no tracer installed: the gate is hot, yet `span`
    // calls hit only the TLS check.
    let untraced = run_once(qubits, shots, seed, threads, backend, driver);
    trace::set_trace_enabled(false);

    assert_eq!(off, on, "tracing on changed the result");
    assert_eq!(
        off, untraced,
        "the hot gate without a tracer changed the result"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Histograms, observable bits and DD peaks are byte-identical with
    /// tracing off / on / on without a tracer, for every driver x backend x
    /// parallelism combination the seed picks.
    #[test]
    fn results_are_identical_with_tracing_off_on_and_without_a_tracer(
        seed in 1u64..10_000,
        threads_pick in 0usize..3,
        backend_pick in 0usize..2,
        driver_pick in 0usize..3,
    ) {
        let threads = [1, 2, 8][threads_pick];
        let backend = if backend_pick == 1 {
            BackendKind::Statevector
        } else {
            BackendKind::DecisionDiagram
        };
        let driver = [Driver::PerShot, Driver::Dedup, Driver::Weighted][driver_pick];
        assert_tracing_invisible(4, 96, seed, threads, backend, driver);
    }
}

/// The full grid at one fixed seed: every driver on every backend at the
/// shot-thread widths 1, 2 and 8, so a grid cell failing is attributable
/// without shrinking.
#[test]
fn fixed_grid_of_drivers_backends_and_widths() {
    for driver in [Driver::PerShot, Driver::Dedup, Driver::Weighted] {
        for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
            for threads in [1, 2, 8] {
                assert_tracing_invisible(4, 64, 2021, threads, backend, driver);
            }
        }
    }
}
