//! Tracing must be a pure observer: result payloads are byte-identical
//! whether span recording is off, on, or sampled out — across shot-thread
//! counts, both backends and every driver (per-shot, trajectory-dedup,
//! weighted enumeration).
//!
//! Each case runs the same job three times — tracing off (the baseline),
//! tracing on with a live tracer installed, and tracing on but sampled
//! out — and compares the histogram, the observable-estimate *bits* and
//! the decision-diagram peak across all three.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use qsdd::circuit::generators;
use qsdd::core::{BackendKind, Observable, StochasticSimulator, WeightedOptions};
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
    let circuit = generators::ghz(qubits);
    let mut simulator = StochasticSimulator::new()
        .with_backend(backend)
        .with_shots(shots)
        .with_threads(threads)
        .with_seed(seed)
        .with_noise(NoiseModel::paper_defaults())
        .with_dedup(matches!(driver, Driver::Dedup));
    if matches!(driver, Driver::Weighted) {
        simulator = simulator.with_weighted(WeightedOptions::default());
    }
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(0),
    ];
    let outcome = simulator.run_with_observables(&circuit, &observables);
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

/// Serializes cases: the tracing gate and sampling rate are process
/// globals, so concurrent flipping would blur which mode a run saw.
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
    trace::set_trace_sample_rate(1);
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

    // Tracing on but the job sampled out: the gate is hot, yet no tracer
    // is installed anywhere, so `span` calls hit only the TLS check.
    trace::set_trace_sample_rate(u64::MAX);
    let sampled = run_once(qubits, shots, seed, threads, backend, driver);
    trace::set_trace_sample_rate(1);
    trace::set_trace_enabled(false);

    assert_eq!(off, on, "tracing on changed the result");
    assert_eq!(off, sampled, "sampling state changed the result");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Histograms, observable bits and DD peaks are byte-identical with
    /// tracing off / on / sampled, for every driver x backend x
    /// parallelism combination the seed picks.
    #[test]
    fn results_are_identical_with_tracing_off_on_and_sampled(
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
