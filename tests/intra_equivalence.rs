//! Intra-shot parallelism is unobservable in the results: property-based
//! evidence that an intra-shot fork-join width of 1, 2 or 8 produces
//! byte-identical histograms, observable-sum bit patterns and
//! decision-diagram node statistics on random circuits with mid-circuit
//! measurements and resets, on both back-ends, through the per-shot, the
//! deduplicating and the weighted-enumeration drivers.
//!
//! Only the statevector back-end runs wide: its kernels partition on fixed
//! chunk boundaries and merge partial sums in chunk order, so every width
//! computes the same bits. The decision-diagram back-end is serial — the
//! width resolves to 1 on a DD engine and no pool is ever built — so the
//! DD cases pin that the knob is inert there.

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    build_intra_pool, execute, BackendKind, ExecMode, ExecPlan, Observable, OptLevel, Placement,
    ShotEngine, StochasticOutcome, WeightedOptions,
};
use qsdd::noise::NoiseModel;

const SHOTS: usize = 40;

/// Strategy: a random circuit over `qubits` qubits mixing unitary gates
/// with mid-circuit measurements and resets.
fn arb_circuit(qubits: usize, max_len: usize, measured: bool) -> impl Strategy<Value = Circuit> {
    let op = (0..10u8, 0..qubits, 0..qubits, -3.2f64..3.2f64);
    proptest::collection::vec(op, 1..max_len).prop_map(move |ops| {
        let mut c = Circuit::new(qubits);
        for (kind, a, b, angle) in ops {
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.x(a);
                }
                2 => {
                    c.rz(angle, a);
                }
                3 => {
                    c.ry(angle, a);
                }
                4 => {
                    if a != b {
                        c.cx(a, b);
                    } else {
                        c.s(a);
                    }
                }
                5 => {
                    if a != b {
                        c.cz(a, b);
                    } else {
                        c.z(a);
                    }
                }
                6 => {
                    if a != b {
                        c.swap(a, b);
                    } else {
                        c.t(a);
                    }
                }
                7 if measured => {
                    c.measure(a, a);
                }
                8 if measured => {
                    c.reset(a);
                }
                _ => {
                    c.sx(a);
                }
            }
        }
        c
    })
}

/// Asserts byte-identity of every deterministic outcome field.
fn assert_identical(outcome: &StochasticOutcome, reference: &StochasticOutcome, label: &str) {
    assert_eq!(outcome.counts, reference.counts, "{label}: histogram");
    assert_eq!(outcome.shots, reference.shots, "{label}: shots");
    assert_eq!(
        outcome.error_events, reference.error_events,
        "{label}: error events"
    );
    assert_eq!(
        outcome.dd_nodes_peak, reference.dd_nodes_peak,
        "{label}: dd peak"
    );
    assert_eq!(
        outcome.dd_nodes_avg.to_bits(),
        reference.dd_nodes_avg.to_bits(),
        "{label}: dd node average"
    );
    for (a, b) in outcome
        .observable_estimates
        .iter()
        .zip(&reference.observable_estimates)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: observable sum");
    }
}

/// Runs the per-shot, dedup and weighted modes at every intra width and
/// compares each against its own width-1 reference.
///
/// The jobs run on **one** shot-worker: a single worker's intra request
/// is honoured as-is (several workers clamp against `cores / workers`,
/// which would quietly serialise the whole matrix on small CI machines).
fn compare_widths(circuit: &Circuit, backend: BackendKind, noise: NoiseModel, seed: u64) {
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(1),
    ];
    let weighted_mode = ExecMode::Weighted(WeightedOptions::default());
    let mut engine = ShotEngine::new(circuit, backend, noise, seed, OptLevel::O0);
    let run = |engine: &ShotEngine, mode: &ExecMode| {
        let plan = ExecPlan::new(mode.clone(), SHOTS, &observables);
        execute(engine, &plan, Placement::Threads(1)).expect("no deadline is set")
    };

    let per_shot_ref = run(&engine, &ExecMode::PerShot);
    let dedup_ref = run(&engine, &ExecMode::Dedup);
    let weighted_ref = run(&engine, &weighted_mode);

    for intra in [2usize, 8] {
        engine.set_intra_threads(intra);
        let per_shot = run(&engine, &ExecMode::PerShot);
        assert_identical(&per_shot, &per_shot_ref, &format!("per-shot@{intra}"));
        let dedup = run(&engine, &ExecMode::Dedup);
        assert_identical(&dedup, &dedup_ref, &format!("dedup@{intra}"));
        let weighted = run(&engine, &weighted_mode);
        assert_identical(&weighted, &weighted_ref, &format!("weighted@{intra}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decision-diagram back-end, full paper noise (including
    /// state-dependent amplitude damping), mid-circuit measurements and
    /// resets: the richest execution paths — prefix groups, live fallback,
    /// declined dedup — must be width-independent bit for bit.
    #[test]
    fn dd_results_are_identical_across_intra_widths(
        circuit in arb_circuit(4, 20, true),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
        );
    }

    /// Strong passive noise on unitary circuits: rich multi-error patterns
    /// through full-program dedup and real weighted enumeration.
    #[test]
    fn dd_passive_noise_is_identical_across_intra_widths(
        circuit in arb_circuit(4, 16, false),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.05, 0.0, 0.05),
            seed,
        );
    }

    /// Dense statevector back-end: the chunk-partitioned kernels must
    /// produce the same bits at every width too.
    #[test]
    fn dense_results_are_identical_across_intra_widths(
        circuit in arb_circuit(3, 14, true),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::Statevector,
            NoiseModel::new(0.03, 0.0, 0.03),
            seed,
        );
    }
}

/// A deep entangling workload (QFT): node statistics and histogram must
/// not move by one bit.
#[test]
fn qft_is_identical_across_intra_widths() {
    use qsdd::circuit::generators::qft;
    let circuit = qft(10);
    for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
        compare_widths(&circuit, backend, NoiseModel::paper_defaults(), 2021);
    }
}

/// A decision-diagram engine asked for width 8 resolves to serial, so the
/// drivers' pool builder returns nothing and a context seated from the
/// engine holds no pool; the statevector engine keeps the request.
#[test]
fn dd_engine_with_intra_threads_holds_no_pool() {
    use qsdd::circuit::generators::ghz;
    let noise = NoiseModel::paper_defaults();
    let dd = ShotEngine::new(
        &ghz(4),
        BackendKind::DecisionDiagram,
        noise,
        1,
        OptLevel::O0,
    )
    .with_intra_threads(8);
    assert_eq!(dd.intra_threads(), 1);
    assert!(build_intra_pool(dd.intra_threads(), 1).is_none());
    let mut ctx = dd.new_context();
    ctx.set_intra_threads(dd.intra_threads());
    assert!(ctx.intra_pool().is_none());

    let dense = ShotEngine::new(&ghz(4), BackendKind::Statevector, noise, 1, OptLevel::O0)
        .with_intra_threads(8);
    assert_eq!(dense.intra_threads(), 8);
    ctx.set_intra_threads(dense.intra_threads());
    assert_eq!(ctx.intra_pool().map(|pool| pool.threads()), Some(8));
}
