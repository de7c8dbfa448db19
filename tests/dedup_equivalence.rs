//! Dedup-equals-per-shot coverage for trajectory deduplication:
//! property-based evidence that the deduplicating runner is observationally
//! identical to the per-shot path — byte-identical samples, histograms,
//! error counts, node statistics and observable-sum bit patterns — on
//! random circuits with mid-circuit measurements and resets, under noise
//! models with and without amplitude damping, across 1, 2 and 8 worker
//! threads.
//!
//! The generated circuits exercise every execution mode of the dedup
//! planner: full-program pattern groups (unitary circuits under passive
//! noise), prefix groups with checkpointed live resume in member runs
//! (mid-circuit measurements, an empty prefix included), and deviation
//! buckets (damping decays, deviations ahead of damping sites — shared per
//! event, their children per longer pattern, singletons live).

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, Deadline, DedupStats, ExecMode, ExecPlan, Observable, OptLevel,
    Placement, ShotEngine, StochasticOutcome, WeightedOptions,
};
use qsdd::noise::NoiseModel;
use qsdd::telemetry::trace::{self, AttrValue, Tracer};

const SHOTS: usize = 48;

fn run(
    mode: ExecMode,
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
) -> StochasticOutcome {
    let plan = ExecPlan::new(mode, shots, observables);
    execute(engine, &plan, Placement::Threads(threads)).expect("no deadline is set")
}

/// Strategy: a random circuit over `qubits` qubits mixing unitary gates
/// with mid-circuit measurements and resets (`clbits == qubits`).
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

/// Asserts that a deduplicated outcome equals the per-shot reference byte
/// for byte in every deterministic field.
fn assert_identical(dedup: &StochasticOutcome, reference: &StochasticOutcome) {
    assert_eq!(dedup.counts, reference.counts, "histogram diverged");
    assert_eq!(dedup.shots, reference.shots);
    assert_eq!(dedup.error_events, reference.error_events);
    assert_eq!(dedup.dd_nodes_peak, reference.dd_nodes_peak);
    assert_eq!(
        dedup.dd_nodes_avg.to_bits(),
        reference.dd_nodes_avg.to_bits(),
        "node average diverged"
    );
    assert_eq!(
        dedup.observable_estimates.len(),
        reference.observable_estimates.len()
    );
    for (a, b) in dedup
        .observable_estimates
        .iter()
        .zip(&reference.observable_estimates)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "observable sum diverged");
    }
}

/// Runs `engine` under `Dedup` and `PerShot` at 1, 2 and 8 threads and
/// asserts the outcomes identical; returns the sharing statistics of each
/// thread count.
fn compare_engine(
    engine: &ShotEngine,
    shots: usize,
    observables: &[Observable],
) -> Vec<DedupStats> {
    let mut all = Vec::new();
    for threads in [1usize, 2, 8] {
        let reference = run(ExecMode::PerShot, engine, shots, threads, observables);
        let dedup = run(ExecMode::Dedup, engine, shots, threads, observables);
        assert_identical(&dedup, &reference);
        let stats = dedup.dedup.expect("the dedup driver ran");
        assert!(stats.unique_trajectories <= shots as u64);
        assert!(stats.live_shots <= shots as u64);
        assert!(
            stats.unique_trajectories >= stats.live_shots,
            "every live shot is its own trajectory"
        );
        all.push(stats);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full paper noise (including state-dependent amplitude damping) on
    /// circuits with mid-circuit measurements and resets: prefix groups,
    /// live fallback and declined support must all reproduce the per-shot
    /// path byte for byte.
    #[test]
    fn dedup_matches_per_shot_under_damping_noise(
        circuit in arb_circuit(4, 20, true),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
            OptLevel::O0,
        );
        let observables = [
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        compare_engine(&engine, SHOTS, &observables);
    }

    /// Strong passive-only noise on unitary circuits: rich multi-error
    /// patterns through the full-program dedup path.
    #[test]
    fn dedup_matches_per_shot_under_strong_passive_noise(
        circuit in arb_circuit(4, 16, false),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.05, 0.0, 0.05),
            seed,
            OptLevel::O0,
        );
        let observables = [Observable::QubitExcitation(2)];
        compare_engine(&engine, SHOTS, &observables);
    }

    /// Mid-circuit measurements under passive noise: the checkpoint-resume
    /// prefix path, at every prefix length.
    #[test]
    fn dedup_matches_per_shot_with_measurements(
        circuit in arb_circuit(3, 18, true),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.02, 0.0, 0.02),
            seed,
            OptLevel::O0,
        );
        compare_engine(&engine, SHOTS, &[Observable::BasisProbability(1)]);
    }

    /// The dense statevector back-end deduplicates full unitary programs —
    /// under state-dependent amplitude damping too, with thresholds
    /// recorded at compile time and learned past a deviation — and must
    /// match per-shot execution byte for byte. A dense circuit with
    /// mid-circuit measurements and resets shares at most its unitary
    /// prefix and declines weighted enumeration, and both must give the
    /// per-shot bytes.
    #[test]
    fn dense_dedup_matches_per_shot(
        circuit in arb_circuit(3, 14, false),
        measured in arb_circuit(3, 14, true),
        seed in 0u64..1000,
    ) {
        let noise = NoiseModel::new(0.03, 0.04, 0.03);
        let engine = ShotEngine::new(&circuit, BackendKind::Statevector, noise, seed, OptLevel::O0);
        compare_engine(&engine, SHOTS, &[Observable::QubitExcitation(0)]);

        // A reset ahead of a gate guarantees a mid-circuit non-unitary op.
        let mut measured = measured;
        measured.reset(0);
        measured.h(0);
        let engine = ShotEngine::new(&measured, BackendKind::Statevector, noise, seed, OptLevel::O0);
        prop_assert!(!engine.supports_weighted());
        let observables = [Observable::BasisProbability(0)];
        compare_engine(&engine, SHOTS, &observables);
        let weighted = ExecMode::Weighted(WeightedOptions::default());
        for threads in [1usize, 2] {
            let reference = run(ExecMode::PerShot, &engine, SHOTS, threads, &observables);
            assert_identical(&run(weighted.clone(), &engine, SHOTS, threads, &observables), &reference);
        }
    }
}

#[test]
fn dedup_groups_dominate_at_realistic_noise() {
    use qsdd::circuit::generators::ghz;
    let engine = ShotEngine::new(
        &ghz(16),
        BackendKind::DecisionDiagram,
        NoiseModel::noiseless().with_depolarizing(0.001),
        2021,
        OptLevel::O0,
    );
    let outcome = run(ExecMode::Dedup, &engine, 10_000, 0, &[]);
    let stats = outcome.dedup.expect("dedup must engage on this workload");
    assert_eq!(stats.live_shots, 0, "passive noise never goes live");
    assert!(
        stats.unique_trajectories < 1000,
        "expected heavy sharing, got {} unique trajectories",
        stats.unique_trajectories
    );
    assert!(outcome.dedup_hit_rate() > 0.9);
    // And the shared trajectories reproduce the per-shot histogram exactly.
    let reference = run(ExecMode::PerShot, &engine, 10_000, 0, &[]);
    assert_eq!(outcome.counts, reference.counts);
    assert_eq!(outcome.error_events, reference.error_events);
}

#[test]
fn transpiled_engines_dedup_through_the_output_layout() {
    use qsdd::circuit::generators::qft;
    // qft ends in trailing SWAPs which O2 elides into an output relabeling;
    // deduplicated outcomes must be restored through it exactly like
    // per-shot outcomes.
    let circuit = qft(4);
    let engine = ShotEngine::new(
        &circuit,
        BackendKind::DecisionDiagram,
        NoiseModel::new(0.01, 0.0, 0.01),
        11,
        OptLevel::O2,
    );
    for threads in [1usize, 3] {
        let reference = run(ExecMode::PerShot, &engine, 400, threads, &[]);
        let dedup = run(ExecMode::Dedup, &engine, 400, threads, &[]);
        assert_eq!(dedup.counts, reference.counts);
        assert_eq!(dedup.error_events, reference.error_events);
    }
}

/// Circuits whose shots deviate often enough that deviation buckets grow
/// children and grandchildren: the paper's channels at ten times their
/// strength on GHZ-16, QFT-8 and measured BV-6 (prefix deduplication), and
/// at a hundred times on GHZ-4, where few sites and many events make even
/// three-event patterns coincide. The unitary ones run on the statevector
/// back-end too.
fn deep_tree_engines() -> Vec<(&'static str, ShotEngine)> {
    use qsdd::circuit::generators::{bernstein_vazirani, ghz, qft, w_state};
    use BackendKind::{DecisionDiagram, Statevector};
    let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
    let hundredfold = NoiseModel::new(0.1, 0.2, 0.1);
    // Damping alone at ten times the paper's: long stretches of kept steps
    // between candidates, which a walk crosses as block products.
    let damped = NoiseModel::paper_defaults().with_amplitude_damping(0.02);
    let mut cases = vec![
        ("ghz16-damped", DecisionDiagram, ghz(16), damped),
        ("qft8-damped", DecisionDiagram, qft(8), damped),
        ("w8-damped", DecisionDiagram, w_state(8), damped),
        ("ghz16", DecisionDiagram, ghz(16), tenfold),
        ("qft8", DecisionDiagram, qft(8), tenfold),
        (
            "bv6",
            DecisionDiagram,
            bernstein_vazirani(6, 0b10101),
            tenfold,
        ),
        ("ghz4", DecisionDiagram, ghz(4), hundredfold),
        ("dense-qft8", Statevector, qft(8), tenfold),
        ("dense-ghz4", Statevector, ghz(4), hundredfold),
    ];
    // An unoptimised dense GHZ-16 shot takes ~40 ms and the suites below
    // run some ten thousand of them: CI's release step covers this case.
    if !cfg!(debug_assertions) {
        cases.push(("dense-ghz16", Statevector, ghz(16), tenfold));
    }
    cases
        .into_iter()
        .map(|(name, backend, circuit, noise)| {
            let engine = ShotEngine::new(&circuit, backend, noise, 2021, OptLevel::O0);
            (name, engine)
        })
        .collect()
}

const DEEP_SHOTS: usize = 1_500;

#[test]
fn deep_bucket_trees_match_per_shot_execution() {
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(1),
    ];
    for (name, engine) in deep_tree_engines() {
        for observables in [&observables[..], &[]] {
            for threads in [1usize, 2, 3] {
                let reference = run(ExecMode::PerShot, &engine, DEEP_SHOTS, threads, observables);
                let dedup = run(ExecMode::Dedup, &engine, DEEP_SHOTS, threads, observables);
                assert_identical(&dedup, &reference);
                let stats = dedup.dedup.expect("the dedup driver ran");
                assert!(stats.unique_trajectories >= stats.live_shots, "{name}");
                assert!(
                    stats.unique_trajectories < DEEP_SHOTS as u64,
                    "{name}: {stats:?} shares nothing"
                );
            }
        }
    }
}

#[test]
fn every_bucket_shot_equals_its_live_execution() {
    let unbounded = Deadline::unbounded();
    trace::set_trace_enabled(true);
    for (name, engine) in deep_tree_engines() {
        let observables = engine.map_observables(&[Observable::QubitExcitation(0)]);
        let mut shared = engine.new_context();
        let mut alone = engine.new_context();
        let mut seen = vec![false; DEEP_SHOTS];
        let tracer = Tracer::forced(name, name);
        let install = tracer.install(0);
        let mut evolutions = 0;
        for work in engine.plan_range(0..DEEP_SHOTS as u64) {
            let members = work.shots();
            let mut records = Vec::new();
            let record =
                |shot, sample, values: &[f64]| records.push((shot, sample, values.to_vec()));
            let (stats, _) = engine
                .run_items_with(&mut shared, [work], &observables, &unbounded, record)
                .expect("an unbounded deadline never expires");
            assert_eq!(records.len(), members, "{name}: one record per member");
            assert!(stats.unique_trajectories >= stats.live_shots);
            evolutions += stats.unique_trajectories;
            for (shot, sample, values) in records {
                assert!(!std::mem::replace(&mut seen[shot as usize], true));
                let (live, live_values) =
                    engine.run_shot_with_observables_in(&mut alone, shot, &observables);
                assert_eq!(sample, live, "{name}: shot {shot} diverged");
                assert_eq!(values[0].to_bits(), live_values[0].to_bits(), "{name}");
            }
        }
        drop(install);
        assert!(seen.iter().all(|&covered| covered), "{name}: shots lost");
        // The work items evolve what the job does: a group's later member
        // runs report none of their own.
        let job = run(ExecMode::Dedup, &engine, DEEP_SHOTS, 1, &observables);
        let stats = job.dedup.expect("the dedup driver ran");
        assert_eq!(evolutions, stats.unique_trajectories, "{name}");
        if name.ends_with("-damped") {
            let block_steps = shared.dd_table_stats().block_steps;
            assert!(block_steps > 0, "{name}: no walk took a block step");
        }

        // The longest pattern any replay shared between two or more shots.
        let attr = |span: &trace::SpanRecord, key: &str| {
            span.attrs.iter().find_map(|(name, value)| match value {
                AttrValue::U64(value) if *name == key => Some(*value),
                _ => None,
            })
        };
        let deepest = tracer
            .finish("job")
            .spans
            .iter()
            .filter(|span| span.name == "trajectory_group" && attr(span, "members") >= Some(2))
            .filter_map(|span| attr(span, "events"))
            .max();
        // Every case replays children; the GHZ-4 ones grandchildren too.
        let expected = if name.ends_with("ghz4") { 3 } else { 2 };
        assert!(
            deepest >= Some(expected),
            "{name}: deepest shared pattern {deepest:?}"
        );
    }
}

/// The statevector engine shares the unitary prefix of a measured circuit
/// and every member resumes from an amplitude copy: measured BV-8, QAOA-8
/// and Grover-6 (all measurements terminal), and a GHZ-6 whose qubit 2 is
/// measured mid-circuit and then rotated and entangled again, must give
/// the per-shot bytes on any number of workers.
#[test]
fn dense_measured_prefixes_match_per_shot_execution() {
    use qsdd::circuit::generators::{by_name, ghz};
    let mut mid = ghz(6);
    mid.rz(0.3, 1).ry(0.7, 4).t(5).sx(0);
    mid.measure(2, 2);
    mid.h(2).cx(2, 3);
    mid.measure_all();
    let cases = [
        ("bv8", by_name("bv", 8).expect("a generator"), 300),
        ("qaoa8", by_name("qaoa", 8).expect("a generator"), 300),
        ("grover6", by_name("grover", 6).expect("a generator"), 200),
        ("mid-measured-ghz6", mid, 400),
    ];
    let paper = NoiseModel::paper_defaults();
    for (name, circuit, shots) in cases {
        let engine = ShotEngine::new(&circuit, BackendKind::Statevector, paper, 7, OptLevel::O0);
        assert!(!engine.supports_weighted(), "{name} is measured");
        for threads in [1usize, 2, 3] {
            let reference = run(ExecMode::PerShot, &engine, shots, threads, &[]);
            let dedup = run(ExecMode::Dedup, &engine, shots, threads, &[]);
            assert_identical(&dedup, &reference);
            let stats = dedup.dedup.expect("the dedup driver ran");
            assert!(
                stats.unique_trajectories < shots as u64,
                "{name}: {stats:?} shares nothing"
            );
        }
    }
}

/// A 6-qubit chain — `h`, five CXs, `h` — with qubit 0 measured after its
/// first `k` gates, then every qubit: 14 operations.
fn early_measured_chain(k: usize) -> Circuit {
    let mut circuit = Circuit::new(6);
    for gate in 0..7 {
        if gate == k {
            circuit.measure(0, 0);
        }
        match gate {
            0 => circuit.h(0),
            6 => circuit.h(5),
            _ => circuit.cx(gate - 1, gate),
        };
    }
    circuit.measure_all();
    circuit
}

/// Programs measured early share their prefix too — an empty one when the
/// measurement comes before the first gate — and the members resuming live
/// past it run in member runs: at paper noise on both back-ends, the chain
/// measured before its first gate, after one gate, and after six (a prefix
/// just under half its operations) must give the per-shot bytes and the
/// same sharing statistics on any number of workers.
#[test]
fn early_measured_programs_share_their_prefix() {
    const EARLY_SHOTS: usize = 240;
    let observables = [Observable::QubitExcitation(1)];
    for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
        for k in [0, 1, 6] {
            let paper = NoiseModel::paper_defaults();
            let circuit = early_measured_chain(k);
            let engine = ShotEngine::new(&circuit, backend, paper, 2021, OptLevel::O0);
            let stats = compare_engine(&engine, EARLY_SHOTS, &observables);
            let case = format!("{backend} measured after {k} gates");
            assert!(stats.iter().all(|s| *s == stats[0]), "{case}: {stats:?}");
            // The no-error group holds most shots: several member runs.
            assert!(
                stats[0].unique_trajectories < EARLY_SHOTS as u64 / 4,
                "{case}: {:?} shares little",
                stats[0]
            );
        }
    }
}
