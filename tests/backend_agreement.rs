//! Cross-crate integration tests: the decision-diagram simulator, the dense
//! statevector simulator and the exact density-matrix simulator must agree.

use std::collections::HashMap;

use qsdd::circuit::generators::{bernstein_vazirani, ghz, grover, qft, random_circuit, w_state};
use qsdd::circuit::{Circuit, Operation};
use qsdd::core::{
    execute, BackendKind, DdSimulator, ExecMode, ExecPlan, OptLevel, Placement, ShotEngine,
    StochasticSimulator,
};
use qsdd::dd::DdPackage;
use qsdd::density;
use qsdd::noise::NoiseModel;
use qsdd::statevector::run_noiseless;

/// Returns a copy of the circuit with measurements and resets removed, so
/// that final-state amplitudes can be compared without mid-run collapses.
fn unitary_part(circuit: &Circuit) -> Circuit {
    let mut stripped = Circuit::with_name(circuit.num_qubits(), circuit.name());
    for op in circuit {
        if op.is_unitary() {
            stripped.push(op.clone());
        }
    }
    stripped
}

/// Runs a circuit noiselessly on the DD back-end and returns the dense
/// amplitudes of the final state.
fn dd_amplitudes(circuit: &Circuit) -> Vec<qsdd::dd::Complex> {
    let run = DdSimulator::new().simulate_noiseless(circuit);
    run.package.to_statevector(run.state, run.num_qubits)
}

fn assert_states_match(circuit: &Circuit, tolerance: f64) {
    let circuit = unitary_part(circuit);
    let dd = dd_amplitudes(&circuit);
    let dense = run_noiseless(&circuit);
    for (i, (a, b)) in dd.iter().zip(dense.amplitudes()).enumerate() {
        assert!(
            a.approx_eq(*b, tolerance),
            "{}: amplitude {i} differs: dd {a} vs dense {b}",
            circuit.name()
        );
    }
}

#[test]
fn dd_and_dense_agree_on_standard_generators() {
    assert_states_match(&ghz(8), 1e-9);
    assert_states_match(&qft(7), 1e-9);
    assert_states_match(&w_state(6), 1e-9);
    assert_states_match(&grover(5, 19, Some(2)), 1e-9);
    assert_states_match(&bernstein_vazirani(7, 0b10101), 1e-9);
}

#[test]
fn dd_and_dense_agree_on_random_circuits() {
    for seed in 0..5u64 {
        let circuit = random_circuit(6, 6, seed);
        assert_states_match(&circuit, 1e-8);
    }
}

#[test]
fn dd_monte_carlo_tracks_exact_density_matrix() {
    // A strongly noisy 4-qubit GHZ circuit: the Monte-Carlo histogram of the
    // DD simulator must match the exact outcome distribution.
    let circuit = ghz(4);
    let noise = NoiseModel::new(0.02, 0.03, 0.02);
    let exact = density::outcome_distribution(&circuit, &noise);

    let result = StochasticSimulator::new()
        .with_backend(BackendKind::DecisionDiagram)
        .with_shots(20_000)
        .with_noise(noise)
        .with_seed(123)
        .run(&circuit);

    for (index, &p_exact) in exact.iter().enumerate() {
        let p_mc = result.frequency(index as u64);
        assert!(
            (p_mc - p_exact).abs() < 0.02,
            "outcome {index}: exact {p_exact:.4} vs Monte-Carlo {p_mc:.4}"
        );
    }
}

#[test]
fn dense_monte_carlo_tracks_exact_density_matrix() {
    let circuit = ghz(3);
    let noise = NoiseModel::new(0.03, 0.05, 0.03);
    let exact = density::outcome_distribution(&circuit, &noise);

    let result = StochasticSimulator::new()
        .with_backend(BackendKind::Statevector)
        .with_shots(15_000)
        .with_noise(noise)
        .with_seed(77)
        .run(&circuit);

    for (index, &p_exact) in exact.iter().enumerate() {
        let p_mc = result.frequency(index as u64);
        assert!(
            (p_mc - p_exact).abs() < 0.025,
            "outcome {index}: exact {p_exact:.4} vs Monte-Carlo {p_mc:.4}"
        );
    }
}

/// The dense back-end shares trajectories under damping noise; whatever it
/// shares, its histogram must stay the exact one's. (The repository
/// benchmark's oracle twins run under `auto`, which hands these small
/// dense-state circuits to the statevector engine; the decision-diagram
/// engine meets the oracle in the test below.)
#[test]
fn dense_trajectory_sharing_tracks_exact_density_matrix() {
    const SHOTS: usize = 20_000;
    let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
    for (name, circuit) in [("ghz6", ghz(6)), ("qft5", qft(5))] {
        for noise in [NoiseModel::paper_defaults(), tenfold] {
            let exact = density::outcome_distribution(&circuit, &noise);
            let result = StochasticSimulator::new()
                .with_backend(BackendKind::Statevector)
                .with_shots(SHOTS)
                .with_noise(noise)
                .with_seed(2021)
                .run(&circuit);
            let stats = result.dedup.expect("unitary dense programs deduplicate");
            assert!(stats.unique_trajectories < SHOTS as u64 / 2, "{stats:?}");
            let tv: f64 = exact
                .iter()
                .enumerate()
                .map(|(index, p_exact)| (result.frequency(index as u64) - p_exact).abs())
                .sum::<f64>()
                / 2.0;
            assert!(tv < 0.03, "{name} under {noise:?}: total variation {tv}");
        }
    }
}

/// The decision-diagram engine, named explicitly (`auto` would hand these
/// circuits to the statevector engine), against the exact oracle under ten
/// times the paper's noise: its walks cross their kept steps as block
/// products, and each job must take some.
#[test]
fn dd_trajectory_sharing_tracks_exact_density_matrix() {
    const SHOTS: usize = 20_000;
    let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
    for circuit in [ghz(6), qft(5), w_state(5)] {
        let exact = density::outcome_distribution(&circuit, &tenfold);
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            tenfold,
            2021,
            OptLevel::O0,
        );
        let mut ctx = engine.new_context();
        let plan = ExecPlan::new(ExecMode::Dedup, SHOTS, &[]);
        let result = execute(&engine, &plan, Placement::Inline(&mut ctx)).unwrap();
        let tv: f64 = exact
            .iter()
            .enumerate()
            .map(|(index, p_exact)| (result.frequency(index as u64) - p_exact).abs())
            .sum::<f64>()
            / 2.0;
        let name = circuit.name();
        assert!(tv < 0.03, "{name}: total variation {tv}");
        let block_steps = ctx.dd_table_stats().block_steps;
        assert!(block_steps > 0, "{name}: no walk took a block step");
    }
}

/// The readout a shot reports for basis state `basis` of `circuit`: the
/// packed classical register (bit 0 most significant) when the circuit
/// measures, the basis index itself otherwise.
fn readout(circuit: &Circuit, basis: usize) -> u64 {
    let n = circuit.num_qubits();
    let mut clbits = vec![false; circuit.num_clbits()];
    let mut measured = false;
    for op in circuit {
        if let Operation::Measure { qubit, clbit } = op {
            clbits[*clbit] = (basis >> (n - 1 - qubit)) & 1 == 1;
            measured = true;
        }
    }
    match measured {
        true => clbits
            .iter()
            .fold(0, |acc, &bit| (acc << 1) | u64::from(bit)),
        false => basis as u64,
    }
}

/// A Z error that stays diagonal up to the readout, or hits a qubit in a
/// basis state, is counted, not simulated. Where it is (GHZ, measured BV,
/// QFT after each qubit's H, the prepared QFT's controlled phases, after a
/// reset) and where it must not be (`h; Z; h; measure`, between the
/// prepared QFT's Hs, a Bell pair's target, the reset qubit's last H), both
/// back-ends still sample the exact distribution, at phase-flip and
/// depolarizing rates at which most shots draw an error.
#[test]
fn absorbed_phase_errors_keep_both_backends_exact() {
    const SHOTS: usize = 20_000;
    let noise = NoiseModel::new(0.1, 0.0, 0.2);
    let mut must_not_absorb = Circuit::with_name(1, "h_z_h");
    must_not_absorb.h(0).h(0).measure(0, 0);
    // Unlike QFT|0000>, which reads uniform under any Z, this one reads
    // every phase its Hs see.
    let mut prepared_qft = Circuit::with_name(4, "prepared_qft");
    prepared_qft.x(1).x(3).append(&qft(4));
    for qubit in 0..4 {
        prepared_qft.h(qubit).measure(qubit, qubit);
    }
    // A Z on the target after the CX turns 00/11 into 01/10.
    let mut bell = Circuit::with_name(2, "bell_hh");
    bell.h(0).cx(0, 1).h(0).h(1).measure(0, 0).measure(1, 1);
    let mut after_reset = Circuit::with_name(1, "h_reset_x_h");
    after_reset.h(0).reset(0).x(0).h(0).measure(0, 0);
    let circuits = [
        ghz(4),
        bernstein_vazirani(5, 0b1011),
        qft(4),
        must_not_absorb,
        prepared_qft,
        bell,
        after_reset,
    ];
    for circuit in &circuits {
        let mut exact: HashMap<u64, f64> = HashMap::new();
        for (basis, p) in density::outcome_distribution(circuit, &noise)
            .iter()
            .enumerate()
        {
            *exact.entry(readout(circuit, basis)).or_default() += p;
        }
        for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
            let result = StochasticSimulator::new()
                .with_backend(backend)
                .with_shots(SHOTS)
                .with_noise(noise)
                .with_seed(33)
                .run(circuit);
            for (&outcome, &p_exact) in &exact {
                let p_mc = result.frequency(outcome);
                assert!(
                    (p_mc - p_exact).abs() < 0.015,
                    "{} on {backend:?}, outcome {outcome}: exact {p_exact:.4} vs {p_mc:.4}",
                    circuit.name()
                );
            }
        }
    }
}

#[test]
fn both_stochastic_backends_agree_under_noise() {
    let circuit = qft(5);
    let noise = NoiseModel::paper_defaults();
    let dd = StochasticSimulator::new()
        .with_backend(BackendKind::DecisionDiagram)
        .with_shots(6000)
        .with_noise(noise)
        .with_seed(5)
        .run(&circuit);
    let dense = StochasticSimulator::new()
        .with_backend(BackendKind::Statevector)
        .with_shots(6000)
        .with_noise(noise)
        .with_seed(6)
        .run(&circuit);
    // The QFT of |0..0> is uniform; compare the total variation distance of
    // the two empirical distributions loosely.
    let mut tv = 0.0;
    for index in 0..(1u64 << 5) {
        tv += (dd.frequency(index) - dense.frequency(index)).abs();
    }
    tv /= 2.0;
    assert!(tv < 0.08, "total variation distance too large: {tv}");
}

#[test]
fn dd_simulator_scales_to_many_qubits_under_noise() {
    // The headline capability: noisy GHZ simulation far beyond dense limits.
    let circuit = ghz(64);
    let result = StochasticSimulator::new()
        .with_backend(BackendKind::DecisionDiagram)
        .with_shots(50)
        .with_noise(NoiseModel::paper_defaults())
        .with_seed(4)
        .run(&circuit);
    let total: u64 = result.counts.values().sum();
    assert_eq!(total, 50);
    // The vast majority of runs still land on one of the two GHZ peaks.
    let peak = result.frequency(0) + result.frequency(u64::MAX);
    assert!(peak > 0.5, "peak mass {peak}");
}

#[test]
fn measured_circuits_report_classical_bits_consistently() {
    let mut circuit = Circuit::new(3);
    circuit.x(0).cx(0, 1).measure_all();
    let result = StochasticSimulator::new()
        .with_shots(200)
        .with_noise(NoiseModel::noiseless())
        .with_seed(9)
        .run(&circuit);
    assert_eq!(result.frequency(0b110), 1.0);
}

#[test]
fn dd_package_round_trips_dense_states_from_circuits() {
    let circuit = random_circuit(5, 4, 99);
    let dense = run_noiseless(&circuit);
    let mut dd = DdPackage::new();
    let edge = dd.from_statevector(dense.amplitudes());
    let back = dd.to_statevector(edge, 5);
    for (a, b) in dense.amplitudes().iter().zip(&back) {
        assert!(a.approx_eq(*b, 1e-10));
    }
}
