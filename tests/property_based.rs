//! Property-based tests (proptest) over the core invariants of the stack:
//! decision diagrams agree with dense linear algebra, unitaries preserve
//! norms, the complex table deduplicates, and measurement histograms are
//! consistent.

use proptest::prelude::*;
use qsdd::circuit::{Circuit, Gate};
use qsdd::core::DdSimulator;
use qsdd::dd::{Complex, ComplexTable, DdPackage, Matrix2};
use qsdd::statevector::run_noiseless;

/// Strategy: a random (small) circuit description as a list of abstract ops.
fn arb_circuit(qubits: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let op = (0..8u8, 0..qubits, 0..qubits, -3.2f64..3.2f64);
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
                    c.t(a);
                }
                3 => {
                    c.rz(angle, a);
                }
                4 => {
                    c.ry(angle, a);
                }
                5 => {
                    if a != b {
                        c.cx(a, b);
                    } else {
                        c.s(a);
                    }
                }
                6 => {
                    if a != b {
                        c.cz(a, b);
                    } else {
                        c.z(a);
                    }
                }
                _ => {
                    if a != b {
                        c.swap(a, b);
                    } else {
                        c.sx(a);
                    }
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The decision diagram simulator and the dense statevector simulator
    /// compute identical final states for arbitrary unitary circuits.
    #[test]
    fn dd_matches_dense_on_random_circuits(circuit in arb_circuit(4, 24)) {
        let run = DdSimulator::new().simulate_noiseless(&circuit);
        let dd_amps = run.package.to_statevector(run.state, 4);
        let dense = run_noiseless(&circuit);
        for (a, b) in dd_amps.iter().zip(dense.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-8), "dd {a} vs dense {b}");
        }
    }

    /// Unitary circuits preserve the norm of the decision diagram state.
    #[test]
    fn unitary_circuits_preserve_norm(circuit in arb_circuit(5, 30)) {
        let run = DdSimulator::new().simulate_noiseless(&circuit);
        let mut package = run.package;
        let norm = package.norm_sqr(run.state);
        prop_assert!((norm - 1.0).abs() < 1e-8, "norm {norm}");
    }

    /// Building the same state twice inside one package yields the identical
    /// edge (hash-consing canonicity).
    #[test]
    fn identical_circuits_share_the_same_diagram(circuit in arb_circuit(4, 16)) {
        let mut dd = DdPackage::new();
        let ops: Vec<_> = circuit.operations().to_vec();
        let build = |dd: &mut DdPackage| {
            let mut state = dd.zero_state(4);
            for op in &ops {
                match op {
                    qsdd::circuit::Operation::Gate { gate, target, controls } => {
                        let m = gate.matrix().unwrap();
                        let op_dd = dd.controlled_op(4, *target, controls, m);
                        state = dd.mat_vec_mul(op_dd, state);
                    }
                    qsdd::circuit::Operation::Swap { a, b } => {
                        let op_dd = dd.swap_op(4, *a, *b);
                        state = dd.mat_vec_mul(op_dd, state);
                    }
                    _ => {}
                }
            }
            state
        };
        let first = build(&mut dd);
        let second = build(&mut dd);
        prop_assert_eq!(first, second);
    }

    /// The complex table never stores near-duplicate values.
    #[test]
    fn complex_table_deduplicates(values in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..200)) {
        let mut table = ComplexTable::new();
        let mut ids = Vec::new();
        for (re, im) in &values {
            ids.push(table.lookup(Complex::new(*re, *im)));
        }
        // Looking everything up again gives exactly the same ids.
        for ((re, im), id) in values.iter().zip(&ids) {
            prop_assert_eq!(table.lookup(Complex::new(*re, *im)), *id);
        }
        // And values behind distinct ids differ by more than the tolerance.
        for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                if a != b {
                    let va = table.value(*a);
                    let vb = table.value(*b);
                    prop_assert!(!va.approx_eq(vb, table.tolerance() / 2.0));
                }
            }
        }
    }

    /// Single-qubit gate matrices applied through the DD package match the
    /// direct 2x2 linear algebra on one qubit.
    #[test]
    fn single_qubit_dd_application_matches_matrix2(theta in -3.2f64..3.2, phi in -3.2f64..3.2, lam in -3.2f64..3.2) {
        let gate = Gate::U3(theta, phi, lam);
        let m = gate.matrix().unwrap();
        let mut dd = DdPackage::new();
        let state = dd.zero_state(1);
        let op = dd.single_qubit_op(1, 0, m);
        let result = dd.mat_vec_mul(op, state);
        let amps = dd.to_statevector(result, 1);
        let direct = m.apply([Complex::ONE, Complex::ZERO]);
        prop_assert!(amps[0].approx_eq(direct[0], 1e-10));
        prop_assert!(amps[1].approx_eq(direct[1], 1e-10));
    }

    /// Sampling histograms always sum to the number of shots and only contain
    /// basis states with non-zero probability.
    #[test]
    fn measurement_sampling_is_consistent(circuit in arb_circuit(4, 12), shots in 1usize..200) {
        use rand::SeedableRng;
        let run = DdSimulator::new().simulate_noiseless(&circuit);
        let mut package = run.package;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let amps = package.to_statevector(run.state, 4);
        for _ in 0..shots {
            let outcome = package.sample_measurement(run.state, 4, &mut rng);
            prop_assert!(outcome < 16);
            prop_assert!(amps[outcome as usize].norm_sqr() > 1e-12,
                "sampled an outcome with zero probability");
        }
    }

    /// Kraus completeness of every noise channel for arbitrary probabilities.
    #[test]
    fn noise_channels_are_trace_preserving(p in 0.0f64..=1.0) {
        use qsdd::noise::{ErrorChannel, ErrorKind};
        for kind in [ErrorKind::Depolarizing, ErrorKind::AmplitudeDamping, ErrorKind::PhaseFlip] {
            let channel = ErrorChannel::new(kind, p);
            let mut sum = Matrix2::zero();
            for k in channel.kraus_operators() {
                sum = sum.add(&k.adjoint().matmul(&k));
            }
            prop_assert!(sum.approx_eq(&Matrix2::identity(), 1e-10));
        }
    }
}
