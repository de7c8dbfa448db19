//! The vector kernels against a dense reference: random one- and two-qubit
//! unitaries, damping keeps and additions on random states of up to six
//! qubits, amplitude by amplitude, with every weight the package returns or
//! a node keeps interned — the kernels carry their intermediate products
//! and sums as scratch values, and none may leak out.

use proptest::prelude::*;
use qsdd_dd::{Complex, DdPackage, Matrix2, VecEdge};

/// Amplitudes by basis index, qubit 0 the most significant bit.
type Dense = Vec<Complex>;

/// `m` on `target` of `state`, where every `control` is `|1>`.
fn apply(state: &Dense, n: usize, target: usize, controls: &[usize], m: &Matrix2) -> Dense {
    let bit = |q: usize| 1usize << (n - 1 - q);
    let mut out = state.clone();
    for i in 0..state.len() {
        if i & bit(target) != 0 || controls.iter().any(|&c| i & bit(c) == 0) {
            continue;
        }
        let j = i | bit(target);
        [out[i], out[j]] = m.apply([state[i], state[j]]);
    }
    out
}

fn norm_sqr(state: &Dense) -> f64 {
    state.iter().map(|a| a.norm_sqr()).sum()
}

/// Asserts that `edge`'s weight and the child weights of every node below
/// it are what a lookup of their values returns.
fn assert_interned(dd: &mut DdPackage, edge: VecEdge) {
    let mut stack = vec![edge];
    while let Some(edge) = stack.pop() {
        let value = dd.complex_value(edge.weight);
        assert_eq!(dd.lookup_complex(value), edge.weight, "{value:?}");
        if !edge.node.is_terminal() {
            stack.extend(dd.vec_node(edge.node).edges);
        }
    }
}

fn assert_matches(dd: &mut DdPackage, edge: VecEdge, reference: &Dense, n: usize) {
    assert_interned(dd, edge);
    let got = dd.to_statevector(edge, n);
    for (index, (a, b)) in got.iter().zip(reference).enumerate() {
        assert!(a.approx_eq(*b, 1e-12), "amplitude {index}: {a:?} vs {b:?}");
    }
}

/// One random step: its kind, two qubits, three angles and a damping rate.
type Step = (u8, usize, usize, (f64, f64, f64), f64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    let step = (
        0..4u8,
        0..6usize,
        0..6usize,
        (angle.clone(), angle.clone(), angle),
        0.01..0.5f64,
    );
    collection::vec(step, 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vector_kernels_match_a_dense_reference(
        n in 1..=6usize,
        index in 0..64u64,
        steps in steps(),
    ) {
        let mut dd = DdPackage::new();
        let index = index % (1 << n);
        let mut state = dd.basis_state_from_index(n, index);
        let mut reference = vec![Complex::ZERO; 1 << n];
        reference[index as usize] = Complex::ONE;
        for (kind, a, b, (theta, phi, lambda), gamma) in steps {
            let (target, other) = (a % n, b % n);
            let u = Matrix2::u3(theta, phi, lambda);
            match kind {
                // A one-qubit unitary.
                0 => {
                    let op = dd.single_qubit_op(n, target, u);
                    state = dd.mat_vec_mul(op, state);
                    reference = apply(&reference, n, target, &[], &u);
                }
                // A controlled one: a two-qubit unitary.
                1 if other != target => {
                    let op = dd.controlled_op(n, target, &[other], u);
                    state = dd.mat_vec_mul(op, state);
                    reference = apply(&reference, n, target, &[other], &u);
                }
                // A damping keep, renormalised.
                2 => {
                    let keep = Matrix2::amplitude_damping_a1(gamma);
                    let op = dd.single_qubit_op(n, target, keep);
                    let (p, kept) = dd.apply_kraus(op, state);
                    reference = apply(&reference, n, target, &[], &keep);
                    let expected = norm_sqr(&reference);
                    prop_assert!((p - expected).abs() <= 1e-12 * expected, "{p} vs {expected}");
                    let scale = 1.0 / expected.sqrt();
                    reference.iter_mut().for_each(|amp| *amp = amp.scale(scale));
                    state = kept;
                }
                // The state plus a rotated copy of it.
                _ => {
                    let op = dd.single_qubit_op(n, target, u);
                    let rotated = dd.mat_vec_mul(op, state);
                    assert_matches(&mut dd, rotated, &apply(&reference, n, target, &[], &u), n);
                    state = dd.vec_add(state, rotated);
                    let rotated = apply(&reference, n, target, &[], &u);
                    (reference.iter_mut().zip(rotated)).for_each(|(amp, r)| *amp += r);
                }
            }
            assert_matches(&mut dd, state, &reference, n);
        }
    }
}
