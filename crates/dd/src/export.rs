//! Extraction of amplitudes and dense vectors/matrices.
//!
//! These helpers are mostly used by tests, examples and documentation — they
//! materialise exponential objects and must only be called for small qubit
//! counts.

use crate::complex::Complex;
use crate::node::{MatEdge, VecEdge};
use crate::package::DdPackage;

impl DdPackage {
    /// Returns the amplitude of the computational basis state `index` (qubit
    /// 0 is the most significant bit of the index).
    pub fn amplitude(&self, v: VecEdge, n: usize, index: u64) -> Complex {
        assert!((1..=64).contains(&n), "qubit count must be within 1..=64");
        let mut value = self.ctable.value(v.weight);
        let mut node_id = v.node;
        for level in 0..n {
            if value.is_zero() {
                return Complex::ZERO;
            }
            if node_id.is_terminal() {
                break;
            }
            let node = self.vec_nodes[node_id.index()];
            let bit = ((index >> (n - 1 - level)) & 1) as usize;
            let edge = node.edges[bit];
            value *= self.ctable.value(edge.weight);
            node_id = edge.node;
        }
        value
    }

    /// Materialises the full state vector (length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 26` to guard against accidental exponential blow-up.
    pub fn to_statevector(&self, v: VecEdge, n: usize) -> Vec<Complex> {
        assert!(n <= 26, "refusing to materialise more than 2^26 amplitudes");
        let mut out = vec![Complex::ZERO; 1usize << n];
        self.fill_statevector(v, n, 0, 0, Complex::ONE, &mut out);
        out
    }

    fn fill_statevector(
        &self,
        edge: VecEdge,
        n: usize,
        level: usize,
        prefix: usize,
        acc: Complex,
        out: &mut [Complex],
    ) {
        if edge.is_zero() {
            return;
        }
        let acc = acc * self.ctable.value(edge.weight);
        if level == n {
            out[prefix] = acc;
            return;
        }
        debug_assert!(!edge.node.is_terminal(), "state shorter than qubit count");
        let node = self.vec_nodes[edge.node.index()];
        self.fill_statevector(node.edges[0], n, level + 1, prefix << 1, acc, out);
        self.fill_statevector(node.edges[1], n, level + 1, (prefix << 1) | 1, acc, out);
    }

    /// Visits every computational basis state with non-zero amplitude,
    /// calling `sink(index, probability)` with the squared magnitude
    /// (qubit 0 is the most significant bit of the index, matching
    /// [`DdPackage::amplitude`]).
    ///
    /// Unlike [`DdPackage::to_statevector`] this never materialises the
    /// dense vector: the traversal skips zero-weight edges, so sparse
    /// states (the common case for stabilizer-like circuits) are walked
    /// in time proportional to their support rather than `2^n`.
    pub fn outcome_probabilities(&self, v: VecEdge, n: usize, sink: &mut dyn FnMut(u64, f64)) {
        assert!((1..=64).contains(&n), "qubit count must be within 1..=64");
        self.visit_probabilities(v, n, 0, 0, 1.0, sink);
    }

    fn visit_probabilities(
        &self,
        edge: VecEdge,
        n: usize,
        level: usize,
        prefix: u64,
        acc: f64,
        sink: &mut dyn FnMut(u64, f64),
    ) {
        if edge.is_zero() {
            return;
        }
        let acc = acc * self.ctable.value(edge.weight).norm_sqr();
        if acc == 0.0 {
            return;
        }
        if level == n {
            sink(prefix, acc);
            return;
        }
        debug_assert!(!edge.node.is_terminal(), "state shorter than qubit count");
        let node = self.vec_nodes[edge.node.index()];
        self.visit_probabilities(node.edges[0], n, level + 1, prefix << 1, acc, sink);
        self.visit_probabilities(node.edges[1], n, level + 1, (prefix << 1) | 1, acc, sink);
    }

    /// Builds a decision diagram state from a dense amplitude vector.
    ///
    /// The vector length must be a power of two; the state is not
    /// renormalised.
    ///
    /// # Panics
    ///
    /// Panics if the length of `amplitudes` is not a power of two `2^n` with
    /// `n >= 1`.
    pub fn from_statevector(&mut self, amplitudes: &[Complex]) -> VecEdge {
        let len = amplitudes.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "length must be 2^n, n >= 1"
        );
        self.slice_to_edge(amplitudes, 0)
    }

    fn slice_to_edge(&mut self, amps: &[Complex], level: usize) -> VecEdge {
        if amps.len() == 1 {
            if amps[0].is_zero() {
                return VecEdge::zero();
            }
            let w = self.ctable.lookup(amps[0]);
            return VecEdge::terminal(w);
        }
        let half = amps.len() / 2;
        let c0 = self.slice_to_edge(&amps[..half], level + 1);
        let c1 = self.slice_to_edge(&amps[half..], level + 1);
        self.make_vec_node(level as u16, [c0, c1])
    }

    /// Materialises the full operator matrix (dimension `2^n x 2^n`),
    /// row-major.
    ///
    /// # Panics
    ///
    /// Panics if `n > 13` to guard against accidental exponential blow-up.
    pub fn to_matrix(&self, m: MatEdge, n: usize) -> Vec<Vec<Complex>> {
        assert!(
            n <= 13,
            "refusing to materialise more than 2^26 matrix entries"
        );
        let dim = 1usize << n;
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        self.fill_matrix(m, n, 0, 0, 0, Complex::ONE, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn fill_matrix(
        &self,
        edge: MatEdge,
        n: usize,
        level: usize,
        row: usize,
        col: usize,
        acc: Complex,
        out: &mut [Vec<Complex>],
    ) {
        if edge.is_zero() {
            return;
        }
        let acc = acc * self.ctable.value(edge.weight);
        if level == n {
            out[row][col] = acc;
            return;
        }
        debug_assert!(
            !edge.node.is_terminal(),
            "operator shorter than qubit count"
        );
        let node = self.mat_nodes[edge.node.index()];
        for r in 0..2 {
            for c in 0..2 {
                self.fill_matrix(
                    node.edges[2 * r + c],
                    n,
                    level + 1,
                    (row << 1) | r,
                    (col << 1) | c,
                    acc,
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::FRAC_1_SQRT_2;
    use crate::matrix2::Matrix2;

    #[test]
    fn amplitude_matches_statevector_entries() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let h0 = dd.single_qubit_op(3, 0, Matrix2::hadamard());
        let h2 = dd.single_qubit_op(3, 2, Matrix2::hadamard());
        let s = dd.mat_vec_mul(h0, s);
        let s = dd.mat_vec_mul(h2, s);
        let dense = dd.to_statevector(s, 3);
        for idx in 0..8u64 {
            assert!(dd
                .amplitude(s, 3, idx)
                .approx_eq(dense[idx as usize], 1e-12));
        }
    }

    #[test]
    fn outcome_probabilities_matches_dense_norms() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let h0 = dd.single_qubit_op(3, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(3, 1, &[0], Matrix2::pauli_x());
        let s = dd.mat_vec_mul(h0, s);
        let s = dd.mat_vec_mul(cx, s);
        let dense = dd.to_statevector(s, 3);
        let mut sparse = crate::fxhash::FxHashMap::default();
        dd.outcome_probabilities(s, 3, &mut |index, p| {
            assert!(sparse.insert(index, p).is_none(), "index visited twice");
        });
        for (idx, amp) in dense.iter().enumerate() {
            let expected = amp.norm_sqr();
            let got = sparse.get(&(idx as u64)).copied().unwrap_or(0.0);
            assert!((expected - got).abs() < 1e-12, "index {idx}");
        }
        // GHZ-like support: only |000> and |110> are populated.
        assert_eq!(sparse.len(), 2);
    }

    #[test]
    fn from_statevector_round_trips() {
        let mut dd = DdPackage::new();
        let amps = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(-0.5, 0.0),
            Complex::new(0.0, -0.5),
        ];
        let s = dd.from_statevector(&amps);
        let back = dd.to_statevector(s, 2);
        for (a, b) in amps.iter().zip(back.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn to_matrix_reconstructs_cnot() {
        let mut dd = DdPackage::new();
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let m = dd.to_matrix(cx, 2);
        let expected = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ];
        for r in 0..4 {
            for c in 0..4 {
                assert!(m[r][c].approx_eq(Complex::real(expected[r][c]), 1e-12));
            }
        }
    }

    #[test]
    fn figure_1a_bell_state_diagram_structure() {
        // Fig. 1a of the paper: the Bell state (|00> + |11>)/sqrt(2) uses one
        // q0 node and two q1 nodes.
        let mut dd = DdPackage::new();
        let amps = vec![
            Complex::real(FRAC_1_SQRT_2),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(FRAC_1_SQRT_2),
        ];
        let s = dd.from_statevector(&amps);
        assert_eq!(dd.vec_node_count(s), 3);
        // Root weight carries the common 1/sqrt(2) factor.
        assert!(dd
            .complex_value(s.weight)
            .approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    }
}
