//! Decision diagram arithmetic: addition, multiplication and inner products.
//!
//! All operations are recursive traversals over the node structure with
//! memoisation in the package's compute tables. Multiplication caches are
//! keyed on node ids only (the incoming edge weights factor out of the
//! bilinear operations). Addition does not factor completely, but one
//! operand's weight does — `x + y = w_x * (N_x + (w_y / w_x) * N_y)` — so the
//! vector addition cache is keyed on the two nodes and the weight *ratio*:
//! operand pairs that differ only by a common factor share one entry.
//!
//! The vector kernels carry the products and sums they compute on the way
//! down as scratch values (see [`crate::ComplexTable`]): only the child
//! weights of the nodes they make, the addition ratio keys and the weight
//! they return are interned.

use crate::complex::Complex;
use crate::layered::Age;
use crate::node::{MatEdge, VecEdge};
use crate::package::DdPackage;

impl DdPackage {
    /// Multiplies a matrix diagram onto a vector diagram (`m * v`).
    ///
    /// Both diagrams must have been built over the same number of qubits by
    /// this package.
    pub fn mat_vec_mul(&mut self, m: MatEdge, v: VecEdge) -> VecEdge {
        self.maybe_trim_caches();
        let product = self.mat_vec_rec(m, v);
        self.interned(product)
    }

    /// `m * v` as [`mat_vec_mul`](Self::mat_vec_mul) computes it, unless
    /// that takes `budget` compute misses or more: then `None`, the product
    /// left unfinished. The multiplies it gave up on are not cached; the
    /// nodes and sums it made stand for what they hold. The simulator's
    /// compile weighs a block product against its halves this way, inside
    /// a checkpoint it rolls back.
    pub fn mat_vec_mul_within(&mut self, m: MatEdge, v: VecEdge, budget: u64) -> Option<VecEdge> {
        self.miss_limit = self.counters.compute_misses.saturating_add(budget);
        let product = self.mat_vec_mul(m, v);
        let finished = self.counters.compute_misses < self.miss_limit;
        self.miss_limit = u64::MAX;
        finished.then_some(product)
    }

    /// `edge` with its weight interned, as a public operation returns it.
    fn interned(&mut self, edge: VecEdge) -> VecEdge {
        let weight = self.ctable.canonical(edge.weight);
        debug_assert!(self.ctable.is_canonical(weight));
        VecEdge {
            node: edge.node,
            weight,
        }
    }

    fn mat_vec_rec(&mut self, m: MatEdge, v: VecEdge) -> VecEdge {
        if m.is_zero() || v.is_zero() {
            return VecEdge::zero();
        }
        let weight = self.ctable.mul_scratch(m.weight, v.weight);
        // A scalar or identity operator only scales the vector: the levels a
        // gate does not touch are returned as they are instead of being
        // rebuilt node by node (rebuilding a canonical node finds itself in
        // the unique table, so the shortcut is bit-exact).
        if m.node.is_terminal() || self.mat_identity[m.node.index()] {
            return VecEdge {
                node: v.node,
                weight,
            };
        }
        debug_assert!(
            !v.node.is_terminal(),
            "operator extends below the state vector terminal"
        );
        if self.counters.compute_misses >= self.miss_limit {
            return VecEdge::zero();
        }
        let key = (m.node, v.node);
        // No matrix node is built while a checkpoint is open, and a matrix
        // id is only reused after a rewind, which empties every layer but
        // the frozen one (whose keys name persistent matrices alone): the
        // vector node alone dates the key.
        let age = Age::default().node(v.node.0);
        if let Some(&cached) = self.ct_mat_vec.get(&key, age) {
            self.counters.compute_hits += 1;
            let w = self.ctable.mul_scratch(weight, cached.weight);
            return VecEdge {
                node: cached.node,
                weight: w,
            };
        }
        let mnode = self.mat_nodes[m.node.index()];
        let vnode = self.vec_nodes[v.node.index()];
        debug_assert_eq!(
            mnode.var, vnode.var,
            "operator and state decide different qubits"
        );
        let mut children = [VecEdge::zero(); 2];
        for (r, child) in children.iter_mut().enumerate() {
            let p0 = self.mat_vec_rec(mnode.edges[2 * r], vnode.edges[0]);
            let p1 = self.mat_vec_rec(mnode.edges[2 * r + 1], vnode.edges[1]);
            *child = self.vec_add_rec(p0, p1);
        }
        let result = self.make_vec_node(mnode.var, children);
        self.counters.compute_misses += 1;
        self.ctable.pin(result.weight);
        // Past the limit a child may have given up: its product is not
        // this key's.
        if self.counters.compute_misses < self.miss_limit {
            self.ct_mat_vec.live.insert(key, result);
        }
        VecEdge {
            node: result.node,
            weight: self.ctable.mul_scratch(weight, result.weight),
        }
    }

    /// Adds two vector diagrams element-wise.
    pub fn vec_add(&mut self, a: VecEdge, b: VecEdge) -> VecEdge {
        self.maybe_trim_caches();
        let sum = self.vec_add_rec(a, b);
        self.interned(sum)
    }

    pub(crate) fn vec_add_rec(&mut self, a: VecEdge, b: VecEdge) -> VecEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == b.node {
            // Same node (or both terminal): only the weights add. Exact
            // cancellation must give the canonical zero edge.
            let weight = self.ctable.add_scratch(a.weight, b.weight);
            return if weight.is_zero() {
                VecEdge::zero()
            } else {
                VecEdge {
                    node: a.node,
                    weight,
                }
            };
        }
        debug_assert!(
            !a.node.is_terminal() && !b.node.is_terminal(),
            "cannot add vectors of different heights"
        );
        // Factor out the weight of larger magnitude: the sum is
        // `w_x * (N_x + ratio * N_y)` with the interned ratio inside the unit
        // disc. Keying on `(N_x, N_y, ratio)` instead of the weighted edges
        // is what keeps the recursion linear on product-like states, where
        // every level between two touched qubits meets the same node pair
        // again under a different common factor. Magnitudes equal up to the
        // table tolerance count as a tie and order by node id: after H or
        // SWAP both operands carry the same modulus, and letting round-off
        // pick the factored side would split one sum over two entries whose
        // results no longer merge.
        let (mag_a, mag_b) = (
            self.ctable.norm_sqr(a.weight),
            self.ctable.norm_sqr(b.weight),
        );
        let tie = (mag_a - mag_b).abs() <= self.ctable.tolerance() * (mag_a + mag_b);
        let a_first = if tie { a.node <= b.node } else { mag_a > mag_b };
        let (x, y) = if a_first { (a, b) } else { (b, a) };
        let ratio = self.ctable.div(y.weight, x.weight);
        let key = (x.node, y.node, ratio);
        let age = Age::default().node(x.node.0).node(y.node.0).weight(ratio);
        if let Some(&cached) = self.ct_vec_add.get(&key, age) {
            self.counters.compute_hits += 1;
            return VecEdge {
                node: cached.node,
                weight: self.ctable.mul_scratch(x.weight, cached.weight),
            };
        }
        let xn = self.vec_nodes[x.node.index()];
        let yn = self.vec_nodes[y.node.index()];
        debug_assert_eq!(xn.var, yn.var, "operands decide different qubits");
        let mut children = [VecEdge::zero(); 2];
        for (i, child) in children.iter_mut().enumerate() {
            let ey = VecEdge {
                node: yn.edges[i].node,
                weight: self.ctable.mul_scratch(ratio, yn.edges[i].weight),
            };
            *child = self.vec_add_rec(xn.edges[i], ey);
        }
        let result = self.make_vec_node(xn.var, children);
        self.counters.compute_misses += 1;
        self.ctable.pin(result.weight);
        self.ct_vec_add.live.insert(key, result);
        VecEdge {
            node: result.node,
            weight: self.ctable.mul_scratch(x.weight, result.weight),
        }
    }

    /// Computes the inner product `<a|b>` (conjugate-linear in `a`).
    pub fn inner_product(&mut self, a: VecEdge, b: VecEdge) -> Complex {
        self.maybe_trim_caches();
        self.inner_rec(a, b)
    }

    fn inner_rec(&mut self, a: VecEdge, b: VecEdge) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        let w = self.ctable.value(a.weight).conj() * self.ctable.value(b.weight);
        if a.node.is_terminal() && b.node.is_terminal() {
            return w;
        }
        debug_assert!(
            !a.node.is_terminal() && !b.node.is_terminal(),
            "cannot take inner product of vectors of different heights"
        );
        let age = Age::default().node(a.node.0).node(b.node.0);
        if let Some(&cached) = self.ct_inner.get(&(a.node, b.node), age) {
            self.counters.compute_hits += 1;
            return cached * w;
        }
        let an = self.vec_nodes[a.node.index()];
        let bn = self.vec_nodes[b.node.index()];
        debug_assert_eq!(an.var, bn.var, "operands decide different qubits");
        let mut sum = Complex::ZERO;
        for i in 0..2 {
            sum += self.inner_rec(an.edges[i], bn.edges[i]);
        }
        self.counters.compute_misses += 1;
        self.ct_inner.live.insert((a.node, b.node), sum);
        sum * w
    }

    /// Squared Euclidean norm of the vector represented by `v`: one read of
    /// the norm its root node was made with.
    pub fn norm_sqr(&mut self, v: VecEdge) -> f64 {
        let w = self.ctable.norm_sqr(v.weight);
        w * self.node_norm(v.node)
    }

    /// Fidelity `|<a|b>|^2` between two (normalised) states.
    pub fn fidelity(&mut self, a: VecEdge, b: VecEdge) -> f64 {
        self.inner_product(a, b).norm_sqr()
    }

    /// Divides the top edge weight so that the state has unit norm.
    ///
    /// Returns the zero edge unchanged.
    pub fn normalize(&mut self, v: VecEdge) -> VecEdge {
        if v.is_zero() {
            return v;
        }
        let norm = self.norm_sqr(v).sqrt();
        let value = self.ctable.value(v.weight).scale(1.0 / norm);
        VecEdge {
            node: v.node,
            weight: self.ctable.lookup(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::FRAC_1_SQRT_2;
    use crate::matrix2::Matrix2;
    use crate::package::TableStats;

    fn bell_state(dd: &mut DdPackage) -> VecEdge {
        let s = dd.zero_state(2);
        let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let s = dd.mat_vec_mul(h, s);
        dd.mat_vec_mul(cx, s)
    }

    #[test]
    fn bell_state_has_expected_amplitudes() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let v = dd.to_statevector(bell, 2);
        assert!((v[0].re - FRAC_1_SQRT_2).abs() < 1e-12);
        assert!(v[1].abs() < 1e-12);
        assert!(v[2].abs() < 1e-12);
        assert!((v[3].re - FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn norm_is_preserved_by_unitaries() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        assert!((dd.norm_sqr(bell) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn vector_addition_matches_dense_addition() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state_from_index(2, 0);
        let b = dd.basis_state_from_index(2, 3);
        let sum = dd.vec_add(a, b);
        let v = dd.to_statevector(sum, 2);
        assert!((v[0].re - 1.0).abs() < 1e-12);
        assert!((v[3].re - 1.0).abs() < 1e-12);
        assert!(v[1].abs() < 1e-12 && v[2].abs() < 1e-12);
    }

    #[test]
    fn adding_opposite_vectors_gives_zero() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state_from_index(2, 1);
        let minus_one = dd.lookup_complex(Complex::real(-1.0));
        let neg = VecEdge {
            node: a.node,
            weight: minus_one,
        };
        let sum = dd.vec_add(a, neg);
        assert!(sum.is_zero());
    }

    #[test]
    fn same_node_addition_only_adds_the_weights() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let third = dd.lookup_complex(Complex::new(0.25, -0.5));
        let scaled = VecEdge {
            node: bell.node,
            weight: third,
        };
        let before = (dd.stats().vec_nodes, dd.table_stats());
        let sum = dd.vec_add(bell, scaled);
        assert_eq!(sum.node, bell.node);
        let expected = dd.complex_value(bell.weight) + Complex::new(0.25, -0.5);
        assert!(dd.complex_value(sum.weight).approx_eq(expected, 1e-12));
        // No recursion: no node, no compute-table traffic — only the one
        // search that interns the returned weight.
        let interned = TableStats {
            complex_lookups: before.1.complex_lookups + 1,
            complex_inserts: before.1.complex_inserts + 1,
            ..before.1
        };
        assert_eq!(
            (dd.stats().vec_nodes, dd.table_stats()),
            (before.0, interned)
        );
    }

    /// `alpha * |01> + beta * |10>` operands for the ratio-key tests.
    fn weighted(dd: &mut DdPackage, index: u64, w: Complex) -> VecEdge {
        let basis = dd.basis_state_from_index(2, index);
        VecEdge {
            node: basis.node,
            weight: dd.lookup_complex(w),
        }
    }

    #[test]
    fn operand_pairs_differing_by_a_common_factor_share_one_cache_entry() {
        let mut dd = DdPackage::new();
        let (alpha, beta) = (Complex::new(0.6, 0.1), Complex::new(-0.2, 0.3));
        let c = Complex::new(0.3, -0.7);
        let a = weighted(&mut dd, 1, alpha);
        let b = weighted(&mut dd, 2, beta);
        let ca = weighted(&mut dd, 1, c * alpha);
        let cb = weighted(&mut dd, 2, c * beta);
        let before = dd.table_stats();
        let first = dd.vec_add(a, b);
        let second = dd.vec_add(ca, cb);
        let delta = dd.table_stats().since(&before);
        // The first add descends one level below the root pair (the second
        // level meets a zero operand); the second add is a single root hit.
        assert_eq!(delta.compute_misses, 1);
        assert_eq!(delta.compute_hits, 1);
        assert_eq!(first.node, second.node);
        let ratio = dd.complex_value(second.weight) / dd.complex_value(first.weight);
        assert!(ratio.approx_eq(c, 1e-12));
        let v = dd.to_statevector(second, 2);
        assert!(v[1].approx_eq(c * alpha, 1e-12) && v[2].approx_eq(c * beta, 1e-12));
    }

    /// H then `phase(0.1 + 0.37 q)` on every qubit `q` of `|0...0>`: a
    /// product state whose every level carries a different weight pair.
    fn phased_product_state(dd: &mut DdPackage, n: usize) -> VecEdge {
        let mut state = dd.zero_state(n);
        for q in 0..n {
            let h = dd.single_qubit_op(n, q, Matrix2::hadamard());
            state = dd.mat_vec_mul(h, state);
            let p = dd.single_qubit_op(n, q, Matrix2::phase(0.1 + 0.37 * q as f64));
            state = dd.mat_vec_mul(p, state);
        }
        state
    }

    #[test]
    fn long_range_swap_on_a_product_state_costs_linear_work() {
        let n = 16;
        let mut dd = DdPackage::new();
        let state = phased_product_state(&mut dd, n);
        let swap = dd.swap_op(n, 0, n - 1);
        dd.clear_caches();
        let tables = dd.table_stats();
        let stats = dd.stats();
        let swapped = dd.mat_vec_mul(swap, state);
        let misses = dd.table_stats().since(&tables).compute_misses;
        let new_values = dd.stats().complex_values - stats.complex_values;
        let nodes = dd.vec_node_count(swapped);
        // Keyed on weighted edges the sums between the swapped qubits met
        // every node pair under ever new common factors: 2 803 misses, 822
        // new values and a 1 380-node result. The swapped state is still a
        // product state, so all three must stay linear in the qubit count.
        assert!(misses <= 8 * n as u64, "{misses} compute misses");
        assert!(new_values <= 4 * n, "{new_values} new complex values");
        assert!(nodes <= 2 * n, "{nodes} nodes");
        let reference = {
            let mut dense = dd.to_statevector(state, n);
            for index in 0..dense.len() {
                let (top, bottom) = (index >> (n - 1) & 1, index & 1);
                if top == 0 && bottom == 1 {
                    dense.swap(index, index ^ (1 << (n - 1)) ^ 1);
                }
            }
            dense
        };
        let got = dd.to_statevector(swapped, n);
        assert!(got
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.approx_eq(*b, 1e-9)));
    }

    #[test]
    fn equal_modulus_children_normalise_canonically() {
        // After the swap both children of many nodes carry the same modulus;
        // an exact comparison let round-off pick the normalising side, so
        // the swapped state came out as 22 nodes with a root of its own
        // instead of the 16-node state built with the swapped phases.
        let n = 16;
        let mut dd = DdPackage::new();
        let state = phased_product_state(&mut dd, n);
        let swap = dd.swap_op(n, 0, n - 1);
        let swapped = dd.mat_vec_mul(swap, state);
        let mut direct = dd.zero_state(n);
        for q in 0..n {
            let h = dd.single_qubit_op(n, q, Matrix2::hadamard());
            direct = dd.mat_vec_mul(h, direct);
            let phased = match q {
                0 => n - 1,
                q if q == n - 1 => 0,
                q => q,
            };
            let p = dd.single_qubit_op(n, q, Matrix2::phase(0.1 + 0.37 * phased as f64));
            direct = dd.mat_vec_mul(p, direct);
        }
        assert_eq!(dd.vec_node_count(swapped), n);
        assert_eq!(swapped.node, direct.node);
    }

    #[test]
    fn a_budgeted_multiply_gives_up_at_its_budget_and_caches_nothing_wrong() {
        let n = 12;
        let mut dd = DdPackage::new();
        let state = phased_product_state(&mut dd, n);
        let swap = dd.swap_op(n, 0, n - 1);
        let (mut full, mut short) = (dd.clone(), dd.clone());
        let before = full.table_stats().compute_misses;
        let product = full.mat_vec_mul(swap, state);
        let misses = full.table_stats().compute_misses - before;
        assert!(misses > 4, "{misses}");
        let within = dd.mat_vec_mul_within(swap, state, misses + 1);
        assert_eq!(within, Some(product));
        assert_eq!(
            dd.mat_vec_mul_within(swap, state, 1),
            Some(product),
            "cached"
        );
        // Given up half way, the multiply caches none of what it cut short:
        // the full multiply after it computes the product again.
        assert_eq!(short.mat_vec_mul_within(swap, state, misses / 2), None);
        let again = short.mat_vec_mul(swap, state);
        let (expected, got) = (
            full.to_statevector(product, n),
            short.to_statevector(again, n),
        );
        assert!(expected
            .iter()
            .zip(&got)
            .all(|(a, b)| a.approx_eq(*b, 1e-12)));
    }

    #[test]
    fn identity_operator_returns_its_operand_without_any_work() {
        let n = 16;
        let mut dd = DdPackage::new();
        let state = phased_product_state(&mut dd, n);
        let identity = dd.identity_op(n);
        let before = (dd.stats().vec_nodes, dd.table_stats());
        assert_eq!(dd.mat_vec_mul(identity, state), state);
        assert_eq!((dd.stats().vec_nodes, dd.table_stats()), before);
        // A gate on the bottom qubit is not an identity anywhere above it,
        // a gate on the top qubit is one everywhere below it.
        let bottom = dd.single_qubit_op(n, n - 1, Matrix2::pauli_x());
        let top = dd.single_qubit_op(n, 0, Matrix2::pauli_x());
        let tables = dd.table_stats();
        let _ = dd.mat_vec_mul(top, state);
        let top_misses = dd.table_stats().since(&tables).compute_misses;
        let tables = dd.table_stats();
        let _ = dd.mat_vec_mul(bottom, state);
        let bottom_misses = dd.table_stats().since(&tables).compute_misses;
        assert_eq!(top_misses, 1, "only the touched level is rebuilt");
        assert!(bottom_misses >= n as u64);
    }

    #[test]
    fn inner_product_of_orthogonal_states_is_zero() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state_from_index(3, 2);
        let b = dd.basis_state_from_index(3, 5);
        assert!(dd.inner_product(a, b).abs() < 1e-12);
        assert!((dd.inner_product(a, a).re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_detects_phase() {
        let mut dd = DdPackage::new();
        let plus = {
            let s = dd.zero_state(1);
            let h = dd.single_qubit_op(1, 0, Matrix2::hadamard());
            dd.mat_vec_mul(h, s)
        };
        let minus = {
            let s = dd.basis_state_from_index(1, 1);
            let h = dd.single_qubit_op(1, 0, Matrix2::hadamard());
            dd.mat_vec_mul(h, s)
        };
        assert!(dd.inner_product(plus, minus).abs() < 1e-12);
        assert!((dd.fidelity(plus, plus) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state_from_index(2, 0);
        let b = dd.basis_state_from_index(2, 3);
        let sum = dd.vec_add(a, b); // norm^2 = 2
        let normalized = dd.normalize(sum);
        assert!((dd.norm_sqr(normalized) - 1.0).abs() < 1e-10);
    }
}
