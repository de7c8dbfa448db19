//! A dense state-vector representation of a pure quantum state.
//!
//! This is the array-based representation used by the baseline simulators
//! the paper compares against (Qiskit's statevector simulator and the Atos
//! QLM LinAlg simulator): all `2^n` amplitudes are stored explicitly and
//! every gate touches half (or a quarter) of them.
//!
//! The gate kernels walk the state in blocks of `2·mask` amplitudes (the
//! target qubit's bit is `mask`): each block splits into its `|0>` half
//! and its `|1>` half, and zipping the halves visits every amplitude pair
//! `(i, i | mask)` in safe slice code. The reductions sum fixed
//! [`CHUNK`]-sized chunks and then merge the per-chunk partial sums in
//! chunk order; every recorded damping threshold and output was computed
//! with that association, so it stays.

use qsdd_dd::{Complex, Matrix2};
use rand::Rng;

/// Fixed width (in pair or amplitude indices) of one reduction chunk. The
/// reductions add each chunk's partial sum in chunk order, so this
/// association is part of every result and must not change.
const CHUNK: usize = 1 << 14;

/// Applies `pair(i, a0, a1)` to every amplitude pair `(i, i | mask)`:
/// `a0` the amplitude with the `mask` bit clear, `a1` its partner.
fn for_each_pair(
    amps: &mut [Complex],
    mask: usize,
    mut pair: impl FnMut(usize, &mut Complex, &mut Complex),
) {
    for (block, amps) in amps.chunks_exact_mut(2 * mask).enumerate() {
        let (zero, one) = amps.split_at_mut(mask);
        let base = block * 2 * mask;
        for (offset, (a0, a1)) in zero.iter_mut().zip(one).enumerate() {
            pair(base + offset, a0, a1);
        }
    }
}

/// A dense `2^n` amplitude vector.
///
/// Qubit 0 is the most significant bit of the basis-state index, matching
/// the convention of the decision diagram package.
///
/// # Examples
///
/// ```
/// use qsdd_dd::Matrix2;
/// use qsdd_statevector::StateVector;
///
/// let mut state = StateVector::new(2);
/// state.apply_single(0, &Matrix2::hadamard());
/// state.apply_controlled(&[0], 1, &Matrix2::pauli_x());
/// assert!((state.probability_of_index(0b00) - 0.5).abs() < 1e-12);
/// assert!((state.probability_of_index(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zero basis state `|0...0>` over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 30` (the dense representation would not
    /// fit in memory).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "state must contain at least one qubit");
        assert!(
            n <= 30,
            "dense state vectors above 30 qubits are not supported"
        );
        let mut amplitudes = vec![Complex::ZERO; 1usize << n];
        amplitudes[0] = Complex::ONE;
        StateVector {
            num_qubits: n,
            amplitudes,
        }
    }

    /// Creates a state from explicit amplitudes (length must be `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two of at least 2.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        assert!(
            amplitudes.len() >= 2 && amplitudes.len().is_power_of_two(),
            "amplitude count must be a power of two"
        );
        StateVector {
            num_qubits: amplitudes.len().trailing_zeros() as usize,
            amplitudes,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Rewinds the state to `|0...0>` in place, without reallocating.
    ///
    /// This is the dense back-end's per-shot reset: a reused execution
    /// context calls it between shots instead of building a new vector.
    pub fn reset_to_zero(&mut self) {
        self.amplitudes.fill(Complex::ZERO);
        self.amplitudes[0] = Complex::ONE;
    }

    /// Overwrites the state with `source`, reusing this state's buffer.
    pub fn copy_from(&mut self, source: &StateVector) {
        self.num_qubits = source.num_qubits;
        self.amplitudes.clone_from(&source.amplitudes);
    }

    /// The raw amplitudes in basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: u64) -> Complex {
        self.amplitudes[index as usize]
    }

    /// The probability of observing basis state `index`.
    pub fn probability_of_index(&self, index: u64) -> f64 {
        self.amplitudes[index as usize].norm_sqr()
    }

    fn bit_mask(&self, qubit: usize) -> usize {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        1usize << (self.num_qubits - 1 - qubit)
    }

    /// Applies a single-qubit unitary (or Kraus operator) to `target`.
    pub fn apply_single(&mut self, target: usize, m: &Matrix2) {
        let mask = self.bit_mask(target);
        let (m00, m01) = (m.entry(0, 0), m.entry(0, 1));
        let (m10, m11) = (m.entry(1, 0), m.entry(1, 1));
        for_each_pair(&mut self.amplitudes, mask, |_, a0, a1| {
            let (x0, x1) = (*a0, *a1);
            *a0 = m00 * x0 + m01 * x1;
            *a1 = m10 * x0 + m11 * x1;
        });
    }

    /// Applies a single-qubit operator to `target`, conditioned on every
    /// qubit in `controls` being `|1>`.
    ///
    /// # Panics
    ///
    /// Panics if a control equals the target or an index is out of range.
    pub fn apply_controlled(&mut self, controls: &[usize], target: usize, m: &Matrix2) {
        if controls.is_empty() {
            return self.apply_single(target, m);
        }
        assert!(
            !controls.contains(&target),
            "control qubit equals the target"
        );
        let mask = self.bit_mask(target);
        let control_mask: usize = controls.iter().map(|&c| self.bit_mask(c)).sum();
        let (m00, m01) = (m.entry(0, 0), m.entry(0, 1));
        let (m10, m11) = (m.entry(1, 0), m.entry(1, 1));
        for_each_pair(&mut self.amplitudes, mask, |i, a0, a1| {
            if i & control_mask == control_mask {
                let (x0, x1) = (*a0, *a1);
                *a0 = m00 * x0 + m01 * x1;
                *a1 = m10 * x0 + m11 * x1;
            }
        });
    }

    /// Exchanges two qubits.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "swap requires two distinct qubits");
        // Each block of the higher bit splits into its `|0>` and `|1>`
        // halves; the lower bit's `|1>` quarter of the first half trades
        // places with the `|0>` quarter of the second:
        // `|..0..1..>` <-> `|..1..0..>`.
        let (high, low) = {
            let (ma, mb) = (self.bit_mask(a), self.bit_mask(b));
            (ma.max(mb), ma.min(mb))
        };
        for block in self.amplitudes.chunks_exact_mut(2 * high) {
            let (zero, one) = block.split_at_mut(high);
            for (zero, one) in zero
                .chunks_exact_mut(2 * low)
                .zip(one.chunks_exact_mut(2 * low))
            {
                zero[low..].swap_with_slice(&mut one[..low]);
            }
        }
    }

    /// Reduces `0..len` by fixed chunks: `reduce(lo, hi)` per chunk, the
    /// partials yielded in chunk order for the caller to merge.
    fn chunk_partials<T>(
        len: usize,
        reduce: impl Fn(usize, usize) -> T,
    ) -> impl Iterator<Item = T> {
        (0..len.div_ceil(CHUNK)).map(move |c| {
            let lo = c * CHUNK;
            reduce(lo, (lo + CHUNK).min(len))
        })
    }

    /// Sums `f(index, amplitude)` over all amplitudes by fixed chunks,
    /// merging the per-chunk partial sums in chunk order.
    fn chunked_sum(&self, f: impl Fn(usize, Complex) -> f64) -> f64 {
        let amps = &self.amplitudes;
        let sum_chunk = |lo: usize, hi: usize| {
            let mut acc = 0.0;
            for (offset, a) in amps[lo..hi].iter().enumerate() {
                acc += f(lo + offset, *a);
            }
            acc
        };
        Self::chunk_partials(amps.len(), sum_chunk).sum()
    }

    /// Squared Euclidean norm of the state.
    pub fn norm_sqr(&self) -> f64 {
        self.chunked_sum(|_, a| a.norm_sqr())
    }

    /// Rescales the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) zero.
    pub fn normalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 0.0, "cannot normalise the zero vector");
        for a in &mut self.amplitudes {
            *a = a.scale(1.0 / norm);
        }
    }

    /// Probability of observing `|1>` on `qubit` (relative to the norm).
    pub fn probability_one(&self, qubit: usize) -> f64 {
        let mask = self.bit_mask(qubit);
        let p1 = self.chunked_sum(|i, a| if i & mask != 0 { a.norm_sqr() } else { 0.0 });
        let total = self.norm_sqr();
        if total <= 0.0 {
            0.0
        } else {
            (p1 / total).clamp(0.0, 1.0)
        }
    }

    /// Squared norms of the `|0>` and `|1>` halves of `qubit`,
    /// `(‖P0 ψ‖², ‖P1 ψ‖²)`, in one read-only pass over the pair space
    /// (per-chunk partials merged in chunk order, like every reduction).
    /// All an amplitude-damping exposure needs before it touches the state:
    /// the decay branch `√γ|0><1| ψ` has relative weight `γ·one / (zero +
    /// one)`, and the weights fix the norm of whichever branch is applied.
    pub fn branch_weights(&self, qubit: usize) -> (f64, f64) {
        let mask = self.bit_mask(qubit);
        let low = mask - 1;
        let amps = &self.amplitudes;
        let weigh_chunk = |lo: usize, hi: usize| {
            let (mut zero, mut one) = (0.0, 0.0);
            for p in lo..hi {
                let i = ((p & !low) << 1) | (p & low);
                zero += amps[i].norm_sqr();
                one += amps[i | mask].norm_sqr();
            }
            (zero, one)
        };
        Self::chunk_partials(amps.len() >> 1, weigh_chunk).fold((0.0, 0.0), |(zero, one), part| {
            (zero + part.0, one + part.1)
        })
    }

    /// Applies the no-decay branch `diag(1, √(1-γ))` of amplitude damping
    /// to `qubit` and renormalises, in one in-place pass. `(zero, one)` are
    /// the state's [`branch_weights`](Self::branch_weights) on `qubit`.
    pub fn damping_keep(&mut self, qubit: usize, gamma: f64, (zero, one): (f64, f64)) {
        let mask = self.bit_mask(qubit);
        let norm = (zero + (1.0 - gamma) * one).sqrt();
        let (s0, s1) = (1.0 / norm, (1.0 - gamma).sqrt() / norm);
        for_each_pair(&mut self.amplitudes, mask, |_, a0, a1| {
            *a0 = a0.scale(s0);
            *a1 = a1.scale(s1);
        });
    }

    /// Applies the decay branch `√γ|0><1|` of amplitude damping to `qubit`
    /// and renormalises, in one in-place pass: the `|1>` half moves onto
    /// the `|0>` half scaled by `1/√one` (`γ` cancels against the norm),
    /// where `one` is the `|1>` weight of
    /// [`branch_weights`](Self::branch_weights).
    ///
    /// # Panics
    ///
    /// Panics if `one` is not positive: a qubit in `|0>` cannot decay.
    pub fn damping_decay(&mut self, qubit: usize, one: f64) {
        assert!(one > 0.0, "a qubit without |1> weight cannot decay");
        let mask = self.bit_mask(qubit);
        let scale = 1.0 / one.sqrt();
        for_each_pair(&mut self.amplitudes, mask, |_, a0, a1| {
            *a0 = a1.scale(scale);
            *a1 = Complex::ZERO;
        });
    }

    /// Draws one complete measurement outcome without collapsing the state:
    /// the first basis index whose running probability sum exceeds
    /// `r · total` (`r` one uniform draw, `total` the last running sum).
    /// [`sample_cumulative`] applies the same rule to the tabulated sums.
    pub fn sample_measurement<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let total = self
            .amplitudes
            .iter()
            .fold(0.0, |running, a| running + a.norm_sqr());
        let target = rng.gen::<f64>() * total;
        let mut running = 0.0;
        for (i, a) in self.amplitudes.iter().enumerate() {
            running += a.norm_sqr();
            if running > target {
                return i as u64;
            }
        }
        (self.amplitudes.len() - 1) as u64
    }

    /// The running sums `Σ_{k ≤ i} |a_k|²` in basis order: one pass builds
    /// the table [`sample_cumulative`] draws any number of outcomes from,
    /// where [`sample_measurement`](Self::sample_measurement) takes two per
    /// draw.
    pub fn cumulative_probabilities(&self) -> Vec<f64> {
        let sums = self.amplitudes.iter().scan(0.0, |running, a| {
            *running += a.norm_sqr();
            Some(*running)
        });
        sums.collect()
    }

    /// Projects onto `qubit = outcome` without renormalising; the squared
    /// norm of the result is the outcome probability.
    pub fn project(&mut self, qubit: usize, outcome: bool) {
        let mask = self.bit_mask(qubit);
        for (i, a) in self.amplitudes.iter_mut().enumerate() {
            let bit = i & mask != 0;
            if bit != outcome {
                *a = Complex::ZERO;
            }
        }
    }

    /// Measures one qubit, collapsing the state, and returns the outcome.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let p1 = self.probability_one(qubit);
        let outcome = rng.gen::<f64>() < p1;
        self.project(qubit, outcome);
        self.normalize();
        outcome
    }

    /// Resets a qubit to `|0>` by measuring it and flipping when needed.
    pub fn reset_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        let outcome = self.measure_qubit(qubit, rng);
        if outcome {
            self.apply_single(qubit, &Matrix2::pauli_x());
        }
    }

    /// Re-expresses the state under a qubit relabeling.
    ///
    /// `layout[q] = j` means: qubit `q` of the *returned* state takes the
    /// amplitude role of qubit `j` of `self`. Formally, for every basis
    /// index `b` of the result, `result[b] = self[b']` where bit `q` of `b`
    /// equals bit `layout[q]` of `b'`.
    ///
    /// This is how the transpiler's elided trailing SWAP gates are undone:
    /// running the optimized circuit and permuting with the recorded output
    /// layout reproduces the original circuit's state exactly.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not a permutation of `0..num_qubits`.
    pub fn permute_qubits(&self, layout: &[usize]) -> StateVector {
        let n = self.num_qubits;
        assert_eq!(layout.len(), n, "layout length must match the qubit count");
        let mut seen = vec![false; n];
        for &j in layout {
            assert!(j < n && !seen[j], "layout is not a permutation");
            seen[j] = true;
        }
        let mut amplitudes = vec![Complex::ZERO; self.amplitudes.len()];
        for (b, amp) in amplitudes.iter_mut().enumerate() {
            let mut source = 0usize;
            for (q, &j) in layout.iter().enumerate() {
                if b >> (n - 1 - q) & 1 == 1 {
                    source |= 1 << (n - 1 - j);
                }
            }
            *amp = self.amplitudes[source];
        }
        StateVector {
            num_qubits: n,
            amplitudes,
        }
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "states have different sizes"
        );
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }
}

/// Draws one measurement outcome from a state's
/// [`cumulative_probabilities`](StateVector::cumulative_probabilities) by
/// binary search — [`StateVector::sample_measurement`]'s rule, so both pick
/// the same index from the same draw.
pub fn sample_cumulative<R: Rng + ?Sized>(cumulative: &[f64], rng: &mut R) -> u64 {
    let total = *cumulative.last().expect("a state's table is never empty");
    let target = rng.gen::<f64>() * total;
    let index = cumulative.partition_point(|&running| running <= target);
    index.min(cumulative.len() - 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_state_is_all_zero_basis_state() {
        let s = StateVector::new(3);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.probability_of_index(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_the_most_significant_qubit() {
        let mut s = StateVector::new(3);
        s.apply_single(0, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0b100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_then_cx_creates_bell_state() {
        let mut s = StateVector::new(2);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of_index(3) - 0.5).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_gate_does_nothing_without_control() {
        let mut s = StateVector::new(2);
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut s = StateVector::new(2);
        s.apply_single(1, &Matrix2::pauli_x()); // |01>
        s.apply_swap(0, 1); // -> |10>
        assert!((s.probability_of_index(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        let mut s = StateVector::new(1);
        s.apply_single(0, &Matrix2::ry(2.0 * (0.3f64).sqrt().asin()));
        // Probability of |1> is 0.3 by construction.
        assert!((s.probability_one(0) - 0.3).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let ones: usize = (0..20_000)
            .map(|_| usize::from(s.sample_measurement(&mut rng) == 1))
            .sum();
        let rate = ones as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn measuring_collapses_the_state() {
        let mut s = StateVector::new(2);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = s.measure_qubit(0, &mut rng);
        let p1 = s.probability_one(1);
        if outcome {
            assert!((p1 - 1.0).abs() < 1e-10);
        } else {
            assert!(p1.abs() < 1e-10);
        }
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut s = StateVector::new(1);
        s.apply_single(0, &Matrix2::hadamard());
        let mut rng = StdRng::seed_from_u64(3);
        s.reset_qubit(0, &mut rng);
        assert!(s.probability_one(0).abs() < 1e-12);
    }

    #[test]
    fn permute_qubits_matches_an_explicit_swap() {
        // Prepare |01> then compare swap-as-gate against swap-as-relabeling.
        let mut swapped = StateVector::new(2);
        swapped.apply_single(1, &Matrix2::pauli_x());
        let relabeled = swapped.permute_qubits(&[1, 0]);
        swapped.apply_swap(0, 1);
        assert!((swapped.fidelity(&relabeled) - 1.0).abs() < 1e-12);
        assert!((relabeled.probability_of_index(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_layout_is_a_no_op() {
        let mut s = StateVector::new(3);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 2, &Matrix2::pauli_x());
        let p = s.permute_qubits(&[0, 1, 2]);
        assert_eq!(s, p);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_layout_panics() {
        let s = StateVector::new(2);
        s.permute_qubits(&[0, 0]);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut a = StateVector::new(2);
        a.apply_single(0, &Matrix2::hadamard());
        let b = a.clone();
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "qubit index out of range")]
    fn out_of_range_qubit_panics() {
        let mut s = StateVector::new(2);
        s.apply_single(5, &Matrix2::pauli_x());
    }

    /// A normalised pseudo-random state (every amplitude non-zero).
    fn random_state(n: usize, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        let amplitudes = (0..1usize << n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let mut state = StateVector::from_amplitudes(amplitudes);
        state.normalize();
        state
    }

    #[test]
    fn branch_weights_agree_with_the_two_pass_probability() {
        let mut state = random_state(10, 1);
        // Off unit norm, so the relative and absolute weights differ.
        state.apply_single(4, &Matrix2::amplitude_damping_a1(0.3));
        let total = state.norm_sqr();
        for qubit in 0..10 {
            let (zero, one) = state.branch_weights(qubit);
            assert!((one - state.probability_one(qubit) * total).abs() < 1e-12);
            assert!((zero + one - total).abs() < 1e-12);
        }
    }

    #[test]
    fn damping_kernels_agree_with_the_kraus_operators() {
        let gamma = 0.37;
        let state = random_state(10, 2);
        for qubit in [0, 4, 9] {
            let weights = state.branch_weights(qubit);
            let mut kept = state.clone();
            kept.damping_keep(qubit, gamma, weights);
            let mut decayed = state.clone();
            decayed.damping_decay(qubit, weights.1);
            let references = [
                Matrix2::amplitude_damping_a1(gamma),
                Matrix2::amplitude_damping_a0(gamma),
            ]
            .map(|kraus| {
                let mut reference = state.clone();
                reference.apply_single(qubit, &kraus);
                reference.normalize();
                reference
            });
            for (fused, reference) in [kept, decayed].iter().zip(&references) {
                for (a, b) in fused.amplitudes().iter().zip(reference.amplitudes()) {
                    assert!((*a - *b).abs() < 1e-12, "qubit {qubit}");
                }
            }
        }
    }

    /// The block-and-halves kernels against a reference that reaches each
    /// pair through its pair index (`i = ((p & !low) << 1) | (p & low)`),
    /// bit for bit; the swap against a qubit relabeling.
    #[test]
    fn slice_kernels_match_the_pair_index_formula() {
        let (n, m) = (15, Matrix2::u3(0.4, 1.1, -0.6));
        let state = random_state(n, 9);
        let reference = |target: usize, control_mask: usize| {
            let mut amps = state.amplitudes().to_vec();
            let mask = 1usize << (n - 1 - target);
            let low = mask - 1;
            for p in 0..amps.len() / 2 {
                let i = ((p & !low) << 1) | (p & low);
                if i & control_mask == control_mask {
                    let (a0, a1) = (amps[i], amps[i | mask]);
                    amps[i] = m.entry(0, 0) * a0 + m.entry(0, 1) * a1;
                    amps[i | mask] = m.entry(1, 0) * a0 + m.entry(1, 1) * a1;
                }
            }
            amps
        };
        let bits = |amps: &[Complex]| -> Vec<(u64, u64)> {
            amps.iter()
                .map(|a| (a.re.to_bits(), a.im.to_bits()))
                .collect()
        };
        for target in [0, 7, n - 1] {
            let mut single = state.clone();
            single.apply_single(target, &m);
            assert_eq!(bits(single.amplitudes()), bits(&reference(target, 0)));
            let control = (target + 3) % n;
            let mut controlled = state.clone();
            controlled.apply_controlled(&[control], target, &m);
            let control_mask = 1usize << (n - 1 - control);
            assert_eq!(
                bits(controlled.amplitudes()),
                bits(&reference(target, control_mask))
            );
        }
        for (a, b) in [(0, n - 1), (9, 2), (4, 5)] {
            let mut swapped = state.clone();
            swapped.apply_swap(a, b);
            let mut relabel: Vec<usize> = (0..n).collect();
            relabel.swap(a, b);
            assert_eq!(swapped, state.permute_qubits(&relabel));
        }
    }

    #[test]
    fn table_and_scan_pick_the_same_outcome_from_the_same_draw() {
        // A sparse state: zero-probability indices are never drawn.
        let mut state = random_state(6, 4);
        state.project(2, true);
        let cumulative = state.cumulative_probabilities();
        let mut scan_rng = StdRng::seed_from_u64(5);
        let mut table_rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let outcome = state.sample_measurement(&mut scan_rng);
            assert_eq!(outcome, sample_cumulative(&cumulative, &mut table_rng));
            assert!(state.probability_of_index(outcome) > 0.0);
        }
        assert_eq!(scan_rng.gen::<u64>(), table_rng.gen::<u64>());
    }
}
