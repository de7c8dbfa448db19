//! Measurement, sampling and collapse operations on vector decision
//! diagrams.
//!
//! Sampling a complete computational-basis measurement only requires a walk
//! from the root to the terminal: at each node the branch is chosen with
//! probability proportional to the squared norm of the corresponding
//! sub-diagram (which every node carries). This is what makes drawing
//! measurement outcomes from a decision diagram cheap even for many qubits.

use rand::Rng;

use crate::layered::Age;
use crate::node::VecEdge;
use crate::package::DdPackage;

/// Slot marker for an absent (terminal or zero-edge) successor.
const TERMINAL_SLOT: u32 = u32::MAX;

/// One flattened node of a [`SamplePlan`]: the branch probabilities and
/// successor slots [`DdPackage::sample_measurement`] would evaluate at this
/// node, with deterministic single-branch chains below each successor
/// collapsed into precomputed bits.
#[derive(Clone, Copy, Debug, Default)]
struct PlanNode {
    probabilities: [f64; 2],
    /// Landing slot per branch: the next node with a genuine branch
    /// decision (deterministic chains are skipped over).
    next: [u32; 2],
    /// Outcome bits contributed by taking a branch: the branch bit itself
    /// followed by its deterministic chain's bits.
    bits: [u64; 2],
    /// Levels consumed per branch (`1 +` chain length). The chain's levels
    /// still burn one generator draw each — their comparisons are
    /// predetermined, their stream consumption is not.
    levels: [u8; 2],
}

/// A precomputed walk table for drawing measurement outcomes from one
/// decision-diagram state (see [`DdPackage::sample_plan`]).
///
/// The plan borrows nothing: it stays valid for repeated draws as long as
/// the state it was built from is the intended one (it snapshots the
/// probabilities, so later package mutations do not affect it).
#[derive(Clone, Debug)]
pub struct SamplePlan {
    nodes: Vec<PlanNode>,
    root: u32,
    num_qubits: usize,
}

impl SamplePlan {
    /// Number of qubits an outcome covers.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Draws one complete measurement outcome.
    ///
    /// Bit-identical to [`DdPackage::sample_measurement`] on the plan's
    /// state for every generator state: the same branch probabilities feed
    /// the same comparisons, and the generator is advanced identically —
    /// one draw per decided level (including the deterministic chain levels
    /// the walk collapses, whose draws are burned without a comparison
    /// because their outcome is predetermined), none past a terminal and
    /// none for zero-probability levels.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut index: u64 = 0;
        let mut level = 0;
        let mut slot = self.root;
        while level < self.num_qubits {
            if slot == TERMINAL_SLOT {
                // Remaining qubits are unreachable; keep their bits zero,
                // exactly like the package walk. A full-width pad (64
                // remaining levels) only occurs with `index == 0`, which a
                // plain shift cannot express.
                let remaining = self.num_qubits - level;
                index = if remaining >= 64 {
                    0
                } else {
                    index << remaining
                };
                break;
            }
            let node = &self.nodes[slot as usize];
            let [p0, p1] = node.probabilities;
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            let taken = node.levels[bit] as usize;
            for _ in 1..taken {
                // Deterministic chain level: the package walk draws and
                // compares against a foregone conclusion; only the draw is
                // observable.
                let _ = rng.gen::<f64>();
            }
            // A 64-level step (the root deciding a full-width register in
            // one chain) replaces the whole index; a plain shift by 64
            // would overflow.
            index = if taken >= 64 {
                node.bits[bit]
            } else {
                (index << taken) | node.bits[bit]
            };
            level += taken;
            slot = node.next[bit];
        }
        index
    }
}

impl DdPackage {
    /// Probability of observing `|1>` on `qubit` when measuring the state
    /// `v` over `n` qubits.
    ///
    /// The state does not need to be normalised; the probability is relative
    /// to the state's norm.
    pub fn probability_one(&mut self, v: VecEdge, qubit: usize) -> f64 {
        let total = self.norm_sqr(v);
        if total <= 0.0 {
            return 0.0;
        }
        let p1 = self.excited_norm_sqr(v, qubit);
        (p1 / total).clamp(0.0, 1.0)
    }

    /// Squared norm of the component of `v` with `qubit` in `|1>`, i.e.
    /// `‖P1 v‖²` — [`probability_one`](Self::probability_one) without the
    /// division by the state's norm. Creates no node.
    ///
    /// An amplitude-damping exposure decays with probability `γ·‖P1 v‖²`
    /// (the squared norm of the decay branch `√γ|0><1| v`), so the branch
    /// draw can be made before either branch state is built.
    pub fn excited_norm_sqr(&mut self, v: VecEdge, qubit: usize) -> f64 {
        self.excitations(v, qubit, qubit)[0]
    }

    /// The excitations of two qubits in one walk:
    /// `[‖P1(a) v‖², ‖P1(b) v‖², ‖P1(a) P1(b) v‖²]` (all three equal when
    /// `a == b`). Creates no node.
    ///
    /// The simulator reads every decay threshold of a two-qubit step off
    /// the state the step's kept operator produced, with one call.
    pub fn excitations(&mut self, v: VecEdge, a: usize, b: usize) -> [f64; 3] {
        self.counters.threshold_walks += 1;
        let [top, bottom, both] = self.excitations_rec(v, a.min(b) as u16, a.max(b) as u16);
        if a <= b {
            [top, bottom, both]
        } else {
            [bottom, top, both]
        }
    }

    fn excitations_rec(&mut self, edge: VecEdge, top: u16, bottom: u16) -> [f64; 3] {
        if edge.is_zero() || edge.node.is_terminal() {
            // A qubit below the terminal does not exist.
            return [0.0; 3];
        }
        let wsq = self.ctable.norm_sqr(edge.weight);
        let node = self.vec_nodes[edge.node.index()];
        let one = node.edges[1];
        let excited = if one.is_zero() {
            0.0
        } else {
            self.ctable.norm_sqr(one.weight) * self.node_norm(one.node)
        };
        if node.var == top && top == bottom {
            return [wsq * excited; 3];
        }
        let key = (edge.node, top, bottom);
        if let Some(cached) = self.ct_excited.get(&key, Age::default().node(edge.node.0)) {
            return cached.map(|p| wsq * p);
        }
        // Values of the node with unit incoming weight.
        let p = if node.var == top {
            // The top qubit is decided here: all of its |1> branch is
            // excited on top; the bottom qubit's excitation lies below.
            let [zero_bottom, ..] = self.excitations_rec(node.edges[0], bottom, bottom);
            let [one_bottom, ..] = self.excitations_rec(one, bottom, bottom);
            [excited, zero_bottom + one_bottom, one_bottom]
        } else {
            let [a0, b0, c0] = self.excitations_rec(node.edges[0], top, bottom);
            let [a1, b1, c1] = self.excitations_rec(one, top, bottom);
            [a0 + a1, b0 + b1, c0 + c1]
        };
        self.ct_excited.live.insert(key, p);
        p.map(|p| wsq * p)
    }

    /// Draws one complete computational-basis measurement outcome from the
    /// state without collapsing it.
    ///
    /// The result is the basis-state index with qubit 0 as the most
    /// significant bit, matching [`DdPackage::basis_state_from_index`].
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector.
    pub fn sample_measurement<R: Rng + ?Sized>(
        &mut self,
        v: VecEdge,
        n: usize,
        rng: &mut R,
    ) -> u64 {
        assert!(!v.is_zero(), "cannot sample from the zero vector");
        assert!(n <= 64, "sampling supports at most 64 qubits");
        let mut index: u64 = 0;
        let mut edge = v;
        for level in 0..n {
            if edge.node.is_terminal() {
                // Remaining qubits are unreachable (zero amplitude elsewhere);
                // this only happens for malformed states, keep bits at zero.
                index <<= (n - level) as u32;
                break;
            }
            let node = self.vec_nodes[edge.node.index()];
            debug_assert_eq!(node.var as usize, level);
            let p0 = if node.edges[0].is_zero() {
                0.0
            } else {
                self.ctable.norm_sqr(node.edges[0].weight) * self.node_norm(node.edges[0].node)
            };
            let p1 = if node.edges[1].is_zero() {
                0.0
            } else {
                self.ctable.norm_sqr(node.edges[1].weight) * self.node_norm(node.edges[1].node)
            };
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            index = (index << 1) | bit as u64;
            edge = node.edges[bit];
        }
        index
    }

    /// Precomputes a [`SamplePlan`] for repeatedly drawing measurement
    /// outcomes from the state `v` over `n` qubits.
    ///
    /// The plan flattens every reachable node's branch probabilities — the
    /// exact values [`DdPackage::sample_measurement`] computes — into an
    /// array, so each subsequent draw costs `n` array steps instead of
    /// `O(n)` hash lookups and norm recursions. [`SamplePlan::sample`] is
    /// bit-identical to `sample_measurement` for every generator state:
    /// same probabilities, same comparisons, same stream consumption. Use
    /// it when many outcomes are drawn from one state (trajectory
    /// deduplication fans a whole shot group out of a single final state).
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector or `n > 64`.
    pub fn sample_plan(&mut self, v: VecEdge, n: usize) -> SamplePlan {
        assert!(!v.is_zero(), "cannot sample from the zero vector");
        assert!(n <= 64, "sampling supports at most 64 qubits");
        let mut plan = SamplePlan {
            nodes: Vec::new(),
            root: TERMINAL_SLOT,
            num_qubits: n,
        };
        if v.node.is_terminal() {
            return plan;
        }
        // Breadth-first flattening. The walk owns a stamp per arena node and
        // marks a node with `base +` its slot (earlier marks lie below
        // `base`); every edge descends one level, so successors get later
        // slots than their parents.
        let base = self.next_visit_stamps(self.vec_nodes.len() as u32);
        let mut order = std::mem::take(&mut self.visit_stack);
        order.clear();
        order.push(v.node);
        self.visit_marks[v.node.index()] = base;
        plan.root = 0;
        let mut at = 0;
        while let Some(&id) = order.get(at) {
            let node = self.vec_nodes[id.index()];
            let mut entry = PlanNode {
                probabilities: [0.0; 2],
                next: [TERMINAL_SLOT; 2],
                bits: [0, 1],
                levels: [1, 1],
            };
            for bit in 0..2 {
                let edge = node.edges[bit];
                if edge.is_zero() {
                    continue;
                }
                // The same product `sample_measurement` evaluates per
                // branch, so the comparisons below reproduce its draws bit
                // for bit.
                entry.probabilities[bit] =
                    self.ctable.norm_sqr(edge.weight) * self.node_norm(edge.node);
                if edge.node.is_terminal() {
                    continue;
                }
                let index = edge.node.index();
                if self.visit_marks[index] < base {
                    self.visit_marks[index] = base + order.len() as u32;
                    order.push(edge.node);
                }
                entry.next[bit] = self.visit_marks[index] - base;
            }
            plan.nodes.push(entry);
            at += 1;
        }
        self.visit_stack = order;

        // Collapse deterministic chains, children first: below a taken
        // branch, a node with exactly one branch of positive probability
        // contributes a fixed bit, so the walk precomputes the bits and only
        // burns the draws. Each branch extends its successor's once.
        for slot in (0..plan.nodes.len()).rev() {
            let mut entry = plan.nodes[slot];
            for bit in 0..2 {
                // A zero-probability branch (only reachable through the
                // zero-total fallback, which draws nothing) stays one step.
                let next = entry.next[bit];
                if entry.probabilities[bit] <= 0.0 || next == TERMINAL_SLOT {
                    continue;
                }
                debug_assert!(next as usize > slot, "successors lie below");
                let below = plan.nodes[next as usize];
                let chained = match below.probabilities {
                    [p0, p1] if p0 <= 0.0 && p1 > 0.0 => 1,
                    [p0, p1] if p1 <= 0.0 && p0 > 0.0 => 0,
                    // A genuine branch decision (or a zero-total pad, which
                    // consumes no draw): the chain ends here.
                    _ => continue,
                };
                let levels = below.levels[chained];
                entry.bits[bit] = ((bit as u64) << levels) | below.bits[chained];
                entry.levels[bit] = 1 + levels;
                entry.next[bit] = below.next[chained];
            }
            plan.nodes[slot] = entry;
        }
        plan
    }

    /// Projects the state onto `qubit = outcome` *without* renormalising.
    ///
    /// The squared norm of the returned state equals the probability of the
    /// outcome. Use [`DdPackage::normalize`] afterwards to obtain the
    /// post-measurement state.
    pub fn project(&mut self, v: VecEdge, qubit: usize, outcome: bool) -> VecEdge {
        self.project_rec(v, qubit as u16, outcome)
    }

    fn project_rec(&mut self, edge: VecEdge, target: u16, outcome: bool) -> VecEdge {
        if edge.is_zero() {
            return edge;
        }
        if edge.node.is_terminal() {
            return edge;
        }
        let key = (edge.node, target, outcome);
        if let Some(&cached) = self.ct_collapse.get(&key, Age::default().node(edge.node.0)) {
            return VecEdge {
                node: cached.node,
                weight: self.ctable.mul(edge.weight, cached.weight),
            };
        }
        let node = self.vec_nodes[edge.node.index()];
        let result = if node.var == target {
            let mut children = [VecEdge::zero(); 2];
            children[usize::from(outcome)] = node.edges[usize::from(outcome)];
            self.make_vec_node(node.var, children)
        } else {
            let c0 = self.project_rec(node.edges[0], target, outcome);
            let c1 = self.project_rec(node.edges[1], target, outcome);
            self.make_vec_node(node.var, [c0, c1])
        };
        self.ct_collapse.live.insert(key, result);
        VecEdge {
            node: result.node,
            weight: self.ctable.mul(edge.weight, result.weight),
        }
    }

    /// Measures a single qubit, collapses the state accordingly, and returns
    /// the observed outcome together with the renormalised post-measurement
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector.
    pub fn measure_qubit<R: Rng + ?Sized>(
        &mut self,
        v: VecEdge,
        qubit: usize,
        rng: &mut R,
    ) -> (bool, VecEdge) {
        assert!(!v.is_zero(), "cannot measure the zero vector");
        let p1 = self.probability_one(v, qubit);
        let outcome = rng.gen::<f64>() < p1;
        let projected = self.project(v, qubit, outcome);
        let collapsed = self.normalize(projected);
        (outcome, collapsed)
    }

    /// Applies a (possibly non-unitary) operator `m`, renormalises the
    /// result, and returns the acceptance probability (the squared norm
    /// before renormalisation) together with the new state.
    ///
    /// This is the primitive used for amplitude-damping Kraus branches
    /// (Example 6 of the paper): apply `A0` or `A1`, read off the branch
    /// probability, and keep the renormalised survivor.
    pub fn apply_kraus(&mut self, m: crate::node::MatEdge, v: VecEdge) -> (f64, VecEdge) {
        let unnormalised = self.mat_vec_mul(m, v);
        let p = self.norm_sqr(unnormalised);
        if p <= 0.0 {
            return (0.0, VecEdge::zero());
        }
        let normalised = self.normalize(unnormalised);
        (p, normalised)
    }

    /// Counts the distinct nodes reachable from `v` (the usual decision
    /// diagram size metric; the terminal is not counted).
    ///
    /// Marks visited nodes with a generation stamp in a reusable scratch
    /// buffer, so a warm package counts without allocating. Every node
    /// counted adds to [`TableStats::count_nodes`](crate::TableStats).
    pub fn vec_node_count(&mut self, v: VecEdge) -> usize {
        if v.is_zero() || v.node.is_terminal() {
            return 0;
        }
        let stamp = self.next_visit_stamps(1);
        let mut stack = std::mem::take(&mut self.visit_stack);
        stack.clear();
        stack.push(v.node);
        let mut count = 0usize;
        while let Some(node) = stack.pop() {
            if node.is_terminal() {
                continue;
            }
            let mark = &mut self.visit_marks[node.index()];
            if *mark == stamp {
                continue;
            }
            *mark = stamp;
            count += 1;
            for e in self.vec_nodes[node.index()].edges {
                if !e.is_zero() {
                    stack.push(e.node);
                }
            }
        }
        self.visit_stack = stack;
        self.counters.count_nodes += count as u64;
        count
    }

    /// The first of `span` fresh generation stamps for `visit_marks`, the
    /// scratch sized to the arena: every mark set before lies below it.
    fn next_visit_stamps(&mut self, span: u32) -> u32 {
        if self.visit_marks.len() < self.vec_nodes.len() {
            self.visit_marks.resize(self.vec_nodes.len(), 0);
        }
        if self.visit_stamp.checked_add(span).is_none() {
            // Stamps wrapped: invalidate every stale mark once.
            self.visit_marks.fill(0);
            self.visit_stamp = 0;
        }
        self.visit_stamp += span;
        self.visit_stamp + 1 - span
    }

    /// An upper bound of [`vec_node_count`](Self::vec_node_count)`(v)`, read
    /// in O(1) off the node. Equal to the count for chains and product states
    /// (GHZ, QFT outputs); a sub-diagram reached along several paths raises
    /// the bound above the count.
    pub fn vec_size_bound(&self, v: VecEdge) -> u64 {
        if v.node.is_terminal() {
            0
        } else {
            u64::from(self.vec_bounds[v.node.index()])
        }
    }

    /// Defers counting `v` for a walk that has reached `peak` nodes and whose
    /// deferred states are the first `pending` of the package's scratch
    /// stack: `v` is pushed only if its bound exceeds `peak`, dropping the
    /// entries above the walk's first. Returns the walk's new `pending`.
    pub fn defer_count(&mut self, pending: u32, peak: u64, v: VecEdge) -> u32 {
        if self.vec_size_bound(v) <= peak {
            return pending;
        }
        debug_assert!(
            pending as usize <= self.deferred.len(),
            "deferred counts clobbered"
        );
        self.deferred.truncate(pending as usize);
        self.deferred.push(v);
        self.deferred.len() as u32
    }

    /// Settles a walk's deferred counts (see [`defer_count`](Self::defer_count))
    /// newest-first, counting only the states whose bound still exceeds the
    /// peak, and empties the scratch stack. Returns the walk's exact peak.
    pub fn settle_counts(&mut self, pending: u32, mut peak: u64) -> u64 {
        debug_assert!(
            pending as usize <= self.deferred.len(),
            "deferred counts clobbered"
        );
        let mut deferred = std::mem::take(&mut self.deferred);
        for &state in deferred[..pending as usize].iter().rev() {
            if self.vec_size_bound(state) > peak {
                peak = peak.max(self.vec_node_count(state) as u64);
            }
        }
        deferred.clear();
        self.deferred = deferred;
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::matrix2::Matrix2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_state(dd: &mut DdPackage) -> VecEdge {
        let s = dd.zero_state(2);
        let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let s = dd.mat_vec_mul(h, s);
        dd.mat_vec_mul(cx, s)
    }

    #[test]
    fn probability_of_basis_states_is_deterministic() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state_from_index(3, 0b101);
        assert!((dd.probability_one(s, 0) - 1.0).abs() < 1e-12);
        assert!(dd.probability_one(s, 1).abs() < 1e-12);
        assert!((dd.probability_one(s, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_has_half_probability_on_each_qubit() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        assert!((dd.probability_one(bell, 0) - 0.5).abs() < 1e-12);
        assert!((dd.probability_one(bell, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_bell_state_only_yields_correlated_outcomes() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen00 = 0;
        let mut seen11 = 0;
        for _ in 0..2000 {
            match dd.sample_measurement(bell, 2, &mut rng) {
                0 => seen00 += 1,
                3 => seen11 += 1,
                other => panic!("impossible outcome {other} sampled from a Bell state"),
            }
        }
        // Both outcomes occur with roughly equal frequency.
        assert!(seen00 > 800 && seen11 > 800);
    }

    #[test]
    fn measuring_collapses_entangled_partner() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let mut rng = StdRng::seed_from_u64(7);
        let (outcome, collapsed) = dd.measure_qubit(bell, 0, &mut rng);
        // After measuring qubit 0, qubit 1 is deterministic and equal.
        let p1 = dd.probability_one(collapsed, 1);
        if outcome {
            assert!((p1 - 1.0).abs() < 1e-10);
        } else {
            assert!(p1.abs() < 1e-10);
        }
        assert!((dd.norm_sqr(collapsed) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn projection_norm_equals_probability() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let projected = dd.project(bell, 0, true);
        assert!((dd.norm_sqr(projected) - 0.5).abs() < 1e-12);
        let projected = dd.project(bell, 0, false);
        assert!((dd.norm_sqr(projected) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_kraus_branches_follow_example_6() {
        // |psi'> = (|00> + |11>)/sqrt(2); damping qubit 0 with probability p
        // yields branch probabilities p/2 and 1 - p/2 (Example 6).
        let p = 0.3;
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let a0 = dd.single_qubit_op(2, 0, Matrix2::amplitude_damping_a0(p));
        let a1 = dd.single_qubit_op(2, 0, Matrix2::amplitude_damping_a1(p));
        let (p0, s0) = dd.apply_kraus(a0, bell);
        let (p1, s1) = dd.apply_kraus(a1, bell);
        assert!((p0 - p / 2.0).abs() < 1e-12);
        assert!((p1 - (1.0 - p / 2.0)).abs() < 1e-12);
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
        // Branch 0 collapses to |01>.
        let v0 = dd.to_statevector(s0, 2);
        assert!((v0[1].abs() - 1.0).abs() < 1e-12);
        // Branch 1 keeps both components with reweighted amplitudes.
        let v1 = dd.to_statevector(s1, 2);
        assert!((v1[0].norm_sqr() - 1.0 / (2.0 - p)).abs() < 1e-12);
        assert!((v1[3].norm_sqr() - (1.0 - p) / (2.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn excitations_are_the_dense_marginals() {
        let n = 6;
        let mut rng = StdRng::seed_from_u64(11);
        let mut dd = DdPackage::new();
        for zero_qubit in [None, Some(0), Some(3), Some(5)] {
            // A random state; with `zero_qubit` its |1> branch is empty.
            let amplitudes: Vec<Complex> = (0..1usize << n)
                .map(|index| match zero_qubit {
                    Some(q) if index >> (n - 1 - q) & 1 == 1 => Complex::ZERO,
                    _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                })
                .collect();
            let state = dd.from_statevector(&amplitudes);
            let excited = |index: usize, q: usize| index >> (n - 1 - q) & 1 == 1;
            for a in 0..n {
                for b in 0..n {
                    let mut dense = [0.0; 3];
                    for (index, amplitude) in amplitudes.iter().enumerate() {
                        let p = amplitude.norm_sqr();
                        let (x, y) = (excited(index, a), excited(index, b));
                        dense[0] += if x { p } else { 0.0 };
                        dense[1] += if y { p } else { 0.0 };
                        dense[2] += if x && y { p } else { 0.0 };
                    }
                    let got = dd.excitations(state, a, b);
                    for (g, d) in got.iter().zip(dense) {
                        assert!((g - d).abs() < 1e-12, "{zero_qubit:?} ({a}, {b}): {got:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn node_counts_and_their_bounds() {
        let mut dd = DdPackage::new();
        // The Bell root's two children are distinct nodes.
        let bell = bell_state(&mut dd);
        assert_eq!((dd.vec_node_count(bell), dd.vec_size_bound(bell)), (3, 3));
        let zero = dd.zero_state(5);
        assert_eq!((dd.vec_node_count(zero), dd.vec_size_bound(zero)), (5, 5));
        // Repeated calls (new stamp generations) stay correct, and every
        // node counted is counted in the table stats.
        let before = dd.table_stats().count_nodes;
        assert_eq!(dd.vec_node_count(bell), 3);
        assert_eq!(dd.table_stats().count_nodes, before + 3);
        assert_eq!(dd.vec_node_count(crate::node::VecEdge::zero()), 0);
        // A child both edges share is bounded once: |++> is a chain.
        let one = crate::node::VecEdge::one();
        let plus = dd.make_vec_node(1, [one, one]);
        let half = dd.lookup_complex(Complex::real(0.5));
        let skewed = crate::node::VecEdge {
            weight: half,
            ..plus
        };
        let product = dd.make_vec_node(0, [plus, skewed]);
        assert_eq!(
            (dd.vec_node_count(product), dd.vec_size_bound(product)),
            (2, 2)
        );
        // Counting still works after a transient rollback.
        dd.mark_persistent();
        let s = dd.basis_state_from_index(4, 9);
        assert_eq!(dd.vec_node_count(s), 4);
        dd.reset_transient();
        let t = dd.zero_state(4);
        assert_eq!(dd.vec_node_count(t), 4);
    }

    #[test]
    fn deferred_counts_settle_to_the_exact_peak() {
        // A W-like state: the |0> chains below every level are shared, so
        // its bound exceeds its count.
        let n = 6;
        let mut dd = DdPackage::new();
        let amplitudes: Vec<Complex> = (0..1usize << n)
            .map(|index| Complex::real(f64::from(u8::from(index.count_ones() == 1))))
            .collect();
        let w = dd.from_statevector(&amplitudes);
        let basis = dd.zero_state(n);
        let (count, bound) = (dd.vec_node_count(w) as u64, dd.vec_size_bound(w));
        assert!(count < bound, "{count} vs {bound}");
        // A walk that met the W state, then the smaller basis state: both
        // are deferred, the W state is counted, the basis state is not.
        let pending = dd.defer_count(0, 0, w);
        let pending = dd.defer_count(pending, 0, basis);
        assert_eq!(pending, 2);
        let before = dd.table_stats().count_nodes;
        assert_eq!(dd.settle_counts(pending, n as u64), count);
        assert_eq!(dd.table_stats().count_nodes, before + count);
        // A state within the peak is not deferred; a walk drops the entries
        // above its own.
        assert_eq!(dd.defer_count(0, bound, w), 0);
        let pending = dd.defer_count(0, 0, w);
        assert_eq!(dd.defer_count(0, 0, basis), pending);
        assert_eq!(dd.settle_counts(pending, 0), n as u64);
    }

    #[test]
    fn sample_plan_reproduces_sample_measurement_bit_for_bit() {
        let mut dd = DdPackage::new();
        // A structured state (Bell pair padded with an excited qubit) plus
        // a plain basis state: both must sample identically via the plan.
        let bell = bell_state(&mut dd);
        let x1 = dd.single_qubit_op(2, 1, Matrix2::pauli_x());
        let skewed = dd.mat_vec_mul(x1, bell);
        for state in [bell, skewed] {
            let plan = dd.sample_plan(state, 2);
            assert_eq!(plan.num_qubits(), 2);
            for seed in 0..200u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                assert_eq!(
                    plan.sample(&mut rng_a),
                    dd.sample_measurement(state, 2, &mut rng_b),
                    "plan diverged for seed {seed}"
                );
                // Both paths must consume the identical amount of
                // randomness: the next draws agree.
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }
    }

    #[test]
    fn sample_plans_draw_like_the_package_walk_on_noisy_wide_states() {
        use rand::Rng;
        let mut dd = DdPackage::new();
        let mut rng = StdRng::seed_from_u64(64);
        let mut states = Vec::new();
        // GHZ-64 with a bit flip halfway: both branches end in 63-level
        // deterministic chains below the root, one of them broken.
        let n = 64;
        let mut ghz = dd.zero_state(n);
        let h = dd.single_qubit_op(n, 0, Matrix2::hadamard());
        ghz = dd.mat_vec_mul(h, ghz);
        for target in 1..n {
            let cx = dd.controlled_op(n, target, &[0], Matrix2::pauli_x());
            ghz = dd.mat_vec_mul(cx, ghz);
            if target == 40 {
                let flip = dd.single_qubit_op(n, 20, Matrix2::pauli_x());
                ghz = dd.mat_vec_mul(flip, ghz);
            }
        }
        states.push((ghz, n));
        // QFT-12 of a basis state, then a damping keep: non-uniform
        // magnitudes on a product state.
        let n = 12;
        let mut qft = dd.basis_state_from_index(n, 0b1011_0010_0110);
        for i in 0..n {
            let h = dd.single_qubit_op(n, i, Matrix2::hadamard());
            qft = dd.mat_vec_mul(h, qft);
            for j in i + 1..n {
                let angle = std::f64::consts::PI / (1u64 << (j - i)) as f64;
                let cp = dd.controlled_op(n, i, &[j], Matrix2::phase(angle));
                qft = dd.mat_vec_mul(cp, qft);
            }
        }
        let keep = dd.single_qubit_op(n, 5, Matrix2::amplitude_damping_a1(0.3));
        states.push((dd.apply_kraus(keep, qft).1, n));
        // Random states, some amplitudes zero so that chains appear.
        for sparsity in [0.0, 0.7, 0.95] {
            let amplitudes: Vec<Complex> = (0..1 << 10)
                .map(|_| match rng.gen::<f64>() < sparsity {
                    true => Complex::ZERO,
                    false => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                })
                .collect();
            let state = dd.from_statevector(&amplitudes);
            states.push((dd.normalize(state), 10));
        }
        for (state, n) in states {
            let plan = dd.sample_plan(state, n);
            for seed in 0..10_000u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                assert_eq!(
                    plan.sample(&mut rng_a),
                    dd.sample_measurement(state, n, &mut rng_b),
                    "{n} qubits, seed {seed}"
                );
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "stream diverged");
            }
        }
    }

    #[test]
    fn sample_plan_handles_full_width_registers() {
        // 64 qubits: a deterministic chain can cover the whole register in
        // one step, which must not overflow the index shift.
        let mut dd = DdPackage::new();
        let wide = dd.basis_state_from_index(64, 1);
        let plan = dd.sample_plan(wide, 64);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(
                plan.sample(&mut rng_a),
                dd.sample_measurement(wide, 64, &mut rng_b)
            );
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn sample_plan_handles_basis_states_without_draws() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state_from_index(4, 0b1010);
        let plan = dd.sample_plan(s, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(plan.sample(&mut rng), 0b1010);
        // Deterministic branches (p = 0 or 1 on one side still draw; only
        // zero-total levels skip). Cross-check stream position against the
        // package walk.
        let mut rng_ref = StdRng::seed_from_u64(1);
        let _ = dd.sample_measurement(s, 4, &mut rng_ref);
        assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>());
        let _ = before;
    }

    #[test]
    fn ghz_node_count_is_linear() {
        let mut dd = DdPackage::new();
        let n = 16;
        let mut state = dd.zero_state(n);
        let h = dd.single_qubit_op(n, 0, Matrix2::hadamard());
        state = dd.mat_vec_mul(h, state);
        for t in 1..n {
            let cx = dd.controlled_op(n, t, &[0], Matrix2::pauli_x());
            state = dd.mat_vec_mul(cx, state);
        }
        let count = dd.vec_node_count(state);
        // GHZ decision diagrams grow linearly with the number of qubits.
        assert!(count <= 2 * n, "GHZ DD has {count} nodes for {n} qubits");
    }
}
