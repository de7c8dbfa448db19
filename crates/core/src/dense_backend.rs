//! The dense statevector back-end: the baseline the paper compares against.
//!
//! This back-end runs exactly the same stochastic noise-injection protocol
//! as the decision-diagram back-end but stores the state as a flat `2^n`
//! amplitude array (like Qiskit's statevector simulator or the Atos QLM
//! LinAlg simulator). Its per-gate cost is Θ(2ⁿ) regardless of any
//! structure in the state, which is what limits the baselines in Table I.
//!
//! Compilation resolves every gate to its concrete matrix once (no per-shot
//! trigonometry) and snapshots the noise-channel operator tables; the
//! execution context keeps one amplitude buffer that is rewound in place
//! between shots instead of being reallocated. An amplitude-damping
//! exposure reads both branch weights off the state, takes its decision and
//! applies only the selected branch in place, so no probe copy exists.
//!
//! One step walker (`walk`) serves live shots, pattern replays and the
//! compile-time pass that records the no-error path's damping thresholds,
//! each with its own `Decisions` source — which is what lets this back-end
//! share trajectories exactly like the decision-diagram one (see
//! [`crate::dedup`]).

use qsdd_circuit::{Circuit, Operation};
use qsdd_dd::Matrix2;
use qsdd_noise::{ErrorChannel, ErrorPattern, NoiseModel, PresamplePlan, SiteChannel, Survival};
use qsdd_statevector::{sample_cumulative, StateVector};
use rand::rngs::StdRng;

use crate::backend::{next_program_id, pack_clbits, SingleRun, StochasticBackend};
use crate::decisions::{Decisions, Replayed, Sampled};
use crate::dedup::{DedupSupport, Member};
use crate::estimator::Observable;

/// One executable step of a compiled dense program.
#[derive(Clone, Debug)]
enum DenseStep {
    /// Apply the resolved matrix to `target` under `controls`, then expose
    /// `noise_qubits` to the channels.
    Gate {
        matrix: Matrix2,
        target: usize,
        controls: Vec<usize>,
        noise_qubits: Vec<usize>,
    },
    /// Exchange two qubits, then expose them to the channels.
    Swap {
        a: usize,
        b: usize,
        noise_qubits: Vec<usize>,
    },
    /// Projective measurement into a classical bit.
    Measure { qubit: usize, clbit: usize },
    /// Reset to `|0>`.
    Reset { qubit: usize },
}

/// A compiled circuit + noise model pair for the dense back-end: the
/// resolved step list, per-channel operator tables and — for unitary
/// programs — the presampleable exposure sites.
#[derive(Clone, Debug)]
pub struct DenseProgram {
    id: u64,
    num_qubits: usize,
    num_clbits: usize,
    measured_any: bool,
    steps: Vec<DenseStep>,
    channels: Vec<ErrorChannel>,
    /// `unitaries[channel][i]`: the channel's `i`-th unitary error matrix.
    unitaries: Vec<Vec<Matrix2>>,
    /// The program's noise-exposure sites in protocol order, damping sites
    /// carrying the decay threshold recorded along the no-error path;
    /// `None` when a measurement or reset consumes randomness mid-shot, so
    /// the shots' error decisions cannot be presampled.
    sites: Option<Vec<SiteChannel>>,
    /// The candidate process of every exposure site ([`qsdd_noise::presample`]).
    survival: Survival,
    /// The sites that absorb a Z error (see `crate::frame`).
    pub(crate) absorbing: Vec<bool>,
}

impl DenseProgram {
    /// Number of qubits of the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of executable steps (barriers are compiled away).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The exposure sites of a unitary program (see `sites`). With a
    /// state-dependent channel in the noise model this walks the no-error
    /// path once — one shot's cost, in a buffer freed on return — and
    /// records the decay threshold every damping exposure meets there,
    /// through the same walker and kernels every shot runs.
    fn record_sites(&self) -> Option<Vec<SiteChannel>> {
        let mut exposures = 0;
        for step in &self.steps {
            match step {
                DenseStep::Gate { noise_qubits, .. } | DenseStep::Swap { noise_qubits, .. } => {
                    exposures += noise_qubits.len()
                }
                DenseStep::Measure { .. } | DenseStep::Reset { .. } => return None,
            }
        }
        let mut thresholds = Vec::new();
        if self.channels.iter().any(ErrorChannel::state_dependent) {
            let no_error = ErrorPattern::default();
            let mut recording = Replayed::new(&no_error, Some(&mut thresholds));
            let mut state = StateVector::new(self.num_qubits);
            walk(self, &mut state, &mut recording, &mut []);
        }
        let mut thresholds = thresholds.into_iter();
        let sites = (0..exposures)
            .flat_map(|_| &self.channels)
            .map(|channel| {
                if channel.state_dependent() {
                    let p_decay = thresholds.next().expect("one threshold per damping site");
                    let gamma = channel.probability();
                    SiteChannel::Damping { gamma, p_decay }
                } else {
                    SiteChannel::Passive(*channel)
                }
            })
            .collect();
        Some(sites)
    }
}

/// Walks every step of `program` over `state`, taking each stochastic
/// decision from `decisions`, and returns the number of error events that
/// fired. The one place this back-end applies gates and exposes qubits to
/// noise: live shots, pattern replays and threshold recording differ only
/// in their decision source, so equal decisions give equal bits.
fn walk<D: Decisions>(
    program: &DenseProgram,
    state: &mut StateVector,
    decisions: &mut D,
    clbits: &mut [bool],
) -> usize {
    let mut error_events = 0;
    let mut site = 0u32;
    for step in &program.steps {
        let noise_qubits: &[usize] = match step {
            DenseStep::Gate {
                matrix,
                target,
                controls,
                noise_qubits,
            } => {
                state.apply_controlled(controls, *target, matrix);
                noise_qubits
            }
            DenseStep::Swap { a, b, noise_qubits } => {
                state.apply_swap(*a, *b);
                noise_qubits
            }
            DenseStep::Measure { qubit, clbit } => {
                clbits[*clbit] = state.measure_qubit(*qubit, decisions.rng());
                continue;
            }
            DenseStep::Reset { qubit } => {
                state.reset_qubit(*qubit, decisions.rng());
                continue;
            }
        };
        for &qubit in noise_qubits {
            for (channel, unitaries) in program.channels.iter().zip(&program.unitaries) {
                if channel.state_dependent() {
                    // Amplitude damping (Example 6 of the paper): the decay
                    // branch `√γ|0><1|` has relative weight `γ·one/(zero +
                    // one)`. The threshold is read off the state first, so
                    // only the branch the decision selects is ever applied;
                    // either branch needs the weights, so every exposure
                    // reads them.
                    let gamma = channel.probability();
                    let (zero, one) = state.branch_weights(qubit);
                    if decisions.decays(site, channel, || gamma * one / (zero + one)) {
                        error_events += 1;
                        state.damping_decay(qubit, one);
                    } else {
                        state.damping_keep(qubit, gamma, (zero, one));
                    }
                } else if let Some(u) = decisions.error(site, channel) {
                    error_events += 1;
                    state.apply_single(qubit, &unitaries[u]);
                }
                site += 1;
            }
        }
    }
    error_events
}

/// A reusable per-worker execution context for the dense back-end: the live
/// amplitude buffer, rewound in place.
#[derive(Clone, Debug)]
pub struct DenseContext {
    state: StateVector,
    seated: u64,
}

impl DenseContext {
    /// Creates an unseated context.
    pub fn new() -> Self {
        DenseContext {
            state: StateVector::new(1),
            seated: 0,
        }
    }

    /// Rewinds the live buffer to `|0...0>`, reallocating only when the
    /// context moves to a program with a different qubit count — every
    /// shot starts from the zero state, so the buffer is reusable across
    /// programs of equal width.
    fn seat(&mut self, program: &DenseProgram) {
        if self.seated != 0 && self.state.num_qubits() == program.num_qubits {
            self.state.reset_to_zero();
        } else {
            self.state = StateVector::new(program.num_qubits);
        }
        self.seated = program.id;
    }

    /// Read access to the most recent shot's final state.
    pub fn state(&self) -> &StateVector {
        &self.state
    }
}

impl Default for DenseContext {
    fn default() -> Self {
        DenseContext::new()
    }
}

/// The dense statevector simulator back-end (the "Qiskit"/"QLM" stand-in).
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseSimulator;

impl DenseSimulator {
    /// Creates the back-end.
    pub fn new() -> Self {
        DenseSimulator
    }
}

impl StochasticBackend for DenseSimulator {
    /// The final state lives in the context ([`DenseContext::state`]); the
    /// run itself carries no extra handle.
    type State = ();
    type Program = DenseProgram;
    type Context = DenseContext;

    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> DenseProgram {
        let channels = noise.channels();
        let mut steps = Vec::with_capacity(circuit.len());
        let mut measured_any = false;
        for op in circuit {
            match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let matrix = gate
                        .matrix()
                        .expect("non-swap gates always provide a matrix");
                    steps.push(DenseStep::Gate {
                        matrix,
                        target: *target,
                        controls: controls.clone(),
                        noise_qubits: op.qubits(),
                    });
                }
                Operation::Swap { a, b } => steps.push(DenseStep::Swap {
                    a: *a,
                    b: *b,
                    noise_qubits: op.qubits(),
                }),
                Operation::Measure { qubit, clbit } => {
                    measured_any = true;
                    steps.push(DenseStep::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Operation::Reset { qubit } => steps.push(DenseStep::Reset { qubit: *qubit }),
                Operation::Barrier => {}
            }
        }
        let unitaries = channels.iter().map(ErrorChannel::unitaries).collect();
        let exposures = circuit
            .iter()
            .filter(|op| op.is_unitary())
            .flat_map(|op| op.qubits());
        let rates = exposures.flat_map(|_| channels.iter().map(ErrorChannel::candidate_rate));
        let survival = Survival::new(rates);
        let absorbing = crate::frame::absorbing_sites(circuit, channels.len());
        let mut program = DenseProgram {
            id: next_program_id(),
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            measured_any,
            steps,
            channels,
            unitaries,
            sites: None,
            survival,
            absorbing,
        };
        program.sites = program.record_sites();
        program
    }

    fn new_context(&self) -> DenseContext {
        DenseContext::new()
    }

    fn run_shot(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        rng: &mut StdRng,
        absorbing: &[bool],
    ) -> SingleRun<()> {
        ctx.seat(program);
        let mut clbits = vec![false; program.num_clbits];
        let sites = program.survival.len() as u32;
        let mut decisions = Sampled::start(rng, (&program.survival, absorbing), 0, sites);
        let fired = walk(program, &mut ctx.state, &mut decisions, &mut clbits);
        let absorbed = decisions.absorbed as usize;
        let outcome = if program.measured_any {
            pack_clbits(&clbits)
        } else {
            ctx.state.sample_measurement(rng)
        };
        SingleRun {
            outcome,
            clbits,
            error_events: fired + absorbed,
            absorbed,
            dd_nodes: 0,
            dd_nodes_peak: 0,
            state: (),
        }
    }

    fn evaluate(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &mut SingleRun<()>,
        observable: &Observable,
    ) -> f64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "evaluate must use the context the run executed in"
        );
        match observable {
            Observable::BasisProbability(index) => ctx.state.probability_of_index(*index),
            Observable::QubitExcitation(qubit) => ctx.state.probability_one(*qubit),
            Observable::Fidelity(reference) => {
                let reference = StateVector::from_amplitudes(reference.clone());
                reference.fidelity(&ctx.state)
            }
        }
    }

    fn dedup_support(&self, program: &DenseProgram) -> Option<DedupSupport> {
        let sites = program.sites.clone()?;
        Some(DedupSupport {
            plan: PresamplePlan::new(sites),
            prefix_steps: program.steps.len(),
            full: true,
        })
    }

    fn run_pattern(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        pattern: &ErrorPattern,
        learned: Option<&mut Vec<f64>>,
    ) -> SingleRun<()> {
        ctx.seat(program);
        let mut replayed = Replayed::new(pattern, learned);
        let error_events = walk(program, &mut ctx.state, &mut replayed, &mut []);
        debug_assert!(replayed.exhausted(), "pattern events beyond the program");
        SingleRun {
            // Each member samples its own outcome from the shared state.
            outcome: 0,
            clbits: vec![false; program.num_clbits],
            error_events,
            absorbed: 0,
            dd_nodes: 0,
            dd_nodes_peak: 0,
            state: (),
        }
    }

    fn sample_outcome(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &SingleRun<()>,
        rng: &mut StdRng,
    ) -> u64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcome must use the context the pattern ran in"
        );
        ctx.state.sample_measurement(rng)
    }

    fn sample_outcomes(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        run: &SingleRun<()>,
        shots: &mut [Member],
        mut sink: impl FnMut(&Member, u64),
    ) {
        // A lone member scans the amplitudes directly; tabulating the
        // running sums first only pays off from the second draw on.
        if let [member] = shots {
            let outcome = self.sample_outcome(program, ctx, run, &mut member.1);
            return sink(member, outcome);
        }
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcomes must use the context the pattern ran in"
        );
        // The table holds the running sums `sample_measurement` forms, so
        // every member draws the index it would have drawn alone — by
        // binary search instead of two passes over the shared state.
        let cumulative = ctx.state.cumulative_probabilities();
        for member in shots.iter_mut() {
            let outcome = sample_cumulative(&cumulative, &mut member.1);
            sink(member, outcome);
        }
    }

    fn outcome_distribution(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &SingleRun<()>,
        sink: &mut dyn FnMut(u64, f64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "outcome_distribution must use the context the pattern ran in"
        );
        // Same outcome convention as `sample_measurement`: the amplitude
        // index with qubit 0 as the most significant bit.
        for (index, amplitude) in ctx.state.amplitudes().iter().enumerate() {
            let probability = amplitude.norm_sqr();
            if probability > 0.0 {
                sink(index as u64, probability);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::ghz;
    use qsdd_noise::ErrorEvent;
    use rand::{Rng, SeedableRng};

    #[test]
    fn noiseless_ghz_yields_correlated_outcomes() {
        let backend = DenseSimulator::new();
        let circuit = ghz(6);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            assert!(run.outcome == 0 || run.outcome == 0b111111);
        }
    }

    #[test]
    fn observables_match_dd_backend_for_noiseless_runs() {
        use crate::dd_backend::DdSimulator;
        let circuit = ghz(5);
        let noiseless = NoiseModel::noiseless();
        let dense = DenseSimulator::new();
        let dd = DdSimulator::new();
        let dense_program = dense.compile(&circuit, &noiseless);
        let dd_program = dd.compile(&circuit, &noiseless);
        let mut dense_ctx = dense.new_context();
        let mut dd_ctx = dd.new_context();
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let mut run_a = dense.run_shot(&dense_program, &mut dense_ctx, &mut rng_a, &[]);
        let mut run_b = dd.run_shot(&dd_program, &mut dd_ctx, &mut rng_b, &[]);
        for observable in [
            Observable::BasisProbability(0),
            Observable::BasisProbability(31),
            Observable::QubitExcitation(3),
        ] {
            let a = dense.evaluate(&dense_program, &mut dense_ctx, &mut run_a, &observable);
            let b = dd.evaluate(&dd_program, &mut dd_ctx, &mut run_b, &observable);
            assert!(
                (a - b).abs() < 1e-10,
                "observable {observable:?}: dense {a} vs dd {b}"
            );
        }
    }

    #[test]
    fn damping_eventually_decays_an_excited_qubit() {
        let backend = DenseSimulator::new();
        let mut circuit = Circuit::new(1);
        // Many identity gates, each exposing the qubit to T1 decay.
        circuit.x(0);
        for _ in 0..200 {
            circuit.gate(qsdd_circuit::Gate::I, 0);
        }
        let noise = NoiseModel::new(0.0, 0.05, 0.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(123);
        let mut decays = 0;
        for _ in 0..50 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            if run.outcome == 0 {
                decays += 1;
            }
        }
        // With 200 damping opportunities at 5% each, decay is near certain.
        assert!(decays >= 48, "only {decays} of 50 runs decayed");
    }

    #[test]
    fn certain_damping_forces_decay_on_the_live_path() {
        // p = 1 amplitude damping: the first X excites qubit 0 for a
        // certain decay, the CX then exposes two qubits in |0> (threshold
        // 0: the keep branch, no event) and the second X excites qubit 1
        // for another certain decay. Every exposure draws against the
        // threshold first and applies only the selected branch.
        let backend = DenseSimulator::new();
        let mut circuit = Circuit::new(2);
        circuit.x(0).cx(0, 1).x(1);
        let noise = NoiseModel::new(0.0, 1.0, 0.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            assert_eq!(run.outcome, 0, "both qubits must end in |0>");
            assert_eq!(run.error_events, 2);
            // Four certain candidates — a waiting time before each and a
            // thinning draw at each — and one full-register sample.
            let mut reference = StdRng::seed_from_u64(seed);
            for _ in 0..9 {
                let _ = reference.gen::<f64>();
            }
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
        }
    }

    #[test]
    fn pattern_replays_learn_the_thresholds_past_their_last_event() {
        let backend = DenseSimulator::new();
        let program = backend.compile(&ghz(4), &NoiseModel::paper_defaults());
        let mut ctx = backend.new_context();
        // The empty pattern walks the no-error path: it meets exactly the
        // thresholds compilation recorded, one per damping site.
        let mut learned = Vec::new();
        let empty = ErrorPattern::default();
        backend.run_pattern(&program, &mut ctx, &empty, Some(&mut learned));
        let sites = program.sites.as_ref().expect("unitary programs presample");
        let no_error: Vec<f64> = sites
            .iter()
            .filter_map(|site| match site {
                SiteChannel::Damping { p_decay, .. } => Some(*p_decay),
                SiteChannel::Passive(_) => None,
            })
            .collect();
        assert_eq!(learned, no_error);
        assert_eq!(no_error.len() * 3, sites.len(), "one damping site in three");
        // A decay at the first damping site (site 1, after the H on qubit
        // 0) leaves qubit 0 in |0>: only the sites behind it are learned,
        // and qubit 0's later exposure can no longer decay.
        let decayed = empty.with_event(ErrorEvent {
            site: 1,
            error: ErrorEvent::DECAY,
        });
        learned.clear();
        let run = backend.run_pattern(&program, &mut ctx, &decayed, Some(&mut learned));
        assert_eq!(run.error_events, 1);
        assert_eq!(learned.len(), no_error.len() - 1);
        assert_eq!(learned[0], 0.0, "a decayed qubit has nothing left to lose");
    }

    #[test]
    fn sample_outcomes_draw_identically_for_one_member_and_for_many() {
        // A lone member scans the amplitudes, a group binary-searches the
        // running-sum table.
        let backend = DenseSimulator::new();
        let program = backend.compile(&ghz(5), &NoiseModel::paper_defaults());
        crate::backend::testing::assert_groups_draw_like_lone_members(&backend, &program);
    }

    #[test]
    fn reused_context_reproduces_fresh_context_shots_exactly() {
        let backend = DenseSimulator::new();
        let mut circuit = ghz(4);
        circuit.measure_all();
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        let mut reused = backend.new_context();
        for seed in 0..32u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = backend.run_shot(&program, &mut reused, &mut rng_a, &program.absorbing);
            let mut fresh = backend.new_context();
            let b = backend.run_shot(&program, &mut fresh, &mut rng_b, &program.absorbing);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.clbits, b.clbits);
            assert_eq!(a.error_events, b.error_events);
            assert_eq!(reused.state(), fresh.state(), "reuse changed the state");
        }
    }
}
