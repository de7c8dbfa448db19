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
//! each with its own `Decisions` source; the bucket walk of
//! [`crate::dedup`] takes the same exposures one decision point at a time
//! and forks its children off a stack of amplitude copies in the context.
//! That is what lets this back-end share trajectories exactly like the
//! decision-diagram one.

use qsdd_circuit::{Circuit, Operation};
use qsdd_dd::Matrix2;
use qsdd_noise::{ErrorChannel, ErrorEvent, NoiseModel, PresamplePlan, SiteChannel, Survival};
use qsdd_statevector::{sample_cumulative, StateVector};
use rand::rngs::StdRng;

use crate::backend::{next_program_id, pack_clbits, SingleRun, StochasticBackend};
use crate::decisions::{Decisions, Recording, Sampled};
use crate::dedup::{DecisionPoints, DedupSupport, Member, Seat};
use crate::estimator::Observable;

/// One executable step of a compiled dense program.
#[derive(Clone, Debug)]
enum DenseStep {
    /// Apply the resolved matrix to `target` under `controls`.
    Gate {
        matrix: Matrix2,
        target: usize,
        controls: Vec<usize>,
    },
    /// Exchange two qubits.
    Swap { a: usize, b: usize },
    /// Expose `qubit` to the model's `channel`-th channel: one exposure
    /// site. A unitary step is followed by one per touched qubit and
    /// channel, in protocol order.
    Expose { qubit: usize, channel: usize },
    /// Projective measurement into a classical bit.
    Measure { qubit: usize, clbit: usize },
    /// Reset to `|0>`.
    Reset { qubit: usize },
}

/// A compiled circuit + noise model pair for the dense back-end: the
/// resolved step list, per-channel operator tables and the presampleable
/// exposure sites of its unitary prefix.
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
    /// The deduplicable prefix: the steps before the first measurement or
    /// reset, whose error decisions can be presampled.
    prefix: usize,
    /// The exposure sites before `prefix`, in protocol order, damping sites
    /// carrying the decay threshold recorded along the no-error path.
    sites: Vec<SiteChannel>,
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

    /// The presample plan over the deduplicable prefix, and whether it is
    /// the whole program.
    pub(crate) fn dedup_support(&self) -> DedupSupport {
        DedupSupport {
            plan: PresamplePlan::new(self.sites.clone()),
            full: self.prefix == self.steps.len(),
        }
    }

    /// The exposure sites of the deduplicable prefix (see `sites`). With a
    /// state-dependent channel in the noise model this walks the prefix's
    /// no-error path once — one shot's cost, in a buffer freed on return —
    /// and records the decay threshold every damping exposure meets there,
    /// through the same walker and kernels every shot runs.
    fn record_sites(&self) -> Vec<SiteChannel> {
        let mut recording = Recording(Vec::new());
        if self.channels.iter().any(ErrorChannel::state_dependent) {
            let mut state = StateVector::new(self.num_qubits);
            advance(self, &mut state, &mut Position::default(), &mut recording);
        }
        let mut thresholds = recording.0.into_iter();
        (self.steps[..self.prefix].iter())
            .filter_map(|step| match step {
                DenseStep::Expose { channel, .. } => Some(&self.channels[*channel]),
                _ => None,
            })
            .map(|channel| {
                if channel.state_dependent() {
                    let p_decay = thresholds.next().expect("one threshold per damping site");
                    let gamma = channel.probability();
                    SiteChannel::Damping { gamma, p_decay }
                } else {
                    SiteChannel::Passive(*channel)
                }
            })
            .collect()
    }

    /// Moves `at` to its next exposure over `state`, applying the unitary
    /// steps on the way; `None` at a measurement, a reset or the end of the
    /// program.
    fn exposure(&self, state: &mut StateVector, at: &mut Position) -> Option<Exposure> {
        loop {
            match self.steps.get(at.step)? {
                DenseStep::Gate {
                    matrix,
                    target,
                    controls,
                } => state.apply_controlled(controls, *target, matrix),
                DenseStep::Swap { a, b } => state.apply_swap(*a, *b),
                &DenseStep::Expose { qubit, channel } => {
                    // Either damping branch needs the weights, so every
                    // damping exposure reads them.
                    let weights = match self.channels[channel].state_dependent() {
                        true => state.branch_weights(qubit),
                        false => (0.0, 0.0),
                    };
                    let site = at.site;
                    return Some(Exposure {
                        qubit,
                        channel,
                        site,
                        weights,
                    });
                }
                DenseStep::Measure { .. } | DenseStep::Reset { .. } => return None,
            }
            at.step += 1;
        }
    }
}

/// Where a dense walk is — at step `step`, exposure site `site` — and the
/// error events it fired so far.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Position {
    step: usize,
    site: u32,
    error_events: usize,
}

/// One exposure of a dense walk, a decision point: its qubit, the index of
/// its channel and its site, with the branch weights `(|0>, |1>)` a damping
/// channel reads off the state.
pub(crate) struct Exposure {
    qubit: usize,
    channel: usize,
    site: u32,
    weights: (f64, f64),
}

impl Exposure {
    /// The event `decisions` fire at the exposure, if any.
    fn decide<D: Decisions>(
        &self,
        program: &DenseProgram,
        decisions: &mut D,
    ) -> Option<ErrorEvent> {
        let channel = &program.channels[self.channel];
        let error = if channel.state_dependent() {
            // Amplitude damping (Example 6 of the paper): the decay branch
            // `√γ|0><1|` has relative weight `γ·one/(zero + one)`. The
            // threshold is read off the state first, so only the branch the
            // decision selects is ever applied.
            let ((zero, one), gamma) = (self.weights, channel.probability());
            let decays = decisions.decays(self.site, channel, || gamma * one / (zero + one));
            decays.then_some(ErrorEvent::DECAY)
        } else {
            decisions.error(self.site, channel).map(|u| u as u8)
        };
        error.map(|error| ErrorEvent {
            site: self.site,
            error,
        })
    }

    /// Applies the branch `event` selects (`None`: nothing fired) and moves
    /// `at` past the exposure.
    fn apply(
        &self,
        program: &DenseProgram,
        state: &mut StateVector,
        at: &mut Position,
        event: Option<ErrorEvent>,
    ) {
        let (qubit, channel) = (self.qubit, &program.channels[self.channel]);
        match event.map(|event| event.error) {
            Some(ErrorEvent::DECAY) => state.damping_decay(qubit, self.weights.1),
            Some(u) => state.apply_single(qubit, &program.unitaries[self.channel][usize::from(u)]),
            None if channel.state_dependent() => {
                state.damping_keep(qubit, channel.probability(), self.weights)
            }
            None => {}
        }
        at.error_events += usize::from(event.is_some());
        (at.step, at.site) = (at.step + 1, at.site + 1);
    }
}

/// Walks `program` over `state` from `at` to its next measurement, reset or
/// end, taking each stochastic decision from `decisions`. The one place this
/// back-end applies gates and exposes qubits to noise, exposure by exposure:
/// live shots, pattern replays, threshold recording and bucket walks differ
/// only in their decision source, so equal decisions give equal bits.
fn advance<D: Decisions>(
    program: &DenseProgram,
    state: &mut StateVector,
    at: &mut Position,
    decisions: &mut D,
) {
    while let Some(exposure) = program.exposure(state, at) {
        let event = exposure.decide(program, decisions);
        exposure.apply(program, state, at, event);
    }
}

/// Walks `program` over `state` from `at` to its end: [`advance`], and the
/// measurements and resets between.
fn walk<D: Decisions>(
    program: &DenseProgram,
    state: &mut StateVector,
    at: &mut Position,
    decisions: &mut D,
    clbits: &mut [bool],
) {
    loop {
        advance(program, state, at, decisions);
        match program.steps.get(at.step) {
            Some(DenseStep::Measure { qubit, clbit }) => {
                clbits[*clbit] = state.measure_qubit(*qubit, decisions.rng())
            }
            Some(DenseStep::Reset { qubit }) => state.reset_qubit(*qubit, decisions.rng()),
            _ => return,
        }
        at.step += 1;
    }
}

/// The most bytes of amplitude copies a [`DenseContext`] keeps for bucket
/// walks to fork from: 256 levels of a 14-qubit state, one of a 22-qubit
/// state, none from 23 qubits on. A fork past it runs its shots live.
pub const CHECKPOINT_BYTES: usize = 64 << 20;

/// A reusable per-worker execution context for the dense back-end: the live
/// amplitude buffer, rewound in place, and a stack of amplitude copies for
/// bucket walks to fork from, at most [`CHECKPOINT_BYTES`] of them.
#[derive(Clone, Debug)]
pub struct DenseContext {
    state: StateVector,
    /// The amplitudes at each open checkpoint, outermost first; the levels
    /// past `open` are buffers kept from earlier forks, copied into in
    /// place.
    saved: Vec<StateVector>,
    open: usize,
    /// Counts seatings: a seating closes the checkpoints opened before it.
    seatings: u64,
    seated: u64,
}

impl DenseContext {
    /// Creates an unseated context.
    pub fn new() -> Self {
        DenseContext {
            state: StateVector::new(1),
            saved: Vec::new(),
            open: 0,
            seatings: 0,
            seated: 0,
        }
    }

    /// Rewinds the live buffer to `|0...0>`, reallocating only when the
    /// context moves to a program with a different qubit count — every
    /// shot starts from the zero state, so the buffer is reusable across
    /// programs of equal width — and closes every checkpoint.
    fn seat(&mut self, program: &DenseProgram) {
        if self.seated != 0 && self.state.num_qubits() == program.num_qubits {
            self.state.reset_to_zero();
        } else {
            self.state = StateVector::new(program.num_qubits);
            self.saved.clear();
        }
        (self.seated, self.open, self.seatings) = (program.id, 0, self.seatings + 1);
    }

    /// Opens a checkpoint — a copy of the amplitudes on the stack — and
    /// returns its seating; `None` when one more copy would pass
    /// [`CHECKPOINT_BYTES`].
    fn checkpoint(&mut self) -> Option<u64> {
        if (self.open + 1) * std::mem::size_of_val(self.state.amplitudes()) > CHECKPOINT_BYTES {
            return None;
        }
        match self.saved.get_mut(self.open) {
            Some(level) => level.copy_from(&self.state),
            None => self.saved.push(self.state.clone()),
        }
        self.open += 1;
        Some(self.seatings)
    }

    /// Returns the amplitudes to `checkpoint`, the innermost open one, bit
    /// for bit, and closes it; `false` when it was refused or a seating
    /// closed it.
    fn rollback(&mut self, checkpoint: Option<u64>) -> bool {
        if checkpoint != Some(self.seatings) {
            return false;
        }
        self.open -= 1;
        std::mem::swap(&mut self.state, &mut self.saved[self.open]);
        true
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
            steps.push(match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let matrix = gate
                        .matrix()
                        .expect("non-swap gates always provide a matrix");
                    let (target, controls) = (*target, controls.clone());
                    DenseStep::Gate {
                        matrix,
                        target,
                        controls,
                    }
                }
                &Operation::Swap { a, b } => DenseStep::Swap { a, b },
                &Operation::Measure { qubit, clbit } => {
                    measured_any = true;
                    DenseStep::Measure { qubit, clbit }
                }
                &Operation::Reset { qubit } => DenseStep::Reset { qubit },
                Operation::Barrier => continue,
            });
            let touched = op.qubits().into_iter().filter(|_| op.is_unitary());
            let exposures = touched.flat_map(|qubit| (0..channels.len()).map(move |c| (qubit, c)));
            steps.extend(exposures.map(|(qubit, channel)| DenseStep::Expose { qubit, channel }));
        }
        let unitaries = channels.iter().map(ErrorChannel::unitaries).collect();
        let rates = steps.iter().filter_map(|step| match step {
            DenseStep::Expose { channel, .. } => Some(channels[*channel].candidate_rate()),
            _ => None,
        });
        let survival = Survival::new(rates);
        let absorbing = crate::frame::absorbing_sites(circuit, channels.len());
        let random = |step: &_| matches!(step, DenseStep::Measure { .. } | DenseStep::Reset { .. });
        let prefix = steps.iter().position(random).unwrap_or(steps.len());
        let mut program = DenseProgram {
            id: next_program_id(),
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            measured_any,
            steps,
            channels,
            unitaries,
            prefix,
            sites: Vec::new(),
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
        let next = program.survival.next(rng, 0, program.sites.len() as u32);
        let mut seat = Seat {
            program,
            ctx,
            absorbing,
        };
        Self::finish_live(&mut seat, Position::default(), (next, rng, 0))
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
        Some(program.dedup_support())
    }
}

impl DecisionPoints for DenseSimulator {
    type Walk = Position;
    type Point = Exposure;
    type Checkpoint = Option<u64>;

    fn start(seat: &mut Seat<'_, Self>) -> Position {
        seat.ctx.seat(seat.program);
        Position::default()
    }

    fn restarts(program: &DenseProgram, _: &Position) -> bool {
        program.prefix == 0
    }

    fn point(seat: &mut Seat<'_, Self>, at: &mut Position) -> Option<(u32, Exposure)> {
        let exposure = seat.program.exposure(&mut seat.ctx.state, at)?;
        Some((exposure.site + 1, exposure))
    }

    fn draw<D: Decisions>(
        seat: &mut Seat<'_, Self>,
        _: &Position,
        exposure: &mut Exposure,
        decisions: &mut D,
    ) -> Option<ErrorEvent> {
        exposure.decide(seat.program, decisions)
    }

    fn fire(
        seat: &mut Seat<'_, Self>,
        mut at: Position,
        exposure: &Exposure,
        event: ErrorEvent,
    ) -> Position {
        exposure.apply(seat.program, &mut seat.ctx.state, &mut at, Some(event));
        at
    }

    fn pass(seat: &mut Seat<'_, Self>, at: &mut Position, exposure: Exposure) {
        exposure.apply(seat.program, &mut seat.ctx.state, at, None);
    }

    fn checkpoint(ctx: &mut DenseContext) -> Option<u64> {
        ctx.checkpoint()
    }

    fn rollback(ctx: &mut DenseContext, checkpoint: Option<u64>) -> bool {
        ctx.rollback(checkpoint)
    }

    fn finish_live(
        seat: &mut Seat<'_, Self>,
        mut at: Position,
        (next, rng, absorbed): (u32, &mut StdRng, u32),
    ) -> SingleRun<()> {
        let (program, state) = (seat.program, &mut seat.ctx.state);
        let mut clbits = vec![false; program.num_clbits];
        // The prefix's sites with the shot's stream at candidate `next`,
        // then the sites behind it with a stream that draws its first
        // candidate where they start — the decision-diagram back-end's
        // split, so the dedup and per-shot paths draw one stream.
        let (process, sites) = (
            (&program.survival, seat.absorbing),
            program.sites.len() as u32,
        );
        let mut prefix = Sampled::new(rng, process, next, sites);
        advance(program, state, &mut at, &mut prefix);
        let absorbed = absorbed + prefix.absorbed;
        let mut rest = Sampled::start(rng, process, sites, program.survival.len() as u32);
        walk(program, state, &mut at, &mut rest, &mut clbits);
        let absorbed = (absorbed + rest.absorbed) as usize;
        let outcome = match program.measured_any {
            true => pack_clbits(&clbits),
            false => state.sample_measurement(rng),
        };
        let run = Self::prefix_run(seat, &mut at);
        SingleRun {
            outcome,
            clbits,
            error_events: at.error_events + absorbed,
            absorbed,
            ..run
        }
    }

    fn prefix_run(seat: &mut Seat<'_, Self>, at: &mut Position) -> SingleRun<()> {
        SingleRun {
            // Each member samples its own outcome from the shared state.
            outcome: 0,
            clbits: vec![false; seat.program.num_clbits],
            error_events: at.error_events,
            absorbed: 0,
            dd_nodes: 0,
            dd_nodes_peak: 0,
            state: (),
        }
    }

    fn survival(program: &DenseProgram) -> &Survival {
        &program.survival
    }

    fn sample_outcomes(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &SingleRun<()>,
        shots: &mut [Member],
        mut sink: impl FnMut(&Member, u64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcomes must use the context the pattern ran in"
        );
        // A lone member scans the amplitudes directly; tabulating the
        // running sums first only pays off from the second draw on.
        if let [member] = shots {
            let outcome = ctx.state.sample_measurement(&mut member.1);
            return sink(member, outcome);
        }
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
    use crate::deadline::Deadline;
    use crate::dedup::Evolutions;
    use crate::shot_engine::ShotSample;
    use crate::stochastic::shot_rng;
    use proptest::prelude::*;
    use qsdd_circuit::generators::ghz;
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

    #[test]
    fn checkpoints_past_the_byte_budget_are_refused() {
        // A 21-qubit state is 32 MiB: two copies fill the budget.
        let program = DenseSimulator::new().compile(&Circuit::new(21), &NoiseModel::noiseless());
        let mut ctx = DenseContext::new();
        ctx.seat(&program);
        let levels = CHECKPOINT_BYTES / std::mem::size_of_val(ctx.state.amplitudes());
        assert_eq!(levels, 2);
        let outer = ctx.checkpoint();
        ctx.state.apply_single(0, &Matrix2::hadamard());
        let inner = ctx.checkpoint();
        ctx.state.apply_single(1, &Matrix2::hadamard());
        let after = bits(&ctx.state);
        assert!(outer.is_some() && inner.is_some(), "two copies fit");
        assert_eq!(ctx.checkpoint(), None, "a third copy passes the budget");
        assert!(!ctx.rollback(None), "a refused checkpoint cannot roll back");
        assert_eq!(bits(&ctx.state), after);
        assert!(ctx.rollback(inner) && ctx.rollback(outer));
        assert_eq!(bits(&ctx.state), bits(&StateVector::new(21)));
        assert_eq!(ctx.saved.len(), levels, "no copy beyond the budget is kept");
    }

    /// Runs `shots` shots of `program` as deduplicated work items in `ctx`.
    fn run_buckets(program: &DenseProgram, ctx: &mut DenseContext, shots: u64) -> Vec<ShotSample> {
        let support = program.dedup_support();
        let (work, ..) = crate::dedup::plan_range(&support, 0..shots, SEED, &[]);
        let (deadline, mut samples) = (Deadline::unbounded(), vec![None; shots as usize]);
        let mut sink = |shot, sample, _: &[f64]| samples[shot as usize] = Some(sample);
        let mut out = Evolutions::new(&support, &[], SEED, &deadline, &mut sink);
        for item in work {
            crate::dedup::run_work(&DenseSimulator, program, ctx, item, &mut out).unwrap();
        }
        samples.into_iter().map(Option::unwrap).collect()
    }

    const SEED: u64 = 2021;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "bucket trees on a 22-qubit register: run with --release"
    )]
    fn wide_bucket_trees_keep_their_copies_within_the_budget() {
        // A GHZ-4 preparation under hundredfold noise on `width` qubits: the
        // idle qubits change no decision, so every width walks one tree.
        let program = |width| {
            let mut circuit = Circuit::new(width);
            circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
            DenseSimulator.compile(&circuit, &NoiseModel::new(0.1, 0.2, 0.1))
        };
        const SHOTS: u64 = 60;
        let mut narrow = DenseContext::new();
        run_buckets(&program(6), &mut narrow, SHOTS);
        // At 22 qubits the budget holds one copy; the tree forks deeper.
        let wide = program(22);
        let mut ctx = DenseContext::new();
        let samples = run_buckets(&wide, &mut ctx, SHOTS);
        let levels = CHECKPOINT_BYTES / std::mem::size_of_val(ctx.state.amplitudes());
        assert!(narrow.saved.len() > levels, "{} levels", narrow.saved.len());
        assert_eq!(ctx.saved.len(), levels, "the copies filled the budget");
        drop(ctx);
        // The refused forks ran their shots live: still every shot's bits.
        let mut alone = DenseContext::new();
        for (shot, sample) in samples.into_iter().enumerate() {
            let rng = &mut shot_rng(SEED, shot as u64);
            let run = DenseSimulator.run_shot(&wide, &mut alone, rng, &[]);
            assert_eq!(sample, ShotSample::of(&run), "shot {shot}");
        }
    }

    /// The bits of every amplitude.
    fn bits(state: &StateVector) -> Vec<(u64, u64)> {
        let amplitudes = state.amplitudes().iter();
        amplitudes
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_forks_roll_back_the_amplitudes_bit_for_bit(
            steps in collection::vec((0..8u8, 0..64usize), 1..48),
        ) {
            // The context runs every step on its live buffer; the twin runs
            // the same kernels but never checkpoints — at a rollback it
            // returns to a copy taken when the checkpoint opened.
            let program = DenseSimulator::new().compile(&ghz(5), &NoiseModel::paper_defaults());
            let mut ctx = DenseContext::new();
            ctx.seat(&program);
            let (mut twin, mut open) = (ctx.state.clone(), Vec::new());
            let gates = [Matrix2::hadamard(), Matrix2::t_gate(), Matrix2::rx(0.3)];
            for (kind, arg) in steps {
                let (qubit, other) = (arg % 5, (arg % 5 + 1 + arg / 5 % 4) % 5);
                match kind {
                    0 | 1 if open.len() < 4 => {
                        let checkpoint = ctx.checkpoint();
                        prop_assert!(checkpoint.is_some());
                        open.push((checkpoint, twin.clone()));
                    }
                    0 | 1 => {}
                    2 | 3 => {
                        let (gate, controls) = (&gates[arg % 3], [other]);
                        let controls = if kind == 2 { &controls[..] } else { &[] };
                        ctx.state.apply_controlled(controls, qubit, gate);
                        twin.apply_controlled(controls, qubit, gate);
                    }
                    4 => {
                        let weights = ctx.state.branch_weights(qubit);
                        if arg % 2 == 0 && weights.1 > 1e-9 {
                            ctx.state.damping_decay(qubit, weights.1);
                            twin.damping_decay(qubit, weights.1);
                        } else {
                            ctx.state.damping_keep(qubit, 0.3, weights);
                            twin.damping_keep(qubit, 0.3, weights);
                        }
                    }
                    5 => {
                        // A new shot closes every checkpoint.
                        ctx.seat(&program);
                        twin = StateVector::new(5);
                        for (checkpoint, _) in open.drain(..).rev() {
                            prop_assert!(!ctx.rollback(checkpoint));
                        }
                    }
                    _ => {
                        let Some((checkpoint, saved)) = open.pop() else { continue };
                        prop_assert!(ctx.rollback(checkpoint));
                        twin = saved;
                        prop_assert_eq!(bits(&ctx.state), bits(&twin));
                    }
                }
            }
            prop_assert_eq!(bits(&ctx.state), bits(&twin));
        }
    }
}
