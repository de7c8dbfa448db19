//! The decision-diagram back-end: the paper's proposed simulator.
//!
//! The back-end follows the two-phase architecture of
//! [`StochasticBackend`]: [`DdSimulator::compile`] builds every operator
//! diagram a shot can possibly need — one (controlled) gate diagram per
//! circuit operation, a swap diagram per SWAP, the Pauli-X diagram behind
//! every reset, and the noise channels' error operators for every touched
//! qubit — into the **persistent region** of a template [`DdPackage`].
//! [`DdSimulator::run_shot`] then replays the compiled step list against a
//! per-worker [`DdContext`], whose package is rewound to the persistent
//! watermark between shots ([`DdPackage::reset_transient`]) instead of being
//! rebuilt. Stochastic error events are injected after every gate on every
//! touched qubit, exactly as described in Sections III and IV of the paper;
//! because the rewound package is indistinguishable from a fresh clone of
//! the template, a reused context produces bit-identical shots.

use qsdd_circuit::{Circuit, Operation};
use qsdd_dd::{DdPackage, MatEdge, Matrix2, VecEdge};
use qsdd_noise::{ErrorChannel, ErrorEvent, NoiseModel, PresamplePlan, SiteChannel, Survival};
use rand::rngs::StdRng;

use crate::backend::{next_program_id, pack_clbits, SingleRun, StochasticBackend};
use crate::decisions::{Decisions, NoError, Recording, Sampled};
use crate::dedup::{DecisionPoints, DedupSupport, Member, Seat};
use crate::estimator::Observable;

/// A self-contained noiseless simulation result: the package owning the
/// diagram and the edge of the final state.
#[derive(Debug)]
pub struct DdRunState {
    /// The package owning every node of the run.
    pub package: DdPackage,
    /// Root edge of the final state.
    pub state: VecEdge,
    /// Number of qubits of the simulated circuit.
    pub num_qubits: usize,
}

impl DdRunState {
    /// Size of the final state's decision diagram (number of nodes).
    pub fn node_count(&mut self) -> usize {
        self.package.vec_node_count(self.state)
    }
}

/// One executable step of a compiled decision-diagram program.
#[derive(Clone, Debug)]
enum DdStep {
    /// Apply a precompiled unitary (gate or swap), then expose the listed
    /// qubits to the noise channels.
    Apply {
        op: MatEdge,
        /// The kept operator `(⊗_touched diag(1, √(1−γ)))·op` (see the
        /// [`DdProgram`] docs); `None` when the step touches three or more
        /// qubits or the model's damping channel does not have `0 < γ < 1`.
        kept: Option<MatEdge>,
        /// The block products starting at this step that compile kept, of
        /// 2, 4, 8, … steps in turn (see the [`DdProgram`] docs).
        blocks: Vec<MatEdge>,
        /// Qubits touched by the operation, in the order the stochastic
        /// noise protocol visits them (controls before target; swap
        /// operands in declaration order). Empty when the program is
        /// noiseless.
        noise_qubits: Vec<usize>,
        /// The program-wide index of the step's first exposure site.
        first_site: u32,
    },
    /// Projective measurement into a classical bit.
    Measure { qubit: usize, clbit: usize },
    /// Reset to `|0>`: measure, then apply the precompiled X on outcome 1.
    Reset { qubit: usize, x_op: MatEdge },
}

/// The per-qubit precompiled error operators of one noise channel.
#[derive(Clone, Debug)]
struct ChannelOps {
    /// `unitaries[qubit][i]` is the diagram of the channel's `i`-th unitary
    /// error on `qubit` (see [`ErrorChannel::unitaries`]); empty for qubits
    /// no unitary step touches.
    unitaries: Vec<Vec<MatEdge>>,
    /// `kraus[qubit]` is the `[decay, keep]` diagram pair for Kraus
    /// channels, `None` for unitary-equivalent channels or untouched
    /// qubits.
    kraus: Vec<Option<[MatEdge; 2]>>,
}

/// One step of the no-error trajectory: what a shot meets that does not
/// deviate in it.
#[derive(Clone, Debug)]
struct StepFF {
    /// The decay thresholds of the step's damping exposures, in protocol
    /// order (qubit-major, channels in model order).
    p_decay: Vec<f64>,
    /// The state after the whole step when nothing deviated.
    after: VecEdge,
    /// Node count of `after`, counted at compile time: a walk riding the
    /// trajectory raises its peak to it exactly, with neither a bound nor a
    /// deferred count.
    nodes_after: u64,
}

/// Where a compile watching its no-error walk for
/// [`BackendKind::Auto`](crate::BackendKind::Auto) abandoned the
/// decision-diagram template: the first state of the walk that reached the
/// watch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handoff {
    /// The program step (barriers compiled away, from 1) the state follows.
    pub step: usize,
    /// Node count of that state.
    pub nodes: u64,
}

impl Handoff {
    fn at(index: usize, nodes: u64) -> Handoff {
        Handoff {
            step: index + 1,
            nodes,
        }
    }
}

/// Maximum number of vector nodes the template package may hold while the
/// no-error trajectory is being recorded; past this budget the remaining
/// steps are left to live execution. Bounds the persistent memory a
/// program (and thus every worker context seated on it) can pin.
const TRAJECTORY_NODE_BUDGET: usize = 1 << 19;

/// A compiled circuit + noise model pair for the decision-diagram back-end.
///
/// Holds the resolved step list, the noise-channel operator tables, the
/// precomputed **no-error trajectory** and the template package whose
/// persistent region owns every precompiled diagram (including the
/// trajectory states). Programs are immutable and shared across worker
/// threads; each worker's [`DdContext`] carries its own copy of the
/// template.
///
/// # Kept operators: a live step is a one-step trajectory
///
/// The paper exposes every qubit a gate touched to amplitude damping after
/// the gate (Example 6); along the no-decay branch that is the Kraus
/// operator `diag(1, √(1−γ))` on each of them. For a step touching one or
/// two qubits, compilation folds those keeps into the gate once —
/// `F = (⊗_touched diag(1, √(1−γ)))·G`, built by
/// [`DdPackage::scale_rows`] — and one step kernel takes the step: `F·v`
/// and one normalisation. The step's decay thresholds come off `F·v` in one
/// excitation walk ([`DdPackage::excitations`]), the folded factors divided
/// back out to get the gate output's joint populations, each threshold as
/// `γ·P(qubit = 1 | the earlier keeps of this step)` — but only when a draw
/// needs them: only a damping exposure that is its shot's next candidate
/// ([`qsdd_noise::presample`]) reads a threshold, ~0.2 % of exposures under
/// the paper's γ = 0.002. Trajectory recording, the fast-forward and live
/// steps all take kept steps through the kernel, and draw their decisions
/// through one loop; an exposure that deviates rebuilds the step from its entering
/// state (the gate, the keeps before it, the event) and finishes it
/// exposure by exposure. Steps touching three or more qubits, and `γ = 1`
/// (where the kept state is zero and nothing can be unfolded), evolve
/// exposure by exposure throughout.
///
/// # Block products
///
/// Between two decision points a live walk's state only passes kept steps,
/// whose operators multiply to one matrix. After the trajectory is
/// recorded, compilation builds aligned power-of-two block products of
/// consecutive kept operators, `F_{p+2^k−1}···F_p` for `p` a multiple of
/// `2^k` ([`DdPackage::mat_mat_mul`]), into the template, level by level. A
/// block is tried only when both its halves were kept, and covers kept
/// steps the trajectory recorded only. The trial applies it to the recorded
/// state at its first step inside a checkpoint that is rolled back after
/// it, and the block is kept only when that costs fewer compute misses than
/// its best split: its halves' trials, or for a block of two steps the
/// misses the steps' own kernels took while recording. A rejected block's
/// matrix nodes are dropped from the template again
/// ([`DdPackage::drop_matrices`]); the weights they interned stay, as the
/// walks find many of them later. Nothing else bounds a block. A job `auto`
/// hands to the statevector engine builds none.
///
/// A live walk takes them on a **chain** fixed by its pattern alone: from
/// each fired event, or the start of a walk segment (the program's start,
/// the end of the deduplicable prefix), it advances by the greedy aligned
/// cover of kept steps — the largest kept block starting where it stands
/// that ends by the segment's end — up to the next step that is not kept.
/// A chain state is built once the walk reaches the end of its block.
/// A state inside a block is built **off the chain**, from the last chain
/// state, only when a draw needs it. For a damping candidate's threshold
/// it is built inside a checkpoint that is rolled back after the read. An
/// event that fires there goes on from it: a bucket's member forks inside
/// its child's checkpoint, as any fork does. Passive candidates need no
/// state. So a bucket member, its per-shot run and every thread count do the
/// same arithmetic on the same table history, whatever the other members
/// read along the way. A kept step that starts no kept block within the
/// segment is taken by the step kernel above, on the chain, as before.
///
/// # Peak tracking
///
/// A shot reports the largest diagram among the states its walk built on
/// its path: the trajectory's, its chain states, the states after steps
/// taken exposure by exposure, and its final state. A state built off the
/// chain is never counted. Every vector
/// node carries an upper bound of its sub-diagram's size
/// ([`DdPackage::vec_size_bound`]); a live walk defers the count of a state
/// whose bound exceeds its peak so far and settles the deferred counts at
/// its end — or before it forks a child — newest first, so a later,
/// larger state usually spares counting the earlier ones.
///
/// # The no-error trajectory
///
/// With realistic error rates almost every exposure of almost every shot
/// samples "no error", and the state along that path is fully
/// deterministic — including the amplitude-damping branch thresholds (the
/// channel is state-dependent, but the state is known). Compilation
/// therefore takes each step once, as a live shot that draws no error
/// would, and records the thresholds it met and the state and node count
/// it reached. At shot time the executor replays this trajectory with zero
/// diagram work — consuming the random number stream exactly as live
/// execution would — and drops to live evolution only at the first
/// deviation (an error fires, or a measurement/reset is reached). Because
/// recording applied the kept operators a live step applies, a live state
/// that only differs from the trajectory below some level finds the rest in
/// the frozen tables. Recording stops once the template package exceeds a
/// node budget, so programs for circuits with large noise-free states stay
/// memory-bounded (the tail of such circuits just runs live).
///
/// # The unrecorded continuation
///
/// The trajectory ends at the first measurement or reset, the template does
/// not: compilation walks the remaining steps once more, error-free (every
/// damping exposure keeps, measurements draw from a fixed-seed generator),
/// within the same node budget, and only while its state is not the zero
/// vector (damping 1 keeps nothing of an excited qubit). Nothing of that
/// walk enters the program — `trajectory`, the deduplicable prefix and
/// every shot's stream consumption are unchanged — but
/// [`DdPackage::mark_persistent`] freezes its table entries with the rest
/// of the template, so a shot on the no-error path finds its measure /
/// project / normalise chains instead of rebuilding them, and any other
/// shot rebuilds only the levels above its errors.
#[derive(Clone, Debug)]
pub struct DdProgram {
    id: u64,
    num_qubits: usize,
    num_clbits: usize,
    /// Whether the circuit contains explicit measurements (then the outcome
    /// packs the classical register instead of sampling the final state).
    measured_any: bool,
    steps: Vec<DdStep>,
    channels: Vec<ErrorChannel>,
    noise_ops: Vec<ChannelOps>,
    /// The damping probability `γ` the kept operators fold in.
    damping: f64,
    /// Fast-forward data for the leading run of unitary steps (the
    /// trajectory ends at the first measurement or reset).
    trajectory: Vec<StepFF>,
    /// Number of leading steps whose error decisions can be presampled (the
    /// deduplicable prefix): unitary steps only, and — when a
    /// state-dependent channel is present — only steps whose damping
    /// thresholds the trajectory precomputed.
    dedup_prefix: usize,
    /// The candidate process of every exposure site ([`qsdd_noise::presample`]).
    survival: Survival,
    /// The sites that absorb a Z error (see `crate::frame`).
    pub(crate) absorbing: Vec<bool>,
    /// The first site past the deduplicable prefix, where a live walk draws
    /// a fresh first candidate.
    prefix_sites: u32,
    /// The `|0...0>` initial state, prebuilt in the persistent region.
    initial: VecEdge,
    /// Node count of the initial state.
    initial_nodes: u64,
    /// The template package: persistent region = all precompiled diagrams.
    base: DdPackage,
}

impl DdProgram {
    /// Number of qubits of the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of executable steps (barriers are compiled away).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of leading steps covered by the precomputed no-error
    /// trajectory (the fast-forward path).
    pub fn trajectory_steps(&self) -> usize {
        self.trajectory.len()
    }

    /// Number of nodes in the persistent region of the template package
    /// (all precompiled operator diagrams combined).
    pub fn persistent_mat_nodes(&self) -> usize {
        self.base.stats().mat_nodes
    }

    /// The operator, kept operator, exposed qubits and first exposure site
    /// of Apply step `index`.
    fn apply(&self, index: usize) -> (MatEdge, Option<MatEdge>, &[usize], u32) {
        match &self.steps[index] {
            DdStep::Apply {
                op,
                kept,
                noise_qubits,
                first_site,
                ..
            } => (*op, *kept, noise_qubits, *first_site),
            _ => unreachable!("members deviate in Apply steps, the prefix holds only them"),
        }
    }

    /// The presample plan over the deduplicable prefix, and whether it is
    /// the whole program.
    pub(crate) fn dedup_support(&self) -> DedupSupport {
        let prefix = self.dedup_prefix;
        let mut sites = Vec::new();
        for (index, step) in self.steps[..prefix].iter().enumerate() {
            let DdStep::Apply { noise_qubits, .. } = step else {
                unreachable!("the dedup prefix only contains Apply steps")
            };
            // Trajectory-covered steps carry their damping thresholds;
            // beyond the trajectory the prefix only extends when every
            // channel is state-independent (see `compile`).
            let mut p_decay = (self.trajectory.get(index).into_iter()).flat_map(|ff| &ff.p_decay);
            for _ in noise_qubits {
                for &channel in &self.channels {
                    sites.push(if channel.state_dependent() {
                        let p_decay = *p_decay.next().expect("recorded damping threshold");
                        let gamma = channel.probability();
                        SiteChannel::Damping { gamma, p_decay }
                    } else {
                        SiteChannel::Passive(channel)
                    });
                }
            }
        }
        DedupSupport {
            plan: PresamplePlan::new(sites),
            full: prefix == self.steps.len(),
        }
    }

    /// The chain's next block from kept step `at` that ends by step `end`:
    /// the largest kept block product starting there, else the step's kept
    /// operator; with the number of steps it covers.
    fn block(&self, at: usize, end: usize) -> (MatEdge, usize) {
        let DdStep::Apply {
            kept: Some(kept),
            blocks,
            ..
        } = &self.steps[at]
        else {
            unreachable!("chains cross kept steps only")
        };
        let fitting = (blocks.iter().enumerate().rev()).find(|&(k, _)| at + (2 << k) <= end);
        fitting.map_or((*kept, 1), |(k, &block)| (block, 2 << k))
    }
}

/// A reusable per-worker execution context for the decision-diagram
/// back-end.
///
/// The context owns one [`DdPackage`]. When asked to run a shot of the
/// program it is already seated on, the package is rewound to the program's
/// persistent watermark — a truncation plus a clear of the live table
/// layers. When handed a different program, it re-seats by copying that
/// program's template into its existing allocations (the frozen table layer
/// is shared, not copied). Either way the package state at shot entry is
/// exactly the compiled template, which is what makes context reuse
/// unobservable in the results.
#[derive(Clone, Debug)]
pub struct DdContext {
    package: DdPackage,
    /// Id of the program the package currently mirrors (`0` = unseated).
    seated: u64,
}

impl DdContext {
    /// Creates an unseated context.
    pub fn new() -> Self {
        DdContext {
            package: DdPackage::new(),
            seated: 0,
        }
    }

    /// Rewinds (same program) or re-seats (program switch) the package so
    /// it equals `program`'s template exactly.
    fn seat(&mut self, program: &DdProgram) {
        if self.seated == program.id {
            self.package.reset_transient();
        } else {
            self.package.clone_from(&program.base);
            self.seated = program.id;
        }
    }

    /// Read access to the context's package (e.g. to inspect statistics).
    pub fn package(&self) -> &DdPackage {
        &self.package
    }

    /// Consumes the context, handing out the owned package.
    pub fn into_package(self) -> DdPackage {
        self.package
    }
}

impl Default for DdContext {
    fn default() -> Self {
        DdContext::new()
    }
}

/// The decision-diagram simulator back-end (the "Proposed" column of
/// Table I).
#[derive(Clone, Copy, Debug, Default)]
pub struct DdSimulator;

impl DdSimulator {
    /// Creates the back-end.
    pub fn new() -> Self {
        DdSimulator
    }

    /// Runs a circuit without noise and returns the final decision diagram.
    ///
    /// This is the deterministic simulation primitive; it is also used by
    /// the examples to inspect decision diagram sizes.
    pub fn simulate_noiseless(&self, circuit: &Circuit) -> DdRunState {
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let noiseless = NoiseModel::noiseless();
        let program = self.compile(circuit, &noiseless);
        let mut ctx = DdContext::new();
        let run = self.run_shot(&program, &mut ctx, &mut rng, &[]);
        DdRunState {
            package: ctx.into_package(),
            state: run.state,
            num_qubits: program.num_qubits,
        }
    }

    /// Compiles `circuit` under `noise` like
    /// [`compile`](StochasticBackend::compile), watching the size of every
    /// state the no-error walk builds — the recorded trajectory's and its
    /// unrecorded continuation's — when `watch` is set: the first that
    /// reaches `watch` nodes abandons the template, and the step and the
    /// node count are returned instead. The walk is the one every compile
    /// takes, so a program the watch lets through is bit for bit the
    /// unwatched one.
    pub(crate) fn compile_watched(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        watch: Option<u64>,
    ) -> Result<DdProgram, Handoff> {
        let n = circuit.num_qubits();
        let mut base = DdPackage::new();
        let initial = base.zero_state(n);
        let channels = noise.channels();

        // The keep factor folded into the operators of one- and two-qubit
        // steps (see the `DdProgram` docs).
        let damping = (channels.iter())
            .find(|channel| channel.state_dependent())
            .map_or(0.0, ErrorChannel::probability);
        let keep = (damping > 0.0 && damping < 1.0).then(|| (1.0 - damping).sqrt());

        // Error operators, resolved once per (channel, qubit a unitary step
        // exposes), ahead of the walk that may take a step exposure by
        // exposure.
        let mut touched = vec![false; n];
        let unitary =
            |op: &&Operation| matches!(op, Operation::Gate { .. } | Operation::Swap { .. });
        for q in circuit.iter().filter(unitary).flat_map(Operation::qubits) {
            touched[q] = true;
        }
        let mut noise_ops = Vec::with_capacity(channels.len());
        for channel in &channels {
            let unitary_mats = channel.unitaries();
            let kraus_mats = channel.kraus_branches();
            let mut unitaries = vec![Vec::new(); n];
            let mut kraus = vec![None; n];
            for (q, q_touched) in touched.iter().enumerate() {
                if !q_touched {
                    continue;
                }
                unitaries[q] = unitary_mats
                    .iter()
                    .map(|m| base.single_qubit_op(n, q, *m))
                    .collect();
                kraus[q] = kraus_mats.map(|[decay, keep]| {
                    [
                        base.single_qubit_op(n, q, decay),
                        base.single_qubit_op(n, q, keep),
                    ]
                });
            }
            noise_ops.push(ChannelOps { unitaries, kraus });
        }

        let initial_nodes = base.vec_node_count(initial) as u64;
        let absorbing = crate::frame::absorbing_sites(circuit, channels.len());
        let mut program = DdProgram {
            id: next_program_id(),
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            measured_any: false,
            steps: Vec::with_capacity(circuit.len()),
            channels,
            noise_ops,
            damping,
            trajectory: Vec::new(),
            dedup_prefix: 0,
            survival: Survival::new(Vec::new()),
            absorbing,
            prefix_sites: 0,
            initial,
            initial_nodes,
            base: DdPackage::new(),
        };

        // Each step's operator is built when the no-error walk reaches it,
        // and the walk takes the step at once, so a watched compile that
        // hands off builds no operator past the step that tripped it.
        // Hash-consing in the template package shares structure between
        // repeated gates for free. The walk records the no-error trajectory
        // (see the [`DdProgram`] docs): each step is walked live, as a shot
        // off the trajectory walks it, by a recording of every threshold it
        // meets. Everything interned here lands in the persistent region,
        // so the recorded edges stay valid across every transient reset.
        // Recording pins every step's state into the persistent region,
        // which each worker context copies once. For circuits whose
        // noise-free states grow large this would trade unbounded memory for
        // speed, so recording stops at a node budget and the remaining steps
        // simply execute live. Measurements and resets consume randomness;
        // the deterministic trajectory ends there. Past it the walk goes on
        // as the trajectory's unrecorded continuation (see the `DdProgram`
        // docs): error-free, within the recording's node budget, kept only as
        // the table entries the mark below freezes.
        let (mut walk, mut trajectory, mut rates) = (Walk::start(&program), Vec::new(), Vec::new());
        // The compute misses each recorded step's kernel took: what a block
        // product must beat.
        let mut misses = Vec::new();
        let (mut recording, mut continuing) = (true, true);
        let mut decisions = NoError(rand::SeedableRng::seed_from_u64(0));
        let mut clbits = vec![false; program.num_clbits];
        for op in circuit {
            let op_dd = match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let m = gate
                        .matrix()
                        .expect("non-swap gates always provide a matrix");
                    Some(base.controlled_op(n, *target, controls, m))
                }
                Operation::Swap { a, b } => Some(base.swap_op(n, *a, *b)),
                _ => None,
            };
            let step = match (op, op_dd) {
                (_, Some(op_dd)) => {
                    let noise_qubits = if program.channels.is_empty() {
                        Vec::new()
                    } else {
                        op.qubits()
                    };
                    let kept = (keep.filter(|_| noise_qubits.len() <= 2))
                        .map(|factor| base.scale_rows(op_dd, &noise_qubits, factor));
                    let first_site = rates.len() as u32;
                    for _ in &noise_qubits {
                        rates.extend(program.channels.iter().map(ErrorChannel::candidate_rate));
                    }
                    DdStep::Apply {
                        op: op_dd,
                        kept,
                        blocks: Vec::new(),
                        noise_qubits,
                        first_site,
                    }
                }
                (&Operation::Measure { qubit, clbit }, None) => {
                    program.measured_any = true;
                    DdStep::Measure { qubit, clbit }
                }
                (&Operation::Reset { qubit }, None) => {
                    let x_op = base.single_qubit_op(n, qubit, Matrix2::pauli_x());
                    DdStep::Reset { qubit, x_op }
                }
                _ => continue, // a barrier
            };
            let apply = matches!(step, DdStep::Apply { .. });
            program.steps.push(step);
            let index = program.steps.len() - 1;
            let within_budget = base.stats().vec_nodes <= TRAJECTORY_NODE_BUDGET;
            // A keep that zeroes the state (`diag(1, 0)` at damping 1 on an
            // excited qubit) ends the continuation: there is nothing left
            // to measure, and no shot follows a path of probability 0.
            (recording, continuing) = (
                recording && within_budget && apply,
                continuing && within_budget && !walk.state.is_zero(),
            );
            if recording {
                let mut thresholds = Recording(Vec::new());
                let before = base.table_stats().compute_misses;
                walk = walk.run(&program, &mut base, index + 1, &mut thresholds, &mut []);
                misses.push(base.table_stats().compute_misses - before);
                let nodes_after = base.vec_node_count(walk.state) as u64;
                if watch.is_some_and(|watch| nodes_after >= watch) {
                    return Err(Handoff::at(index, nodes_after));
                }
                trajectory.push(StepFF {
                    p_decay: thresholds.0,
                    after: walk.state,
                    nodes_after,
                });
            } else if continuing {
                walk = walk.run(&program, &mut base, index + 1, &mut decisions, &mut clbits);
                if let Some(watch) = watch {
                    let nodes = base.vec_node_count(walk.state) as u64;
                    if nodes >= watch {
                        return Err(Handoff::at(index, nodes));
                    }
                }
            }
        }
        program.survival = Survival::new(rates);

        // The deduplicable prefix: unitary steps up to the first
        // measurement/reset; state-dependent (damping) channels additionally
        // cap it at the trajectory coverage, because only the trajectory
        // knows their branch thresholds in advance.
        let first_nonapply = (program.steps.iter())
            .position(|step| !matches!(step, DdStep::Apply { .. }))
            .unwrap_or(program.steps.len());
        program.dedup_prefix = if program.channels.iter().any(ErrorChannel::state_dependent) {
            first_nonapply.min(trajectory.len())
        } else {
            first_nonapply
        };
        program.prefix_sites = (program.steps[program.dedup_prefix..].iter())
            .find_map(|step| match step {
                DdStep::Apply { first_site, .. } => Some(*first_site),
                _ => None,
            })
            .unwrap_or(program.survival.len() as u32);
        program.trajectory = trajectory;
        build_blocks(&mut program, &mut base, &misses);
        base.mark_persistent();
        program.base = base;
        Ok(program)
    }
}

/// Builds the kept block products over the recorded trajectory into the
/// template, level by level (see the [`DdProgram`] docs): each pair of kept
/// halves is multiplied, and the product is kept when applying it to the
/// trajectory state at its first step, inside a checkpoint, costs fewer
/// compute misses than the halves cost together — `misses` per step at the
/// first level, their own trials above.
fn build_blocks(program: &mut DdProgram, base: &mut DdPackage, misses: &[u64]) {
    // The units of the current level: each kept one's operator and cost.
    let mut units: Vec<Option<(MatEdge, u64)>> = (0..program.trajectory.len())
        .map(|index| (program.apply(index).1).map(|kept| (kept, misses[index])))
        .collect();
    let mut width = 1;
    while units.iter().flatten().count() > 1 {
        width *= 2;
        units = (units.chunks_exact(2).enumerate())
            .map(|(pair, halves)| {
                let [Some((first, a)), Some((second, b))] = *halves else {
                    return None;
                };
                let mark = base.matrix_mark();
                let block = base.mat_mat_mul(second, first);
                let start = pair * width;
                let entering = match start {
                    0 => program.initial,
                    _ => program.trajectory[start - 1].after,
                };
                let (checkpoint, before) = (base.checkpoint(), base.table_stats().compute_misses);
                // A trial that reaches its split's misses is given up there.
                let finished = base.mat_vec_mul_within(block, entering, a + b).is_some();
                let trial = base.table_stats().compute_misses - before;
                // A trim inside the trial leaves its nodes and entries, which
                // nothing refers to but which may name the product.
                let exact = base.rollback(checkpoint);
                if !finished {
                    // A rejected product leaves no node or value behind in
                    // the template every worker context copies.
                    if exact {
                        base.drop_matrices(mark);
                    }
                    return None;
                }
                let DdStep::Apply { blocks, .. } = &mut program.steps[start] else {
                    unreachable!("blocks start at kept steps")
                };
                blocks.push(block);
                Some((block, trial))
            })
            .collect();
    }
}

impl StochasticBackend for DdSimulator {
    /// Root edge of the final state; the nodes live in the context's
    /// package.
    type State = VecEdge;
    type Program = DdProgram;
    type Context = DdContext;

    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> DdProgram {
        let unwatched = self.compile_watched(circuit, noise, None);
        unwatched.expect("an unwatched compile hands nothing off")
    }

    fn new_context(&self) -> DdContext {
        DdContext::new()
    }

    fn table_stats(&self, ctx: &DdContext) -> qsdd_dd::TableStats {
        ctx.package.table_stats()
    }

    fn run_shot(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        rng: &mut StdRng,
        absorbing: &[bool],
    ) -> SingleRun<VecEdge> {
        ctx.seat(program);
        let next = program.survival.next(rng, 0, program.prefix_sites);
        Walk::start(program).finish_live(program, &mut ctx.package, next, rng, absorbing)
    }

    fn evaluate(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &mut SingleRun<VecEdge>,
        observable: &Observable,
    ) -> f64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "evaluate must use the context the run executed in"
        );
        let package = &mut ctx.package;
        let state = run.state;
        match observable {
            Observable::BasisProbability(index) => package
                .amplitude(state, program.num_qubits, *index)
                .norm_sqr(),
            Observable::QubitExcitation(qubit) => package.probability_one(state, *qubit),
            Observable::Fidelity(reference) => {
                let reference_edge = package.from_statevector(reference);
                package.fidelity(reference_edge, state)
            }
        }
    }

    fn dedup_support(&self, program: &DdProgram) -> Option<DedupSupport> {
        Some(program.dedup_support())
    }
}

/// A decision point in the step a walk is in (see [`Walk::point`]).
pub(crate) enum DdPoint {
    /// A step of the recorded trajectory, drawn against its thresholds.
    Recorded,
    /// A kept step's kernel ran on the chain: `after` is the state past the
    /// step if no exposure deviates; thresholds are read off `folded` once
    /// needed.
    Kept {
        folded: VecEdge,
        after: VecEdge,
        p_decay: Option<[f64; 2]>,
    },
    /// A kept step inside a chain block: its state is built off the chain
    /// once a draw needs it. `exact` says whether every threshold read
    /// rolled back.
    Inside {
        p_decay: Option<[f64; 2]>,
        exact: bool,
    },
    /// The walk's next exposure of a step taken exposure by exposure.
    Exposure { p_decay: Option<f64> },
}

impl DecisionPoints for DdSimulator {
    type Walk = Walk;
    type Point = DdPoint;
    type Checkpoint = qsdd_dd::Checkpoint;

    fn start(seat: &mut Seat<'_, Self>) -> Walk {
        seat.ctx.seat(seat.program);
        Walk::start(seat.program)
    }

    /// An empty prefix, or a walk still on the recorded trajectory: its
    /// states are the template's.
    fn restarts(program: &DdProgram, walk: &Walk) -> bool {
        program.dedup_prefix == 0 || !walk.live
    }

    fn point(seat: &mut Seat<'_, Self>, walk: &mut Walk) -> Option<(u32, DdPoint)> {
        let (program, dd) = (seat.program, &mut seat.ctx.package);
        walk.point(program, dd, program.dedup_prefix)
    }

    fn draw<D: Decisions>(
        seat: &mut Seat<'_, Self>,
        walk: &Walk,
        point: &mut DdPoint,
        decisions: &mut D,
    ) -> Option<ErrorEvent> {
        walk.draw(seat.program, &mut seat.ctx.package, point, decisions)
    }

    fn fire(seat: &mut Seat<'_, Self>, mut walk: Walk, point: &DdPoint, event: ErrorEvent) -> Walk {
        walk.fire(seat.program, &mut seat.ctx.package, point, event);
        walk
    }

    fn pass(seat: &mut Seat<'_, Self>, walk: &mut Walk, point: DdPoint) {
        walk.pass(seat.program, &mut seat.ctx.package, point);
    }

    fn exact(point: &DdPoint) -> bool {
        !matches!(point, DdPoint::Inside { exact: false, .. })
    }

    /// The walk settles its deferred counts, so each child starts from its
    /// exact peak and owns the deferred stack.
    fn settle(seat: &mut Seat<'_, Self>, walk: &mut Walk) {
        walk.settle(&mut seat.ctx.package);
    }

    fn checkpoint(ctx: &mut DdContext) -> qsdd_dd::Checkpoint {
        ctx.package.checkpoint()
    }

    fn rollback(ctx: &mut DdContext, checkpoint: qsdd_dd::Checkpoint) -> bool {
        ctx.package.rollback(checkpoint)
    }

    fn finish_live(
        seat: &mut Seat<'_, Self>,
        mut walk: Walk,
        (next, rng, absorbed): (u32, &mut StdRng, u32),
    ) -> SingleRun<VecEdge> {
        let (program, dd) = (seat.program, &mut seat.ctx.package);
        walk.absorbed = absorbed as usize;
        walk.finish_live(program, dd, next, rng, seat.absorbing)
    }

    fn prefix_run(seat: &mut Seat<'_, Self>, walk: &mut Walk) -> SingleRun<VecEdge> {
        walk.close(
            &mut seat.ctx.package,
            0,
            vec![false; seat.program.num_clbits],
        )
    }

    fn survival(program: &DdProgram) -> &Survival {
        &program.survival
    }

    fn sample_outcomes(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &SingleRun<VecEdge>,
        shots: &mut [Member],
        mut sink: impl FnMut(&Member, u64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcomes must use the context the pattern ran in"
        );
        // Full-program patterns never contain explicit measurements (a
        // measurement ends the deduplicable prefix), so the outcome is
        // always a full-register sample of the shared final state. A lone
        // member walks the diagram directly; flattening it into a plan first
        // only pays off from the second draw on.
        if let [member] = shots {
            let n = program.num_qubits;
            let outcome = ctx.package.sample_measurement(run.state, n, &mut member.1);
            return sink(member, outcome);
        }
        // The flat plan is bit-identical to `sample_measurement` on the
        // same state and keeps norm recursion out of the member loop — this
        // loop fans a whole trajectory group out of one shared state, so it
        // is the hottest loop of a deduplicated run.
        let plan = ctx.package.sample_plan(run.state, program.num_qubits);
        for member in shots.iter_mut() {
            let outcome = plan.sample(&mut member.1);
            sink(member, outcome);
        }
    }

    fn outcome_distribution(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &SingleRun<VecEdge>,
        sink: &mut dyn FnMut(u64, f64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "outcome_distribution must use the context the pattern ran in"
        );
        // Sparse DFS over the diagram: basis states outside the state's
        // support are never visited, so the cost tracks the diagram size,
        // not 2^n. Same outcome convention as `sample_outcomes` (the full
        // register, qubit 0 as the most significant bit).
        ctx.package
            .outcome_probabilities(run.state, program.num_qubits, sink);
    }
}

/// A walk over program steps: its running state and where it is, at
/// exposure `resolved` of step `index` (a step's operator applies as the
/// walk enters it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Walk {
    /// The state entering step `at`: the walk's chain state.
    state: VecEdge,
    /// At most `index`; below it, the kept steps `at..index` are passed on
    /// the chain without a deviation, and their block not yet applied.
    at: usize,
    /// Peak node count of the state so far, once the deferred counts settle
    /// (see the [`DdProgram`] docs).
    peak: u64,
    /// Number of states whose counts this walk deferred: the bottom of the
    /// package's deferred stack ([`DdPackage::defer_count`]).
    pending: u32,
    error_events: usize,
    /// Z errors the walk's shot absorbed (a shared walk's members count theirs).
    absorbed: usize,
    /// `false` while the walk is still on the precomputed no-error
    /// trajectory; flips to `true` at the first deviation.
    live: bool,
    index: usize,
    resolved: usize,
}

impl Walk {
    /// A walk entering the program's first step from `|0...0>`.
    fn start(program: &DdProgram) -> Walk {
        Walk {
            state: program.initial,
            at: 0,
            peak: program.initial_nodes,
            pending: 0,
            error_events: 0,
            absorbed: 0,
            live: false,
            index: 0,
            resolved: 0,
        }
    }

    /// Tracks a state the walk built on its path for the peak: its count is
    /// deferred if its size bound exceeds the peak so far, dropped otherwise.
    fn note(&mut self, dd: &mut DdPackage) {
        self.pending = dd.defer_count(self.pending, self.peak, self.state);
    }

    /// Settles the deferred counts into the peak.
    fn settle(&mut self, dd: &mut DdPackage) {
        (self.peak, self.pending) = (dd.settle_counts(self.pending, self.peak), 0);
    }

    /// Moves the walk to its next decision point before step `end` (the end
    /// of its segment), entering steps as it goes: a step on the recorded
    /// trajectory costs nothing, a live kept step is passed on the chain —
    /// applying each block the walk reaches the end of, and running the
    /// step kernel where the chain takes the step alone — any other step
    /// applies its gate and is taken exposure by exposure. `None` at `end`,
    /// a measurement or a reset, with the chain applied up to there.
    fn point(
        &mut self,
        program: &DdProgram,
        dd: &mut DdPackage,
        end: usize,
    ) -> Option<(u32, DdPoint)> {
        let width = program.channels.len();
        while self.index < end {
            let DdStep::Apply {
                op,
                kept,
                noise_qubits,
                first_site,
                ..
            } = &program.steps[self.index]
            else {
                break;
            };
            let step_end = first_site + (noise_qubits.len() * width) as u32;
            if self.resolved == 0 {
                if !self.live && self.index < program.trajectory.len() {
                    return Some((step_end, DdPoint::Recorded));
                }
                self.live = true;
                self.advance(program, dd, end);
                if let Some(kept) = kept {
                    if self.at < self.index || program.block(self.at, end).1 > 1 {
                        let (p_decay, exact) = (None, true);
                        return Some((step_end, DdPoint::Inside { p_decay, exact }));
                    }
                    let (folded, after) = kept_step(dd, *kept, self.state);
                    let p_decay = None;
                    let point = DdPoint::Kept {
                        folded,
                        after,
                        p_decay,
                    };
                    return Some((step_end, point));
                }
                debug_assert_eq!(self.at, self.index, "chains stop at unkept steps");
                self.state = dd.mat_vec_mul(*op, self.state);
            }
            let site = first_site + self.resolved as u32;
            if site < step_end {
                return Some((site + 1, DdPoint::Exposure { p_decay: None }));
            }
            self.note(dd);
            (self.index, self.resolved) = (self.index + 1, 0);
            self.at = self.index;
        }
        self.advance(program, dd, end);
        debug_assert_eq!(self.at, self.index, "chains stop at a segment's end");
        None
    }

    /// Applies the chain's blocks from step `at` that end by step `index`,
    /// the chain covering kept steps up to the segment's `end`; each block
    /// leaves a chain state.
    fn advance(&mut self, program: &DdProgram, dd: &mut DdPackage, end: usize) {
        while self.at < self.index {
            let (block, steps) = program.block(self.at, end);
            if self.at + steps > self.index {
                return;
            }
            self.state = block_step(dd, block, steps, self.state);
            self.at += steps;
            self.note(dd);
        }
    }

    /// The state entering step `index`, built off the chain: the kept steps
    /// from `at` by the greedy aligned cover up to `index`.
    fn off_chain(&self, program: &DdProgram, dd: &mut DdPackage) -> VecEdge {
        let (mut state, mut at) = (self.state, self.at);
        while at < self.index {
            let (block, steps) = program.block(at, self.index);
            state = block_step(dd, block, steps, state);
            at += steps;
        }
        state
    }

    /// The event `decisions` fire at `point`, if any; a draw that needs a
    /// threshold reads it.
    fn draw<D: Decisions>(
        &self,
        program: &DdProgram,
        dd: &mut DdPackage,
        point: &mut DdPoint,
        decisions: &mut D,
    ) -> Option<ErrorEvent> {
        let (_, _, qubits, first_site) = program.apply(self.index);
        match point {
            DdPoint::Recorded => {
                let p_decay = &program.trajectory[self.index].p_decay;
                fast_forward(program, qubits, &mut |k| p_decay[k], first_site, decisions)
            }
            DdPoint::Kept {
                folded, p_decay, ..
            } => {
                let mut read = |k: usize| {
                    p_decay.get_or_insert_with(|| kept_thresholds(dd, *folded, qubits, program))[k]
                };
                fast_forward(program, qubits, &mut read, first_site, decisions)
            }
            DdPoint::Inside { p_decay, exact } => {
                let kept = program
                    .apply(self.index)
                    .1
                    .expect("chains cross kept steps");
                // The state the threshold is read off is built off the
                // chain and dropped after the read.
                let mut off_chain = || {
                    let checkpoint = dd.checkpoint();
                    let entering = self.off_chain(program, dd);
                    let folded = dd.mat_vec_mul(kept, entering);
                    let p_decay = kept_thresholds(dd, folded, qubits, program);
                    *exact &= dd.rollback(checkpoint);
                    p_decay
                };
                let mut read = |k: usize| p_decay.get_or_insert_with(&mut off_chain)[k];
                fast_forward(program, qubits, &mut read, first_site, decisions)
            }
            DdPoint::Exposure { p_decay } => {
                let (width, site) = (program.channels.len(), first_site + self.resolved as u32);
                let (qubit, index) = (qubits[self.resolved / width], self.resolved % width);
                let channel = &program.channels[index];
                let error = match program.noise_ops[index].kraus[qubit] {
                    None => decisions.error(site, channel)? as u8,
                    // Amplitude damping: branch probabilities are the
                    // squared norms of the (non-unitary) branch states
                    // (Example 6 of the paper). The decay threshold is read
                    // off the state, if the draw needs it, before either
                    // branch: only the branch the decision selects is built.
                    Some(_) => {
                        let read = || decay_probability(dd, channel, self.state, qubit);
                        let decays =
                            decisions.decays(site, channel, || *p_decay.get_or_insert_with(read));
                        decays.then_some(ErrorEvent::DECAY)?
                    }
                };
                Some(ErrorEvent { site, error })
            }
        }
    }

    /// Fires `event` at `point`, and the walk goes on past it, live. At an
    /// exposure taken on its own the event applies to the walk's state;
    /// otherwise the step is rebuilt from the state entering it: the gate,
    /// the keeps of the damping exposures before the event, then the event.
    fn fire(
        &mut self,
        program: &DdProgram,
        dd: &mut DdPackage,
        point: &DdPoint,
        event: ErrorEvent,
    ) {
        let (width, (op, _, qubits, first_site)) =
            (program.channels.len(), program.apply(self.index));
        let offset = (event.site - first_site) as usize;
        let exposure = |offset: usize| (qubits[offset / width], &program.noise_ops[offset % width]);
        if !matches!(point, DdPoint::Exposure { .. }) {
            if matches!(point, DdPoint::Inside { .. }) {
                self.state = self.off_chain(program, dd);
            }
            self.at = self.index;
            self.state = dd.mat_vec_mul(op, self.state);
            for (qubit, ops) in (0..offset).map(exposure) {
                if let Some([_decay, keep]) = ops.kraus[qubit] {
                    self.state = dd.apply_kraus(keep, self.state).1;
                }
            }
        }
        let (qubit, ops) = exposure(offset);
        self.state = match (event.error, ops.kraus[qubit]) {
            (ErrorEvent::DECAY, Some([decay, _keep])) => dd.apply_kraus(decay, self.state).1,
            (ErrorEvent::DECAY, None) => unreachable!("decays come from damping exposures"),
            (u, _) => dd.mat_vec_mul(ops.unitaries[qubit][usize::from(u)], self.state),
        };
        self.error_events += 1;
        (self.live, self.resolved) = (true, offset + 1);
    }

    /// Moves the walk past `point` along the branch where nothing fired.
    fn pass(&mut self, program: &DdProgram, dd: &mut DdPackage, point: DdPoint) {
        let (width, (_, _, qubits, _)) = (program.channels.len(), program.apply(self.index));
        match point {
            DdPoint::Recorded => {
                let ff = &program.trajectory[self.index];
                (self.state, self.peak) = (ff.after, self.peak.max(ff.nodes_after));
                (self.index, self.resolved) = (self.index + 1, 0);
                self.at = self.index;
            }
            DdPoint::Kept { after, .. } => {
                (self.state, self.resolved) = (after, qubits.len() * width)
            }
            DdPoint::Inside { .. } => self.index += 1,
            DdPoint::Exposure { .. } => {
                let (qubit, channel) = (qubits[self.resolved / width], self.resolved % width);
                if let Some([_decay, keep]) = program.noise_ops[channel].kraus[qubit] {
                    self.state = dd.apply_kraus(keep, self.state).1;
                }
                self.resolved += 1;
            }
        }
    }

    /// Walks on to step `end`, taking each decision from `decisions`: rides
    /// the trajectory with zero diagram work while the decisions stay on the
    /// no-error path, evolves the diagram from the first deviation (or the
    /// trajectory's end) on.
    fn run<D: Decisions>(
        mut self,
        program: &DdProgram,
        dd: &mut DdPackage,
        end: usize,
        decisions: &mut D,
        clbits: &mut [bool],
    ) -> Walk {
        loop {
            while let Some((_, mut point)) = self.point(program, dd, end) {
                match self.draw(program, dd, &mut point, decisions) {
                    Some(event) => self.fire(program, dd, &point, event),
                    None => self.pass(program, dd, point),
                }
            }
            let qubit = match program.steps[..end].get(self.index) {
                Some(DdStep::Measure { qubit, .. } | DdStep::Reset { qubit, .. }) => *qubit,
                _ => return self,
            };
            self.live = true;
            let (outcome, collapsed) = dd.measure_qubit(self.state, qubit, decisions.rng());
            self.state = collapsed;
            match program.steps[self.index] {
                DdStep::Measure { clbit, .. } => clbits[clbit] = outcome,
                DdStep::Reset { x_op, .. } if outcome => {
                    self.state = dd.mat_vec_mul(x_op, self.state)
                }
                _ => {}
            }
            self.note(dd);
            self.index += 1;
            self.at = self.index;
        }
    }

    /// Walks on live and closes the walk into the shot's result: the rest
    /// of the deduplicable prefix with the shot's stream at candidate
    /// `next`, then the steps behind it with a stream that draws its first
    /// candidate where they start.
    fn finish_live(
        self,
        program: &DdProgram,
        dd: &mut DdPackage,
        next: u32,
        rng: &mut StdRng,
        absorbing: &[bool],
    ) -> SingleRun<VecEdge> {
        let mut clbits = vec![false; program.num_clbits];
        let (process, sites) = ((&program.survival, absorbing), program.prefix_sites);
        let (tail, steps) = (self.index.max(program.dedup_prefix), program.steps.len());
        let mut prefix = Sampled::new(rng, process, next, sites);
        let walk = self.run(program, dd, tail, &mut prefix, &mut clbits);
        let absorbed = prefix.absorbed;
        let mut rest = Sampled::start(rng, process, sites, program.survival.len() as u32);
        let mut walk = walk.run(program, dd, steps, &mut rest, &mut clbits);
        walk.absorbed += (absorbed + rest.absorbed) as usize;
        let outcome = match program.measured_any {
            true => pack_clbits(&clbits),
            false => dd.sample_measurement(walk.state, program.num_qubits, rng),
        };
        walk.close(dd, outcome, clbits)
    }

    /// The walk's result: the final state is counted, as its size is
    /// reported, before the deferred counts settle against it.
    fn close(&mut self, dd: &mut DdPackage, outcome: u64, clbits: Vec<bool>) -> SingleRun<VecEdge> {
        let dd_nodes = dd.vec_node_count(self.state) as u64;
        self.peak = self.peak.max(dd_nodes);
        self.settle(dd);
        SingleRun {
            outcome,
            clbits,
            error_events: self.error_events + self.absorbed,
            absorbed: self.absorbed,
            dd_nodes,
            dd_nodes_peak: self.peak,
            state: self.state,
        }
    }
}

/// Draws one step's decisions against its no-deviation outcome —
/// `p_decay(k)` reads the decay threshold of its `k`-th damping exposure, in
/// protocol order, for a draw that needs it — and returns the first
/// deviation. `None` means the outcome stands.
fn fast_forward<D: Decisions>(
    program: &DdProgram,
    noise_qubits: &[usize],
    p_decay: &mut dyn FnMut(usize) -> f64,
    first_site: u32,
    decisions: &mut D,
) -> Option<ErrorEvent> {
    let width = program.channels.len();
    let mut damping = 0;
    for offset in 0..noise_qubits.len() * width {
        let site = first_site + offset as u32;
        let (qubit, index) = (noise_qubits[offset / width], offset % width);
        let channel = &program.channels[index];
        if program.noise_ops[index].kraus[qubit].is_some() {
            let k = damping;
            damping += 1;
            if decisions.decays(site, channel, || p_decay(k)) {
                let error = ErrorEvent::DECAY;
                return Some(ErrorEvent { site, error });
            }
        } else if let Some(u) = decisions.error(site, channel) {
            return Some(ErrorEvent {
                site,
                error: u as u8,
            });
        }
    }
    None
}

/// The step kernel of a kept step (see the [`DdProgram`] docs): applies the
/// kept operator to `state` once and normalises once. Returns the folded
/// state, which [`kept_thresholds`] reads the step's decay thresholds off,
/// and the state after the step.
fn kept_step(dd: &mut DdPackage, kept: MatEdge, state: VecEdge) -> (VecEdge, VecEdge) {
    let folded = dd.mat_vec_mul(kept, state);
    (folded, dd.normalize(folded))
}

/// A chain block of `steps` kept steps taken at once: the block product
/// applied and normalised, as the step kernel takes one step. A block of
/// several steps counts into [`qsdd_dd::TableStats::block_steps`].
fn block_step(dd: &mut DdPackage, block: MatEdge, steps: usize, state: VecEdge) -> VecEdge {
    if steps > 1 {
        dd.count_block_step();
    }
    kept_step(dd, block, state).1
}

/// The decay thresholds of a kept step in protocol order (the second only
/// for two qubits): the touched qubits' excitations read off the folded
/// state in one walk, the gate output's populations unfolded from them.
fn kept_thresholds(
    dd: &mut DdPackage,
    folded: VecEdge,
    qubits: &[usize],
    program: &DdProgram,
) -> [f64; 2] {
    let (a, b) = (qubits[0], qubits[qubits.len() - 1]);
    let [a1, b1, both] = dd.excitations(folded, a, b);
    let total = dd.norm_sqr(folded);
    // Every |1> of a touched qubit carries one keep factor `s` in the
    // populations: dividing them out recovers the gate output's.
    let (gamma, s) = (program.damping, 1.0 - program.damping);
    if a == b {
        let one = a1 / s;
        [gamma * one / (total - a1 + one), 0.0]
    } else {
        let w11 = both / (s * s);
        let w10 = (a1 - both).max(0.0) / s;
        let w01 = (b1 - both).max(0.0) / s;
        let w00 = (total - a1 - b1 + both).max(0.0);
        // `a` decays off the gate output, `b` off what `a`'s keep left.
        [
            gamma * (w10 + w11) / (w00 + w01 + w10 + w11),
            gamma * (w01 + s * w11) / (w00 + w01 + s * (w10 + w11)),
        ]
    }
}

/// Probability that an amplitude-damping exposure of `qubit` decays:
/// `γ·‖P1 v‖²`, the squared norm of the decay branch `√γ|0><1| v`, read off
/// the diagram without building that branch — the threshold of an exposure
/// taken on its own (see [`Walk::draw`]).
fn decay_probability(
    dd: &mut DdPackage,
    channel: &ErrorChannel,
    state: VecEdge,
    qubit: usize,
) -> f64 {
    channel.probability() * dd.excited_norm_sqr(state, qubit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::Replayed;
    use qsdd_circuit::generators::{bernstein_vazirani, ghz, qft, random_circuit, w_state};
    use qsdd_noise::{decay_bound, ErrorPattern};
    use rand::{Rng, SeedableRng};

    /// A live walk at `state`, entering step `index`.
    fn live_walk(state: VecEdge, index: usize) -> Walk {
        Walk {
            state,
            at: index,
            peak: 0,
            pending: 0,
            error_events: 0,
            absorbed: 0,
            live: true,
            index,
            resolved: 0,
        }
    }

    /// Takes the exposures of `walk`'s step one at a time, its gate already
    /// applied: the step a kept step replaces.
    fn expose<D: Decisions>(
        program: &DdProgram,
        dd: &mut DdPackage,
        mut walk: Walk,
        decisions: &mut D,
    ) -> Walk {
        let exposures = program.apply(walk.index).2.len() * program.channels.len();
        while walk.resolved < exposures {
            let mut point = DdPoint::Exposure { p_decay: None };
            match walk.draw(program, dd, &mut point, decisions) {
                Some(event) => walk.fire(program, dd, &point, event),
                None => walk.pass(program, dd, point),
            }
        }
        walk
    }

    /// A random normalised `n`-qubit state.
    fn random_state(dd: &mut DdPackage, n: usize, rng: &mut StdRng) -> VecEdge {
        let amplitudes: Vec<qsdd_dd::Complex> = (0..1 << n)
            .map(|_| qsdd_dd::Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let state = dd.from_statevector(&amplitudes);
        dd.normalize(state)
    }

    /// What a shot reports, comparable.
    type Reported = (u64, Vec<bool>, usize, usize, u64, u64, VecEdge);

    fn reported(run: SingleRun<VecEdge>) -> Reported {
        let SingleRun {
            outcome,
            clbits,
            error_events,
            absorbed,
            dd_nodes,
            dd_nodes_peak,
            state,
        } = run;
        (
            outcome,
            clbits,
            error_events,
            absorbed,
            dd_nodes,
            dd_nodes_peak,
            state,
        )
    }

    #[test]
    fn lazy_thresholds_never_exceed_their_bound() {
        // A damping candidate, drawn at rate `decay_bound(γ)`, decays with
        // probability `p_decay / bound`: its threshold only if no threshold
        // exceeds the bound. Random states and every basis
        // state (a touched qubit fully excited, where round-off can lift a
        // population share above one) enter each step, kept or not.
        let n = 5;
        let mut rng = StdRng::seed_from_u64(26);
        for gamma in [0.002, 0.3, 0.999] {
            let (noise, bound) = (NoiseModel::new(0.01, gamma, 0.02), decay_bound(gamma));
            let within = |p: &f64| (0.0..=bound).contains(p);
            for circuit in [ghz(n), qft(n), random_circuit(n, 6, 7)] {
                let program = DdSimulator::new().compile(&circuit, &noise);
                let mut dd = program.base.clone();
                for index in 0..program.steps.len() {
                    let (op, kept, qubits, _) = program.apply(index);
                    for basis in 0..(1 << n) + 8 {
                        let entering = if basis < 1 << n {
                            dd.basis_state_from_index(n, basis)
                        } else {
                            random_state(&mut dd, n, &mut rng)
                        };
                        if let Some(kept) = kept {
                            let (folded, _) = kept_step(&mut dd, kept, entering);
                            let p_decay = kept_thresholds(&mut dd, folded, qubits, &program);
                            assert!(p_decay.iter().all(within), "{p_decay:?} at γ = {gamma}");
                        }
                        let walk = live_walk(dd.mat_vec_mul(op, entering), index);
                        let mut recording = Recording(vec![]);
                        expose(&program, &mut dd, walk, &mut recording);
                        let read = recording.0;
                        assert_eq!(read.len(), qubits.len());
                        assert!(read.iter().all(within), "{read:?} at γ = {gamma}");
                    }
                }
            }
        }
    }

    /// Live decisions that read every threshold, as every damping exposure
    /// did before only candidates read them.
    struct Eager<'a>(Sampled<'a>);

    impl Decisions for Eager<'_> {
        fn error(&mut self, site: u32, channel: &ErrorChannel) -> Option<usize> {
            self.0.error(site, channel)
        }

        fn decays(&mut self, site: u32, channel: &ErrorChannel, p: impl FnOnce() -> f64) -> bool {
            let p_decay = p();
            self.0.decays(site, channel, || p_decay)
        }

        fn rng(&mut self) -> &mut StdRng {
            self.0.rng()
        }
    }

    #[test]
    fn reading_every_threshold_changes_no_shot() {
        let backend = DdSimulator::new();
        let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
        let program = backend.compile(&ghz(8), &tenfold);
        let (mut lazy, mut eager) = (backend.new_context(), backend.new_context());
        for seed in 0..2_000 {
            let run = backend.run_shot(
                &program,
                &mut lazy,
                &mut StdRng::seed_from_u64(seed),
                &program.absorbing,
            );
            eager.seat(&program);
            let (dd, mut rng) = (&mut eager.package, StdRng::seed_from_u64(seed));
            let mut clbits = vec![false; program.num_clbits];
            // GHZ is unitary: one stream over the whole program.
            let (steps, sites) = (program.steps.len(), program.survival.len() as u32);
            let process = (&program.survival, &program.absorbing[..]);
            let mut eager_draws = Eager(Sampled::start(&mut rng, process, 0, sites));
            let mut walk =
                Walk::start(&program).run(&program, dd, steps, &mut eager_draws, &mut clbits);
            walk.absorbed = eager_draws.0.absorbed as usize;
            let outcome = dd.sample_measurement(walk.state, program.num_qubits, &mut rng);
            let twin = walk.close(dd, outcome, clbits);
            assert_eq!(reported(run), reported(twin), "shot {seed}");
        }
        let walks = |ctx: &DdContext| ctx.package().table_stats().threshold_walks;
        assert!(
            walks(&lazy) * 10 < walks(&eager),
            "{} vs {}",
            walks(&lazy),
            walks(&eager)
        );
    }

    #[test]
    fn deferred_peaks_are_exact_per_shot() {
        // The oracle walks each shot itself, on the shot's stream, and
        // counts every state its walk built on its path — wherever the
        // walk's chain position moves: a trajectory step, a chain block, a
        // step taken exposure by exposure, a measurement — and the final
        // state, as every walk did before sizes were bounded and counts
        // deferred. W-state diagrams share their |0...0> chains, so their
        // bounds run loose; noisy QFT states stay product states, bounded
        // exactly.
        let backend = DdSimulator::new();
        let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
        let circuits = [
            (w_state(10), Some(false)),
            (bernstein_vazirani(8, 0b101_0101), None),
            (ghz(12), None),
            (qft(8), Some(true)),
        ];
        for (circuit, exact) in circuits {
            let program = backend.compile(&circuit, &tenfold);
            let (mut ctx, mut loose) = (backend.new_context(), 0);
            let (steps, survival) = (program.steps.len(), &program.survival);
            let process = (survival, &program.absorbing[..]);
            for seed in 0..2_000 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut twin = rng.clone();
                let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
                ctx.seat(&program);
                let (dd, mut walk) = (&mut ctx.package, Walk::start(&program));
                let (mut clbits, mut path) = (vec![false; program.num_clbits], Vec::new());
                // The shot's stream: the prefix's, then one drawn afresh.
                let sites = program.prefix_sites;
                let next = survival.next(&mut twin, 0, sites);
                let mut sampled = Sampled::new(&mut twin, process, next, sites);
                for (segment, end) in [program.dedup_prefix, steps].into_iter().enumerate() {
                    if segment == 1 {
                        let rest = survival.len() as u32;
                        sampled = Sampled::start(sampled.rng, process, sites, rest);
                    }
                    loop {
                        let at = walk.at;
                        let Some((_, mut point)) = walk.point(&program, dd, end) else {
                            if walk.at > at {
                                path.push(walk.state);
                            }
                            if walk.index == end {
                                break;
                            }
                            walk =
                                walk.run(&program, dd, walk.index + 1, &mut sampled, &mut clbits);
                            path.push(walk.state);
                            continue;
                        };
                        if walk.at > at {
                            path.push(walk.state);
                        }
                        match walk.draw(&program, dd, &mut point, &mut sampled) {
                            Some(event) => walk.fire(&program, dd, &point, event),
                            None => {
                                let at = walk.at;
                                walk.pass(&program, dd, point);
                                if walk.at > at {
                                    path.push(walk.state);
                                }
                            }
                        }
                    }
                }
                assert_eq!(walk.state, run.state);
                let mut peak = program.initial_nodes.max(run.dd_nodes);
                for state in path {
                    let count = dd.vec_node_count(state) as u64;
                    let bound = dd.vec_size_bound(state);
                    assert!(
                        count <= bound,
                        "{} shot {seed}: {count} > {bound}",
                        circuit.name()
                    );
                    (peak, loose) = (peak.max(count), loose + usize::from(count < bound));
                }
                assert_eq!(run.dd_nodes_peak, peak, "{} shot {seed}", circuit.name());
            }
            if let Some(exact) = exact {
                assert_eq!(
                    loose == 0,
                    exact,
                    "{}: {loose} loose bounds",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn noiseless_ghz_only_yields_all_zero_or_all_one() {
        let backend = DdSimulator::new();
        let circuit = ghz(10);
        let noiseless = NoiseModel::noiseless();
        let program = backend.compile(&circuit, &noiseless);
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            assert!(run.outcome == 0 || run.outcome == (1 << 10) - 1);
            assert_eq!(run.error_events, 0);
        }
    }

    #[test]
    fn ghz_dd_stays_small_even_with_noise() {
        let backend = DdSimulator::new();
        let circuit = ghz(24);
        let noise = NoiseModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let program = backend.compile(&circuit, &noise);
        let run = backend.run_shot(&program, &mut backend.new_context(), &mut rng, &[]);
        assert!(
            run.dd_nodes <= 2 * 24,
            "noisy GHZ run produced {} nodes",
            run.dd_nodes
        );
        assert!(run.dd_nodes_peak >= run.dd_nodes);
    }

    #[test]
    fn measured_circuit_packs_classical_bits() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(3);
        circuit.x(0).measure_all();
        let mut rng = StdRng::seed_from_u64(9);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let run = backend.run_shot(&program, &mut backend.new_context(), &mut rng, &[]);
        assert_eq!(run.outcome, 0b100);
        assert_eq!(run.clbits, vec![true, false, false]);
    }

    #[test]
    fn observables_match_known_values_for_noiseless_ghz() {
        let backend = DdSimulator::new();
        let circuit = ghz(4);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
        let p0 = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::BasisProbability(0),
        );
        let p15 = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::BasisProbability(15),
        );
        let pq = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::QubitExcitation(2),
        );
        assert!((p0 - 0.5).abs() < 1e-10);
        assert!((p15 - 0.5).abs() < 1e-10);
        assert!((pq - 0.5).abs() < 1e-10);
    }

    #[test]
    fn fidelity_observable_recognises_the_prepared_state() {
        let backend = DdSimulator::new();
        let circuit = ghz(3);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        let mut reference = vec![qsdd_dd::Complex::ZERO; 8];
        reference[0] = qsdd_dd::Complex::real(inv);
        reference[7] = qsdd_dd::Complex::real(inv);
        let f = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::Fidelity(reference),
        );
        assert!((f - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_runs_under_noise_without_blowup() {
        let backend = DdSimulator::new();
        let circuit = qft(16);
        let noise = NoiseModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let program = backend.compile(&circuit, &noise);
        let run = backend.run_shot(&program, &mut backend.new_context(), &mut rng, &[]);
        // QFT of |0..0> stays a product state, so the DD stays linear even
        // with sporadic errors.
        assert!(
            run.dd_nodes <= 4 * 16,
            "nodes={} peak={}",
            run.dd_nodes,
            run.dd_nodes_peak
        );
        assert!(run.dd_nodes_peak <= 8 * 16);
    }

    #[test]
    fn reset_forces_qubit_back_to_zero() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(2);
        circuit.x(0).reset(0).measure_all();
        let mut rng = StdRng::seed_from_u64(6);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let run = backend.run_shot(&program, &mut backend.new_context(), &mut rng, &[]);
        assert_eq!(run.outcome, 0);
    }

    #[test]
    fn reused_context_reproduces_fresh_context_shots_exactly() {
        let backend = DdSimulator::new();
        let circuit = qft(6);
        let noise = NoiseModel::paper_defaults();
        let program = backend.compile(&circuit, &noise);
        let mut reused = backend.new_context();
        for seed in 0..24u64 {
            let mut rng_reused = StdRng::seed_from_u64(seed);
            let mut rng_fresh = StdRng::seed_from_u64(seed);
            let a = backend.run_shot(&program, &mut reused, &mut rng_reused, &program.absorbing);
            let mut fresh = backend.new_context();
            let b = backend.run_shot(&program, &mut fresh, &mut rng_fresh, &program.absorbing);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.error_events, b.error_events);
            assert_eq!(a.dd_nodes, b.dd_nodes);
            assert_eq!(a.dd_nodes_peak, b.dd_nodes_peak);
            assert_eq!(a.state, b.state, "reuse changed the final state edge");
        }
    }

    #[test]
    fn context_reseats_across_programs() {
        let backend = DdSimulator::new();
        let noise = NoiseModel::paper_defaults();
        let ghz_program = backend.compile(&ghz(5), &noise);
        let qft_program = backend.compile(&qft(4), &noise);
        let mut ctx = backend.new_context();
        // Alternate programs through one context; every shot must match a
        // fresh-context run of the same program and seed.
        for round in 0..6u64 {
            for program in [&ghz_program, &qft_program] {
                let mut rng_a = StdRng::seed_from_u64(round);
                let mut rng_b = StdRng::seed_from_u64(round);
                let a = backend.run_shot(program, &mut ctx, &mut rng_a, &program.absorbing);
                let mut fresh = backend.new_context();
                let b = backend.run_shot(program, &mut fresh, &mut rng_b, &program.absorbing);
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.state, b.state);
            }
        }
    }

    #[test]
    fn compiled_program_reports_its_shape() {
        let backend = DdSimulator::new();
        let program = backend.compile(&ghz(5), &NoiseModel::paper_defaults());
        assert_eq!(program.num_qubits(), 5);
        assert_eq!(program.step_count(), 5);
        assert!(program.persistent_mat_nodes() > 0);
        // Measurement-free circuit: the trajectory covers every step.
        assert_eq!(program.trajectory_steps(), 5);
    }

    #[test]
    fn trajectory_stops_at_the_first_measurement() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(2);
        circuit.h(0).measure(0, 0).x(1);
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        assert_eq!(program.step_count(), 3);
        assert_eq!(program.trajectory_steps(), 1);
    }

    #[test]
    fn the_no_error_continuation_is_found_not_rebuilt() {
        // The trajectory ends at the first measurement, but compile walked
        // on: a shot without an error finds its whole measure / project
        // chain in the frozen table layer, where it used to build a few
        // nodes per measured qubit and level.
        let backend = DdSimulator::new();
        let circuit = qsdd_circuit::generators::bernstein_vazirani(8, 0b101_0101);
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        let measurements = program.step_count() - program.trajectory_steps();
        assert_eq!(measurements, 7);
        let mut reused = backend.new_context();
        let mut clean_shots = 0;
        for seed in 0..32u64 {
            let run = backend.run_shot(
                &program,
                &mut reused,
                &mut StdRng::seed_from_u64(seed),
                &program.absorbing,
            );
            let mut fresh = backend.new_context();
            let twin = backend.run_shot(
                &program,
                &mut fresh,
                &mut StdRng::seed_from_u64(seed),
                &program.absorbing,
            );
            assert_eq!(
                (run.outcome, run.state, run.dd_nodes_peak),
                (twin.outcome, twin.state, twin.dd_nodes_peak)
            );
            assert_eq!(reused.package().stats(), fresh.package().stats());
            if run.error_events == 0 {
                clean_shots += 1;
                // The secret in clbits 0..7, the ancilla's unused bit last.
                assert_eq!(run.outcome, 0b1010_1010);
                let created = reused.package().transient_vec_nodes();
                assert!(created < measurements * program.num_qubits(), "{created}");
            }
        }
        assert!(clean_shots > 16);
    }

    #[test]
    fn certain_damping_forces_decay_through_the_fast_path() {
        // p = 1 amplitude damping: the X gate excites qubit 0, the
        // subsequent exposure decays it back with certainty. This pins the
        // Damping deviation branch of the fast-forward.
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(1);
        circuit.x(0);
        let noise = NoiseModel::new(0.0, 1.0, 0.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            assert_eq!(run.outcome, 0, "qubit must have decayed to |0>");
            assert_eq!(run.error_events, 1);
        }
    }

    #[test]
    fn certain_damping_forces_decay_on_the_live_path() {
        // The live twin of the test above: the first exposure decays through
        // the fast path, which takes the shot live. The CX then exposes two
        // qubits in |0> (threshold 0: the keep branch, no event) and the
        // second X excites qubit 1 for a certain live decay. Live execution
        // draws against the threshold first and builds only the selected
        // branch, one draw per exposure.
        let backend = DdSimulator::new();
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
            // thinning draw at each — and two sampled qubits, one draw each.
            let mut reference = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                let _ = reference.gen::<f64>();
            }
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
        }
    }

    #[test]
    fn sample_outcomes_draw_identically_for_one_member_and_for_many() {
        // A lone member samples the diagram directly, a group through the
        // flat plan.
        let backend = DdSimulator::new();
        let program = backend.compile(&ghz(5), &NoiseModel::paper_defaults());
        crate::backend::testing::assert_groups_draw_like_lone_members(&backend, &program);
    }

    #[test]
    fn a_kept_step_is_the_exposure_by_exposure_step_it_replaces() {
        use qsdd_circuit::Gate;
        let n = 6;
        let mut circuit = Circuit::new(n);
        let one_qubit = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rx(0.3),
            Gate::Ry(0.4),
            Gate::Rz(0.5),
            Gate::Phase(0.6),
            Gate::U2(0.1, 0.2),
            Gate::U3(0.3, 0.4, 0.5),
        ];
        for (index, gate) in one_qubit.into_iter().enumerate() {
            circuit.gate(gate, index % n);
        }
        // Two-qubit gates with the control above and below the target.
        circuit.cx(1, 4).cx(5, 0).cy(2, 3).cz(3, 1).ch(0, 5);
        circuit.cp(0.7, 4, 2).crz(0.9, 1, 3).swap(0, 4).swap(5, 2);
        // A large γ, so the keeps are far from the identity.
        let noise = NoiseModel::new(0.01, 0.3, 0.02);
        let program = DdSimulator::new().compile(&circuit, &noise);
        let mut dd = program.base.clone();
        let mut rng = StdRng::seed_from_u64(17);
        let width = program.channels.len();
        let close = |dd: &DdPackage, a: VecEdge, b: VecEdge| {
            let (a, b) = (dd.to_statevector(a, n), dd.to_statevector(b, n));
            a.iter().zip(&b).all(|(x, y)| x.approx_eq(*y, 1e-12))
        };
        for (index, step) in program.steps.iter().enumerate() {
            let DdStep::Apply {
                op,
                kept: Some(kept),
                noise_qubits,
                first_site,
                ..
            } = step
            else {
                panic!("step {index} is not kept");
            };
            let entering = random_state(&mut dd, n, &mut rng);
            // The step it replaces: the gate, then one exposure at a time,
            // recording the thresholds it meets.
            let gate = live_walk(dd.mat_vec_mul(*op, entering), index);
            let mut recording = Recording(vec![]);
            let sequential = expose(&program, &mut dd, gate, &mut recording);
            let thresholds = recording.0;
            let (folded, after) = kept_step(&mut dd, *kept, entering);
            let p_decay = kept_thresholds(&mut dd, folded, noise_qubits, &program);
            assert_eq!(thresholds.len(), noise_qubits.len());
            for (kept_p, sequential_p) in p_decay.iter().zip(&thresholds) {
                assert!((kept_p - sequential_p).abs() < 1e-12, "step {index}");
            }
            assert!(close(&dd, after, sequential.state), "step {index}");
            // A deviation at any exposure lands where the sequential step
            // with the same event lands.
            for offset in 0..noise_qubits.len() * width {
                let decay = program.channels[offset % width].state_dependent();
                let error = if decay { ErrorEvent::DECAY } else { 0 };
                let site = first_site + offset as u32;
                let pattern = ErrorPattern::default().with_event(ErrorEvent { site, error });
                let mut replayed = Replayed::new(&pattern);
                let entered = live_walk(entering, index);
                let deviated = entered.run(&program, &mut dd, index + 1, &mut replayed, &mut []);
                let gate = live_walk(dd.mat_vec_mul(*op, entering), index);
                let sequential = expose(&program, &mut dd, gate, &mut Replayed::new(&pattern));
                assert_eq!(deviated.error_events, 1);
                assert_eq!(
                    deviated.state, sequential.state,
                    "step {index} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn a_chain_of_blocks_reaches_the_state_single_steps_reach() {
        // A live walk over whole segments takes its kept steps on the chain,
        // block products where compile kept them; the same walk cut into
        // one-step segments takes every kept step alone. Both reach one
        // state up to the reassociated round-off, after an event at any
        // passive exposure site.
        let backend = DdSimulator::new();
        let tenfold = NoiseModel::new(0.01, 0.02, 0.01);
        for circuit in [ghz(16), qft(8), w_state(8)] {
            let program = backend.compile(&circuit, &tenfold);
            let (mut dd, steps) = (program.base.clone(), program.steps.len());
            let width = program.channels.len();
            let before = dd.table_stats().block_steps;
            for site in 0..program.survival.len() as u32 {
                if program.channels[site as usize % width].state_dependent() {
                    continue;
                }
                let pattern = ErrorPattern::default().with_event(ErrorEvent { site, error: 0 });
                let mut replayed = Replayed::new(&pattern);
                let chained =
                    Walk::start(&program).run(&program, &mut dd, steps, &mut replayed, &mut []);
                let (mut single, mut replayed) = (Walk::start(&program), Replayed::new(&pattern));
                for index in 0..steps {
                    single = single.run(&program, &mut dd, index + 1, &mut replayed, &mut []);
                }
                let fidelity = dd.fidelity(chained.state, single.state);
                assert!(
                    (fidelity - 1.0).abs() < 1e-9,
                    "{} after an event at site {site}: fidelity {fidelity}",
                    circuit.name()
                );
            }
            let block_steps = dd.table_stats().block_steps - before;
            assert!(block_steps > 0, "{} took no block step", circuit.name());
        }
    }

    #[test]
    fn forked_buckets_equal_per_shot_execution_even_when_tables_trim() {
        use crate::dedup::{plan_range, run_work, Evolutions};
        use crate::shot_engine::ShotSample;
        use crate::stochastic::shot_rng;
        use crate::Deadline;
        // The paper's channels at ten times their strength: buckets grow
        // children and grandchildren. With a tiny cache limit the tables
        // trim inside forks, rollbacks fail and the fallback runs.
        let backend = DdSimulator::new();
        let (tenfold, shots, seed) = (NoiseModel::new(0.01, 0.02, 0.01), 4_000, 2021);
        for circuit in [ghz(8), qft(6)] {
            let mut evolutions = Vec::new();
            for limit in [qsdd_dd::DEFAULT_CACHE_LIMIT, 16] {
                let mut program = backend.compile(&circuit, &tenfold);
                program.base.set_cache_limit(limit);
                let support = program.dedup_support();
                let mut records = vec![None; shots];
                let mut sink = |shot: u64, sample, _: &[f64]| records[shot as usize] = Some(sample);
                let (deadline, mut ctx) = (Deadline::unbounded(), backend.new_context());
                let absorbing = &program.absorbing;
                let mut out = Evolutions::new(&support, &[], seed, &deadline, &mut sink);
                out.absorbing = absorbing;
                for work in plan_range(&support, 0..shots as u64, seed, absorbing).0 {
                    run_work(&backend, &program, &mut ctx, work, &mut out).unwrap();
                }
                evolutions.push(out.stats.unique_trajectories);
                let mut alone = backend.new_context();
                for (shot, record) in records.into_iter().enumerate() {
                    let live = backend.run_shot(
                        &program,
                        &mut alone,
                        &mut shot_rng(seed, shot as u64),
                        &program.absorbing,
                    );
                    let sample = record.expect("every shot is reported");
                    assert_eq!(
                        sample,
                        ShotSample::of(&live),
                        "{} shot {shot}",
                        circuit.name()
                    );
                }
            }
            // Children the fallback ran live from scratch are no evolutions.
            assert!(
                evolutions[1] < evolutions[0],
                "{evolutions:?}: no rollback failed"
            );
        }
    }

    #[test]
    fn certain_phase_flip_fires_through_the_fast_path() {
        // p = 1 phase flip: Z after the X gate leaves |1> measurable but
        // counts one error event. This pins the Passive deviation branch.
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(1);
        circuit.x(0);
        let noise = NoiseModel::new(0.0, 0.0, 1.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = backend.run_shot(&program, &mut ctx, &mut rng, &program.absorbing);
            assert_eq!(run.outcome, 1);
            assert_eq!(run.error_events, 1);
        }
    }
}
