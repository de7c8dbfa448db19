//! A re-entrant, shareable shot-execution engine.
//!
//! [`ShotEngine`] packages everything a stochastic shot needs — the
//! (optionally transpiled) circuit **compiled into an executable program**,
//! the back-end, the noise model and the master seed — behind `&self`
//! methods. Construction performs all per-circuit work exactly once:
//! transpilation, layout bookkeeping, and the back-end's compile phase
//! (operator diagrams, noise tables; see
//! [`crate::StochasticBackend::compile`]).
//!
//! Shots execute against a reusable per-worker [`ExecContext`]: create one
//! context per worker thread ([`ShotEngine::new_context`]) and feed it to
//! [`ShotEngine::run_shot_in`] for every shot that worker executes — across
//! chunks, and across engines (a context re-seats itself when handed a
//! different engine of the same back-end kind). Because the per-shot random
//! number generator is derived purely from the master seed and the shot
//! index, and because context reuse is bit-identical to fresh execution,
//! any number of threads can pull arbitrary shots from the same engine, in
//! any order, and the result of shot `i` is always the same.
//!
//! Two consumers share this API:
//!
//! * the job driver [`crate::execute`] — behind
//!   [`StochasticSimulator`](crate::StochasticSimulator), the CLI and the
//!   server's workers — runs whole jobs on one engine;
//! * the `qsdd-batch` scheduler builds one engine per job, presamples each
//!   round of a job's shots into work items ([`ShotEngine::plan_range`])
//!   and lets its worker pool pull chunks of them, from any job, off a
//!   global queue; each worker runs a chunk through the same item loop as
//!   the driver's lanes ([`ShotEngine::run_items_in`]), in one long-lived
//!   context that caches one inner context per back-end kind.
//!
//! Outcomes are always reported in the *original* circuit's qubit order: if
//! the transpiler elided trailing SWAPs into an output relabeling, the
//! engine undoes that relabeling on every sampled outcome (and offers
//! [`ShotEngine::map_observables`] for the reverse direction).

use std::time::Instant;

use qsdd_circuit::Circuit;
use qsdd_dd::TableStats;
use qsdd_noise::{ErrorPattern, NoiseModel, Presampled};
use qsdd_telemetry::{Stage, StageTimings};
use qsdd_transpile::{layout, transpile, OptLevel, TranspileResult};
use rand::rngs::StdRng;

use crate::backend::{SingleRun, StochasticBackend};
use crate::dd_backend::{DdContext, DdProgram, DdSimulator, Handoff};
use crate::deadline::{Deadline, TimedOut};
use crate::dedup::{
    plan_range, run_group, run_pattern, run_work, DecisionPoints, DedupPartial, DedupStats,
    DedupSupport, Evolutions, TrajectoryWork,
};
use crate::dense_backend::{DenseContext, DenseProgram, DenseSimulator};
use crate::estimator::Observable;
use crate::simulator::BackendKind;
use crate::stochastic::shot_rng;

/// The aggregate-relevant result of one stochastic shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShotSample {
    /// Sampled measurement outcome as a basis-state index, reported in the
    /// original circuit's qubit order.
    pub outcome: u64,
    /// Number of stochastic error events that fired during the shot.
    pub error_events: u64,
    /// Node count of the final state's decision diagram (`0` on the dense
    /// statevector back-end, which has no diagram).
    pub dd_nodes: u64,
    /// Peak node count the state diagram reached at any point during the
    /// shot — the memory high-water mark, sampled after every applied
    /// operation (`0` on the dense back-end).
    pub dd_nodes_peak: u64,
}

impl ShotSample {
    /// The aggregate-relevant part of a back-end run.
    pub(crate) fn of<S>(run: &SingleRun<S>) -> ShotSample {
        ShotSample {
            outcome: run.outcome,
            error_events: run.error_events as u64,
            dd_nodes: run.dd_nodes,
            dd_nodes_peak: run.dd_nodes_peak,
        }
    }
}

/// Monomorphised back-end + compiled-program storage (the engine must be a
/// concrete type so the batch scheduler can hold a heterogeneous fleet of
/// engines in one `Vec`).
#[derive(Clone, Debug)]
enum EngineBackend {
    DecisionDiagram {
        backend: DdSimulator,
        program: Box<DdProgram>,
    },
    Statevector {
        backend: DenseSimulator,
        program: Box<DenseProgram>,
    },
}

/// A reusable per-worker execution context for [`ShotEngine`] shots.
///
/// A context starts empty and lazily builds one inner context **per
/// back-end kind** on first use, so a worker alternating between
/// decision-diagram and statevector engines keeps both warm — neither is
/// discarded when the other runs. Handing it to a different compiled
/// program of the same kind re-seats the inner context transparently.
/// Reuse is purely an optimisation: every shot behaves exactly as if it
/// ran in a brand-new context.
#[derive(Debug, Default)]
pub struct ExecContext {
    dd: Option<Box<DdContext>>,
    dense: Option<Box<DenseContext>>,
}

impl ExecContext {
    /// Creates an empty context, usable with any engine.
    pub fn new() -> Self {
        ExecContext::default()
    }

    /// Borrows the decision-diagram context, creating it on first use.
    fn dd_mut(&mut self) -> &mut DdContext {
        self.dd.get_or_insert_with(Box::default)
    }

    /// Borrows the statevector context, creating it on first use.
    fn dense_mut(&mut self) -> &mut DenseContext {
        self.dense.get_or_insert_with(Box::default)
    }

    /// Snapshot of the decision-diagram table counters accumulated by this
    /// context's package, for before/after deltas around a job. Zero when no
    /// decision-diagram shot ran yet.
    pub fn dd_table_stats(&self) -> TableStats {
        (self.dd.as_deref()).map_or_else(TableStats::default, |ctx| ctx.package().table_stats())
    }
}

/// A re-entrant shot executor for one circuit.
///
/// Construction does all per-circuit work up front (transpilation, layout
/// bookkeeping, back-end compilation); afterwards
/// [`run_shot_in`](Self::run_shot_in) is pure with respect to `&self` plus
/// the shot index, so engines can be shared freely across threads (the type
/// is [`Sync`]) while each thread supplies its own [`ExecContext`].
///
/// # Examples
///
/// ```
/// use qsdd_circuit::generators::ghz;
/// use qsdd_core::{BackendKind, OptLevel, ShotEngine};
/// use qsdd_noise::NoiseModel;
///
/// let engine = ShotEngine::new(
///     &ghz(4),
///     BackendKind::DecisionDiagram,
///     NoiseModel::noiseless(),
///     7,
///     OptLevel::O0,
/// );
/// // Re-entrant: the same shot index always yields the same sample, and a
/// // reused context gives the same results as a throwaway one.
/// let mut ctx = engine.new_context();
/// assert_eq!(
///     engine.run_shot_in(&mut ctx, 3),
///     engine.run_shot_in(&mut engine.new_context(), 3)
/// );
/// // A noiseless GHZ shot lands on one of the two peaks.
/// let sample = engine.run_shot_in(&mut ctx, 0);
/// assert!(sample.outcome == 0 || sample.outcome == 0b1111);
/// assert_eq!(sample.error_events, 0);
/// ```
#[derive(Clone, Debug)]
pub struct ShotEngine {
    backend: EngineBackend,
    circuit: Circuit,
    /// `None` when the transpiler's output layout is the identity.
    output_layout: Option<Vec<usize>>,
    noise: NoiseModel,
    seed: u64,
    /// How the compiled program supports trajectory deduplication, resolved
    /// once at construction.
    pub(crate) dedup: DedupSupport,
    /// Where [`BackendKind::Auto`] left the decision-diagram compile for
    /// the statevector engine, if it did.
    handoff: Option<Handoff>,
    /// Wall time spent in the construction stages (transpile, compile), so
    /// runners can fold the one-off setup cost into a job's stage breakdown.
    timings: StageTimings,
}

impl ShotEngine {
    /// Builds an engine for `circuit`, transpiling it at `opt` first.
    ///
    /// Transpilation and back-end compilation happen exactly once here;
    /// every subsequent shot executes the precompiled program.
    pub fn new(
        circuit: &Circuit,
        backend: BackendKind,
        noise: NoiseModel,
        seed: u64,
        opt: OptLevel,
    ) -> Self {
        if opt == OptLevel::O0 {
            let compile_started = Instant::now();
            let (backend, handoff) = EngineBackend::compile(backend, circuit, &noise);
            let mut timings = StageTimings::new();
            timings.record(Stage::Compile, compile_started.elapsed());
            return ShotEngine {
                dedup: backend.dedup_support(),
                handoff,
                backend,
                circuit: circuit.clone(),
                output_layout: None,
                noise,
                seed,
                timings,
            };
        }
        let transpile_started = Instant::now();
        let transpiled = transpile(circuit, opt);
        let transpile_time = transpile_started.elapsed();
        let mut engine = ShotEngine::from_transpiled(&transpiled, backend, noise, seed);
        engine.timings.record(Stage::Transpile, transpile_time);
        engine
    }

    /// Builds an engine from an already-transpiled circuit.
    ///
    /// Use this when the [`TranspileResult`] is needed anyway (e.g. to print
    /// its gate-count report) to avoid transpiling twice.
    pub fn from_transpiled(
        transpiled: &TranspileResult,
        backend: BackendKind,
        noise: NoiseModel,
        seed: u64,
    ) -> Self {
        let compile_started = Instant::now();
        let (backend, handoff) = EngineBackend::compile(backend, &transpiled.circuit, &noise);
        let mut timings = StageTimings::new();
        timings.record(Stage::Compile, compile_started.elapsed());
        ShotEngine {
            dedup: backend.dedup_support(),
            handoff,
            backend,
            circuit: transpiled.circuit.clone(),
            output_layout: (!transpiled.has_identity_layout())
                .then(|| transpiled.output_layout.clone()),
            noise,
            seed,
            timings,
        }
    }

    /// Wall time the construction stages took (transpile and compile), as a
    /// [`StageTimings`] ready to merge into a run's breakdown.
    pub fn stage_timings(&self) -> StageTimings {
        self.timings
    }

    /// The circuit the engine actually executes (after transpilation).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of qubits of the executed circuit.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// The master seed shots are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The noise model applied after every gate.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Which engine executes the shots: never [`BackendKind::Auto`], which
    /// resolves to one of the two when the engine compiles.
    pub fn backend_kind(&self) -> BackendKind {
        match self.backend {
            EngineBackend::DecisionDiagram { .. } => BackendKind::DecisionDiagram,
            EngineBackend::Statevector { .. } => BackendKind::Statevector,
        }
    }

    /// Where [`BackendKind::Auto`] handed the job to the statevector engine:
    /// the step and node count of the first no-error state that reached the
    /// density threshold. `None` for every other engine.
    pub fn handoff(&self) -> Option<Handoff> {
        self.handoff
    }

    /// Creates a fresh execution context for this engine.
    ///
    /// One context per worker thread is the intended granularity; the same
    /// context can subsequently be reused with *other* engines too (it
    /// re-seats itself on the first shot of each program).
    pub fn new_context(&self) -> ExecContext {
        ExecContext::new()
    }

    /// Executes stochastic shot number `shot` in the given reusable
    /// context.
    ///
    /// The shot's random number generator is derived deterministically from
    /// the engine seed and `shot`, and context reuse is unobservable, so
    /// the result does not depend on which thread runs the shot, in which
    /// order shots are executed, or what the context ran before.
    pub fn run_shot_in(&self, ctx: &mut ExecContext, shot: u64) -> ShotSample {
        self.run_shot_with_observables_in(ctx, shot, &[]).0
    }

    /// Executes shot `shot` in the given context and additionally evaluates
    /// quadratic observables on the shot's final state.
    ///
    /// The observables must already be expressed over the *executed*
    /// circuit's qubits — pass them through
    /// [`map_observables`](Self::map_observables) once per batch instead of
    /// remapping on every shot.
    pub fn run_shot_with_observables_in(
        &self,
        ctx: &mut ExecContext,
        shot: u64,
        observables: &[Observable],
    ) -> (ShotSample, Vec<f64>) {
        let mut rng = shot_rng(self.seed, shot);
        self.run_with_rng_in(ctx, &mut rng, observables, self.absorbing(observables))
    }

    /// Executes one live shot with a caller-supplied generator (the
    /// weighted tail sampler derives its generators from a salted seed
    /// stream rather than the shot index), absorbing Z errors at the
    /// `absorbing` sites.
    pub(crate) fn run_with_rng_in(
        &self,
        ctx: &mut ExecContext,
        rng: &mut StdRng,
        observables: &[Observable],
        absorbing: &[bool],
    ) -> (ShotSample, Vec<f64>) {
        let (mut sample, values) = match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                run_live(backend, program, ctx.dd_mut(), rng, observables, absorbing)
            }
            EngineBackend::Statevector { backend, program } => {
                let ctx = ctx.dense_mut();
                run_live(backend, program, ctx, rng, observables, absorbing)
            }
        };
        if let Some(output_layout) = &self.output_layout {
            // The transpiler only elides trailing SWAPs on measurement-free
            // circuits, where the outcome is a full-register sample, so
            // shuffling its bits through the layout restores the original
            // qubit order exactly.
            sample.outcome = layout::restore_outcome(sample.outcome, output_layout);
        }
        (sample, values)
    }

    /// `true` when the compiled program supports weighted trajectory
    /// enumeration (see [`crate::weighted`]): the whole program must be
    /// pattern-replayable ([`DedupSupport::full`] — no mid-circuit
    /// measurements or resets) and small enough that the exact outcome
    /// histogram stays tractable.
    pub fn supports_weighted(&self) -> bool {
        self.dedup.full && self.num_qubits() <= crate::weighted::MAX_WEIGHTED_QUBITS
    }

    /// The presample plan weighted enumeration walks; `None` when the
    /// engine does not support weighted enumeration.
    pub(crate) fn weighted_plan(&self) -> Option<&qsdd_noise::PresamplePlan> {
        self.supports_weighted().then_some(&self.dedup.plan)
    }

    /// Simulates one enumerated error pattern and feeds the final state's
    /// exact outcome distribution into `sink` (outcomes restored to the
    /// original qubit order). Returns the pattern run's statistics and the
    /// observables' exact values on the pattern's final state.
    ///
    /// `observables` must already be mapped through
    /// [`map_observables`](Self::map_observables).
    ///
    /// # Panics
    ///
    /// Panics if the engine does not support weighted enumeration
    /// ([`supports_weighted`](Self::supports_weighted)).
    pub(crate) fn run_weighted_pattern_in(
        &self,
        ctx: &mut ExecContext,
        pattern: &ErrorPattern,
        observables: &[Observable],
        sink: &mut dyn FnMut(u64, f64),
    ) -> (ShotSample, Vec<f64>) {
        assert!(
            self.supports_weighted(),
            "run_weighted_pattern_in requires an engine with weighted support"
        );
        let output_layout = self.output_layout.as_deref();
        let mut restore = |outcome: u64, probability: f64| match output_layout {
            Some(output_layout) => {
                sink(layout::restore_outcome(outcome, output_layout), probability)
            }
            None => sink(outcome, probability),
        };
        match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                let ctx = ctx.dd_mut();
                weighted_pattern(backend, program, ctx, pattern, observables, &mut restore)
            }
            EngineBackend::Statevector { backend, program } => {
                let ctx = ctx.dense_mut();
                weighted_pattern(backend, program, ctx, pattern, observables, &mut restore)
            }
        }
    }

    /// Resolves shot `shot`'s error decisions up front, every error an event
    /// (nothing absorbed, so the pattern is the shot's whole trajectory).
    ///
    /// Returns the shot's [`ErrorPattern`] together with its generator —
    /// positioned exactly where live execution would be after the covered
    /// exposures — when the shot is deduplicable; `None` when the shot left
    /// the no-error path with a state-dependent decision ahead. Shots with
    /// equal patterns belong in the same [`run_group_in`](Self::run_group_in)
    /// group.
    pub fn presample_shot(&self, shot: u64) -> Option<(ErrorPattern, StdRng)> {
        let mut rng = shot_rng(self.seed, shot);
        match self.dedup.plan.presample(&mut rng, &[]).0 {
            Presampled::Pattern(pattern) => Some((pattern, rng)),
            Presampled::Deviated { .. } => None,
        }
    }

    /// Presamples a contiguous shot range into work items for
    /// [`run_items_in`](Self::run_items_in) or
    /// [`run_items_with`](Self::run_items_with), in first-appearance order
    /// with members in shot order: one trajectory group per distinct pattern —
    /// in member runs of at most [`CHUNK_SHOTS`](crate::dedup::CHUNK_SHOTS)
    /// when its members resume live past a shared prefix — and one
    /// deviation bucket per distinct first event of the shots that left the
    /// no-error path with a state-dependent decision ahead.
    ///
    /// Z errors are absorbed where the program allows it, so the work suits
    /// observables that read populations. This is the building block for
    /// bounded-memory consumers (the batch scheduler presamples one round
    /// at a time with it).
    pub fn plan_range(&self, range: std::ops::Range<u64>) -> Vec<TrajectoryWork> {
        plan_range(&self.dedup, range, self.seed, self.absorbing(&[])).0
    }

    /// The replay sink `sink` (shot index, sample, observable values) with
    /// every outcome restored to the original qubit order first.
    fn restoring<'a>(
        &'a self,
        mut sink: impl FnMut(u64, ShotSample, &[f64]) + 'a,
    ) -> impl FnMut(u64, ShotSample, &[f64]) + 'a {
        move |shot, mut sample, values| {
            if let Some(output_layout) = &self.output_layout {
                sample.outcome = layout::restore_outcome(sample.outcome, output_layout);
            }
            sink(shot, sample, values)
        }
    }

    /// Executes one trajectory group: the shared `pattern` is simulated
    /// once and every member shot receives its own sample (outcome drawn
    /// from the shared state, or resumed live after a deduplicated prefix).
    ///
    /// `shots` are `(shot index, generator)` pairs as returned by
    /// [`presample_shot`](Self::presample_shot), all with the identical
    /// pattern; `observables` must already be mapped through
    /// [`map_observables`](Self::map_observables). Nothing is absorbed, so
    /// a sample equals [`run_shot_in`](Self::run_shot_in)'s for the shot —
    /// byte for byte unless the shot drew a Z error that one absorbs.
    pub fn run_group_in(
        &self,
        ctx: &mut ExecContext,
        pattern: &ErrorPattern,
        shots: &mut [(u64, StdRng)],
        observables: &[Observable],
    ) -> Vec<(u64, ShotSample, Vec<f64>)> {
        let mut records = Vec::with_capacity(shots.len());
        let mut sink = self.restoring(|shot, sample, values: &[f64]| {
            records.push((shot, sample, values.to_vec()))
        });
        let unbounded = Deadline::unbounded();
        let (support, seed) = (&self.dedup, self.seed);
        let mut out = Evolutions::new(support, observables, seed, &unbounded, &mut sink);
        let shots = &mut (shots.iter())
            .map(|(shot, rng)| (*shot, rng.clone(), 0))
            .collect::<Vec<_>>();
        match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                run_group(backend, program, ctx.dd_mut(), pattern, shots, &mut out)
            }
            EngineBackend::Statevector { backend, program } => {
                run_group(backend, program, ctx.dense_mut(), pattern, shots, &mut out)
            }
        }
        drop(sink); // it borrows `records`
        records
    }

    /// Runs `items` in `ctx` and reports every member shot to `sink` as
    /// `(shot index, sample, observable values)`, its outcome restored to
    /// the original qubit order: the item loop of every worker of the
    /// deduplicating driver, and of every batch chunk.
    ///
    /// A reported shot is byte-identical to what
    /// [`run_shot_in`](Self::run_shot_in) produces for that shot index.
    /// Returns the evolutions performed and the shots run live — none for a
    /// group's later member runs, whose evolution its first run counts —
    /// and the number of Z errors the reported shots absorbed.
    ///
    /// `observables` must already be mapped through
    /// [`map_observables`](Self::map_observables) and be those the items
    /// were planned for: they decide the sites where Z errors are absorbed,
    /// and [`plan_range`](Self::plan_range) plans for observables that read
    /// populations. The `deadline` is checked between evolutions; an item is
    /// claimed only when the one before has finished.
    pub fn run_items_with(
        &self,
        ctx: &mut ExecContext,
        items: impl IntoIterator<Item = TrajectoryWork>,
        observables: &[Observable],
        deadline: &Deadline,
        sink: impl FnMut(u64, ShotSample, &[f64]),
    ) -> Result<(DedupStats, u64), TimedOut> {
        let mut sink = self.restoring(sink);
        let (support, seed) = (&self.dedup, self.seed);
        let mut out = Evolutions::new(support, observables, seed, deadline, &mut sink);
        out.absorbing = self.absorbing(observables);
        let mut items = items.into_iter();
        match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                items.try_for_each(|item| run_work(backend, program, ctx.dd_mut(), item, &mut out))
            }
            EngineBackend::Statevector { backend, program } => items
                .try_for_each(|item| run_work(backend, program, ctx.dense_mut(), item, &mut out)),
        }?;
        Ok((out.stats, out.absorbed))
    }

    /// [`run_items_with`](Self::run_items_with), folding the shots into
    /// `share`.
    pub fn run_items_in(
        &self,
        ctx: &mut ExecContext,
        items: impl IntoIterator<Item = TrajectoryWork>,
        observables: &[Observable],
        deadline: &Deadline,
        share: &mut DedupPartial,
    ) -> Result<(), TimedOut> {
        let record = |shot, sample, values: &[f64]| share.record(shot, sample, values);
        let (stats, absorbed) = self.run_items_with(ctx, items, observables, deadline, record)?;
        share.stats += stats;
        share.absorbed += absorbed;
        Ok(())
    }

    /// The absorbing sites a job with `observables` runs with: the
    /// program's, or none when an observable reads phases (a fidelity).
    pub(crate) fn absorbing(&self, observables: &[Observable]) -> &[bool] {
        if (observables.iter()).any(|o| matches!(o, Observable::Fidelity(_))) {
            return &[];
        }
        match &self.backend {
            EngineBackend::DecisionDiagram { program, .. } => &program.absorbing,
            EngineBackend::Statevector { program, .. } => &program.absorbing,
        }
    }

    /// Re-expresses observables over the original qubits as observables over
    /// the executed circuit's qubits.
    ///
    /// With an identity layout this is a clone; otherwise qubit indices and
    /// basis indices are pushed through the transpiler's output layout. Call
    /// once before a shot loop and feed the result to
    /// [`run_shot_with_observables_in`](Self::run_shot_with_observables_in).
    pub fn map_observables(&self, observables: &[Observable]) -> Vec<Observable> {
        match &self.output_layout {
            None => observables.to_vec(),
            Some(output_layout) => observables
                .iter()
                .map(|observable| remap_observable(observable, output_layout))
                .collect(),
        }
    }
}

impl EngineBackend {
    /// Compiles `circuit` on the engine `kind` names. [`BackendKind::Auto`]
    /// compiles for decision diagrams, watching the no-error walk on jobs of
    /// at most [`BackendKind::AUTO_MAX_QUBITS`] qubits, and compiles the
    /// dense program instead — returning where — once a state of that walk
    /// reaches `2^(n − AUTO_DENSITY)` nodes.
    fn compile(
        kind: BackendKind,
        circuit: &Circuit,
        noise: &NoiseModel,
    ) -> (Self, Option<Handoff>) {
        let n = circuit.num_qubits();
        let watch = match kind {
            BackendKind::Statevector => return (Self::dense(circuit, noise), None),
            BackendKind::Auto if n <= BackendKind::AUTO_MAX_QUBITS => {
                Some(1 << n.saturating_sub(BackendKind::AUTO_DENSITY))
            }
            BackendKind::Auto | BackendKind::DecisionDiagram => None,
        };
        let backend = DdSimulator::new();
        match backend.compile_watched(circuit, noise, watch) {
            Ok(program) => {
                let program = Box::new(program);
                (EngineBackend::DecisionDiagram { backend, program }, None)
            }
            Err(handoff) => (Self::dense(circuit, noise), Some(handoff)),
        }
    }

    fn dense(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let backend = DenseSimulator::new();
        let program = Box::new(backend.compile(circuit, noise));
        EngineBackend::Statevector { backend, program }
    }

    fn dedup_support(&self) -> DedupSupport {
        match self {
            EngineBackend::DecisionDiagram { program, .. } => program.dedup_support(),
            EngineBackend::Statevector { program, .. } => program.dedup_support(),
        }
    }
}

/// Replays `pattern` on a concrete back-end, feeds the exact outcome
/// distribution of its final state into `sink` and evaluates the
/// observables there.
fn weighted_pattern<B: DecisionPoints>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    pattern: &ErrorPattern,
    observables: &[Observable],
    sink: &mut dyn FnMut(u64, f64),
) -> (ShotSample, Vec<f64>) {
    let mut run = run_pattern::<B>(program, ctx, pattern);
    let values: Vec<f64> = (observables.iter())
        .map(|o| backend.evaluate(program, ctx, &mut run, o))
        .collect();
    backend.outcome_distribution(program, ctx, &run, sink);
    (ShotSample::of(&run), values)
}

/// Runs one shot on a concrete back-end, absorbing Z errors at the
/// `absorbing` sites, and evaluates the observables; `SingleRun` carries
/// the diagram statistics uniformly (zero on back-ends without diagrams),
/// so both engine arms share this body.
fn run_live<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    rng: &mut rand::rngs::StdRng,
    observables: &[Observable],
    absorbing: &[bool],
) -> (ShotSample, Vec<f64>) {
    let mut run = backend.run_shot(program, ctx, rng, absorbing);
    let values: Vec<f64> = observables
        .iter()
        .map(|o| backend.evaluate(program, ctx, &mut run, o))
        .collect();
    (ShotSample::of(&run), values)
}

/// Re-expresses an observable over the original qubits as one over the
/// optimized circuit's qubits (`layout[q]` holds original qubit `q`).
fn remap_observable(observable: &Observable, output_layout: &[usize]) -> Observable {
    match observable {
        Observable::QubitExcitation(q) => Observable::QubitExcitation(output_layout[*q]),
        Observable::BasisProbability(index) => {
            Observable::BasisProbability(layout::permute_index(*index, output_layout))
        }
        Observable::Fidelity(amplitudes) => {
            let mut permuted = amplitudes.clone();
            for (index, amplitude) in amplitudes.iter().enumerate() {
                permuted[layout::permute_index(index as u64, output_layout) as usize] = *amplitude;
            }
            Observable::Fidelity(permuted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};

    #[test]
    fn a_fidelity_sees_the_phase_errors_populations_absorb() {
        use crate::{execute, ExecMode, ExecPlan, Placement};
        // Every shot flips the phase of |+>: the readout cannot tell, the
        // overlap with |+> can.
        let mut circuit = Circuit::new(1);
        circuit.h(0);
        let plus = qsdd_dd::Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        let observables = [
            Observable::QubitExcitation(0),
            Observable::Fidelity(vec![plus, plus]),
        ];
        for kind in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
            let noise = NoiseModel::new(0.0, 0.0, 1.0);
            let engine = ShotEngine::new(&circuit, kind, noise, 5, OptLevel::O0);
            for mode in [ExecMode::PerShot, ExecMode::Dedup] {
                for observables in [&observables[..1], &observables[..]] {
                    let plan = ExecPlan::new(mode.clone(), 200, observables);
                    let outcome = execute(&engine, &plan, Placement::Threads(2)).unwrap();
                    assert_eq!(outcome.error_events, 200, "every Z is counted");
                    assert!((outcome.observable_estimates[0] - 0.5).abs() < 1e-12);
                    if let [_, fidelity] = outcome.observable_estimates[..] {
                        assert!(fidelity.abs() < 1e-12, "{kind:?} {mode:?}: {fidelity}");
                    }
                }
            }
        }
    }

    #[test]
    fn shots_are_deterministic_and_reentrant() {
        let engine = ShotEngine::new(
            &ghz(6),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            42,
            OptLevel::O0,
        );
        let mut ctx = engine.new_context();
        let first: Vec<ShotSample> = (0..16).map(|s| engine.run_shot_in(&mut ctx, s)).collect();
        // Replaying any shot, in any order, in the same (reused) context,
        // yields the identical sample.
        let replay: Vec<ShotSample> = (0..16)
            .rev()
            .map(|s| engine.run_shot_in(&mut ctx, s))
            .collect();
        let mut replay = replay;
        replay.reverse();
        assert_eq!(first, replay);
    }

    #[test]
    fn reused_context_matches_throwaway_contexts() {
        let engine = ShotEngine::new(
            &qft(5),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            77,
            OptLevel::O0,
        );
        let mut ctx = engine.new_context();
        for shot in 0..32 {
            let throwaway = engine.run_shot_in(&mut engine.new_context(), shot);
            assert_eq!(engine.run_shot_in(&mut ctx, shot), throwaway);
        }
    }

    #[test]
    fn one_context_serves_engines_of_both_kinds() {
        let dd = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            5,
            OptLevel::O0,
        );
        let dense = ShotEngine::new(
            &ghz(4),
            BackendKind::Statevector,
            NoiseModel::paper_defaults(),
            5,
            OptLevel::O0,
        );
        let mut ctx = ExecContext::new();
        for shot in 0..8 {
            // Alternating engine kinds keeps both inner contexts warm;
            // results still match one-off execution.
            let (dd_alone, dense_alone) = (
                dd.run_shot_in(&mut ExecContext::new(), shot),
                dense.run_shot_in(&mut ExecContext::new(), shot),
            );
            assert_eq!(dd.run_shot_in(&mut ctx, shot), dd_alone);
            assert_eq!(dense.run_shot_in(&mut ctx, shot), dense_alone);
        }
    }

    #[test]
    fn engines_share_across_threads() {
        let engine = ShotEngine::new(
            &ghz(5),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            9,
            OptLevel::O0,
        );
        let mut reference_ctx = engine.new_context();
        let sequential: Vec<u64> = (0..32)
            .map(|s| engine.run_shot_in(&mut reference_ctx, s).outcome)
            .collect();
        let mut concurrent = vec![0u64; 32];
        std::thread::scope(|scope| {
            for (chunk_index, chunk) in concurrent.chunks_mut(8).enumerate() {
                let engine = &engine;
                scope.spawn(move || {
                    let mut ctx = engine.new_context();
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = engine
                            .run_shot_in(&mut ctx, (chunk_index * 8 + offset) as u64)
                            .outcome;
                    }
                });
            }
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn transpiled_engine_restores_original_qubit_order() {
        // qft ends in trailing SWAPs which O2 elides into a relabeling; the
        // engine must undo it so both engines sample the same distribution.
        let circuit = qft(3);
        let raw = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            3,
            OptLevel::O0,
        );
        let optimized = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            3,
            OptLevel::O2,
        );
        assert!(optimized.circuit().len() < raw.circuit().len());
        // Same seed, same shot index, but different circuits: outcomes need
        // not match shot-by-shot, yet both must stay within range and the
        // layout restoration must be exercised.
        let mut ctx = optimized.new_context();
        for shot in 0..64 {
            assert!(optimized.run_shot_in(&mut ctx, shot).outcome < 8);
        }
    }

    #[test]
    fn dense_backend_reports_zero_dd_nodes() {
        let engine = ShotEngine::new(
            &ghz(4),
            BackendKind::Statevector,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let sample = engine.run_shot_in(&mut engine.new_context(), 0);
        assert_eq!(sample.dd_nodes, 0);
        assert_eq!(sample.dd_nodes_peak, 0);
        let dd = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let sample = dd.run_shot_in(&mut dd.new_context(), 0);
        assert!(sample.dd_nodes > 0);
        assert!(sample.dd_nodes_peak >= sample.dd_nodes);
    }

    #[test]
    fn map_observables_is_identity_without_layout() {
        let engine = ShotEngine::new(
            &ghz(3),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let observables = vec![Observable::QubitExcitation(2)];
        assert_eq!(engine.map_observables(&observables), observables);
    }
}
