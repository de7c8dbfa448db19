//! The concurrent Monte-Carlo runner.
//!
//! Stochastic quantum circuit simulation needs many independent runs to form
//! accurate empirical averages (Theorem 1). Because the runs are i.i.d.,
//! they parallelise perfectly: the runner compiles the circuit **once**
//! (resolving every operator the shots will need), partitions the requested
//! shot count over worker threads, hands each worker one reusable execution
//! context (rewound, not rebuilt, between shots), gives every *shot* its
//! own deterministically derived random number generator (so results do not
//! depend on the thread count), and merges the per-worker histograms and
//! observable sums in worker order at the end. This is the "concurrency
//! across simulation runs" idea of Section IV-C of the paper, with the
//! per-circuit work amortised across the whole shot loop.
//!
//! # Determinism
//!
//! * Histograms and error counts are identical for every thread count (shot
//!   `i` depends on the master seed and `i` alone; integer merges are
//!   order-independent).
//! * Observable estimates are floating-point sums, so their *low bits*
//!   depend on the summation grouping and therefore on the thread count —
//!   but for a **fixed** thread count they are bit-stable: partial sums are
//!   merged in worker-index order, never in completion order.
//! * Context reuse never affects any of the above: a reused context
//!   produces bit-identical shots to a fresh one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qsdd_circuit::Circuit;
use qsdd_noise::NoiseModel;
use qsdd_telemetry::trace;
use qsdd_telemetry::{Stage, StageTimings};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

use qsdd_statevector::IntraPool;

use crate::backend::StochasticBackend;
use crate::deadline::{Deadline, TimedOut};
use crate::dedup::{run_dedup, DedupStats};
use crate::estimator::{Observable, ObservableAccumulator};
use crate::shot_engine::ShotEngine;

/// Configuration of a stochastic simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct StochasticConfig {
    /// Number of independent simulation runs (samples).
    pub shots: usize,
    /// Number of worker threads; `0` uses the machine's available
    /// parallelism.
    pub threads: usize,
    /// Master seed; every shot derives its own generator from it, so results
    /// are reproducible and independent of the thread count.
    pub seed: u64,
    /// The noise model applied after every gate.
    pub noise: NoiseModel,
    /// Whether to deduplicate shots by presampled error pattern (see
    /// [`crate::dedup`]). On by default; results are byte-identical either
    /// way, so turning it off is only useful for benchmarking the per-shot
    /// path.
    pub dedup: bool,
    /// When set, runs the weighted-enumeration driver (see
    /// [`crate::weighted`]): error patterns are enumerated in probability
    /// order and their outcome distributions weighted exactly, with
    /// rejection-sampled shots covering only the residual mass. Falls back
    /// to the configured sampling path when the program does not support
    /// enumeration.
    pub weighted: Option<crate::weighted::WeightedOptions>,
    /// Intra-shot parallelism width: the number of fork-join workers the
    /// dense kernels of one statevector shot may split across (the
    /// decision-diagram back-end is serial and ignores it). `1` (the
    /// default) keeps shots serial. The request is clamped against the
    /// shot-worker count so the two levels of parallelism never
    /// oversubscribe the machine; results are bit-identical for every
    /// setting.
    pub intra_threads: usize,
}

impl StochasticConfig {
    /// A configuration with the paper's noise model and a given shot count.
    pub fn new(shots: usize) -> Self {
        StochasticConfig {
            shots,
            threads: 0,
            seed: 0xD1CE_5EED,
            noise: NoiseModel::paper_defaults(),
            dedup: true,
            weighted: None,
            intra_threads: 1,
        }
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Enables or disables trajectory deduplication.
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Enables the weighted-enumeration driver with the given options
    /// (see [`crate::weighted`]).
    pub fn with_weighted(mut self, options: crate::weighted::WeightedOptions) -> Self {
        self.weighted = Some(options);
        self
    }

    /// Sets the intra-shot parallelism width (`1` = serial shots).
    pub fn with_intra_threads(mut self, intra_threads: usize) -> Self {
        self.intra_threads = intra_threads.max(1);
        self
    }

    /// Resolves the effective number of worker threads.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for StochasticConfig {
    fn default() -> Self {
        StochasticConfig::new(1024)
    }
}

/// Resolves a requested intra-shot width against the shot-worker count.
///
/// A single shot-worker gets the request as-is; with several workers the
/// request is clamped to the cores left over per worker (`cores /
/// workers`, floored at 1), so inter-shot and intra-shot parallelism
/// together never oversubscribe the machine.
pub fn resolve_intra_threads(requested: usize, workers: usize) -> usize {
    let requested = requested.max(1);
    if requested == 1 || workers <= 1 {
        return requested;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.min((cores / workers).max(1))
}

/// Builds the shared fork-join pool of a run — every shot-worker installs a
/// clone — or `None` when the resolved width stays serial.
pub fn build_intra_pool(requested: usize, workers: usize) -> Option<Arc<IntraPool>> {
    let resolved = resolve_intra_threads(requested, workers);
    (resolved > 1).then(|| Arc::new(IntraPool::new(resolved)))
}

/// Aggregated result of a stochastic simulation.
#[derive(Clone, Debug)]
pub struct StochasticOutcome {
    /// Histogram of measurement outcomes (basis index -> count).
    pub counts: HashMap<u64, u64>,
    /// Number of runs performed.
    pub shots: usize,
    /// Monte-Carlo estimates of the requested observables (same order as the
    /// request).
    pub observable_estimates: Vec<f64>,
    /// Total number of stochastic error events over all runs.
    pub error_events: u64,
    /// Mean decision-diagram node count of the final per-shot states
    /// (`0.0` on the dense statevector back-end).
    pub dd_nodes_avg: f64,
    /// Peak decision-diagram node count reached at any point in any shot —
    /// the memory high-water mark of the whole simulation (`0` on the dense
    /// back-end).
    pub dd_nodes_peak: u64,
    /// Wall-clock time of the whole simulation.
    pub wall_time: Duration,
    /// Resolved worker-thread count of the run. For `shots > 0` this is the
    /// number of workers actually spawned (capped at the shot count); a
    /// zero-shot run spawns no workers but still reports the resolved
    /// configuration.
    pub threads: usize,
    /// Trajectory-deduplication statistics; `None` when the run executed on
    /// the ordinary per-shot path (deduplication disabled, or the program
    /// does not support it).
    pub dedup: Option<DedupStats>,
    /// Weighted-enumeration statistics; `None` when the run sampled shots
    /// instead of enumerating trajectories (see [`crate::weighted`]). When
    /// set, [`counts`](Self::counts) is an integer rendering of the exact
    /// [`WeightedStats::distribution`](crate::weighted::WeightedStats).
    pub weighted: Option<crate::weighted::WeightedStats>,
    /// Wall-time breakdown by pipeline stage (transpile, compile,
    /// presample, group, execute, aggregate). Always filled — reading a
    /// few `Instant`s per *job* costs nothing measurable — so callers can
    /// render a profile without enabling global telemetry.
    pub stage_timings: StageTimings,
}

impl StochasticOutcome {
    /// An empty outcome (zero shots) reporting the given thread count.
    fn empty(observables: usize, threads: usize, wall_time: Duration) -> Self {
        StochasticOutcome {
            counts: HashMap::new(),
            shots: 0,
            observable_estimates: vec![0.0; observables],
            error_events: 0,
            dd_nodes_avg: 0.0,
            dd_nodes_peak: 0,
            wall_time,
            threads,
            dedup: None,
            weighted: None,
            stage_timings: StageTimings::new(),
        }
    }

    /// Relative frequency of a measurement outcome.
    pub fn frequency(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(&outcome).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// The most frequent measurement outcome, if any run was performed.
    ///
    /// Ties are broken deterministically in favour of the smallest outcome
    /// index (hash-map iteration order must not leak into results).
    pub fn most_frequent(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by_key(|(&outcome, &count)| (count, std::cmp::Reverse(outcome)))
            .map(|(&outcome, _)| outcome)
    }

    /// Average number of error events per run.
    pub fn error_rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.error_events as f64 / self.shots as f64
    }

    /// Fraction of shots served from another shot's trajectory
    /// (`1 - unique_trajectories / shots`); `0.0` on the per-shot path.
    pub fn dedup_hit_rate(&self) -> f64 {
        match &self.dedup {
            Some(stats) if self.shots > 0 => {
                1.0 - stats.unique_trajectories as f64 / self.shots as f64
            }
            _ => 0.0,
        }
    }
}

/// Everything one worker accumulated over its strided share of the shots.
///
/// Also replayed by the deduplicating runner ([`crate::dedup`]) to
/// reproduce this module's exact per-worker summation order. The local
/// histogram uses the fast in-process hasher (one entry per shot is the
/// single hottest map operation of the loop); the merged result is
/// converted to the outcome's ordinary map.
pub(crate) struct WorkerPartial {
    counts: crate::fxhash::FxHashMap<u64, u64>,
    observables: ObservableAccumulator,
    errors: u64,
    nodes_sum: u64,
    nodes_peak: u64,
}

impl WorkerPartial {
    pub(crate) fn new(observables: usize) -> Self {
        WorkerPartial {
            counts: crate::fxhash::FxHashMap::default(),
            observables: ObservableAccumulator::new(observables),
            errors: 0,
            nodes_sum: 0,
            nodes_peak: 0,
        }
    }

    pub(crate) fn record(&mut self, sample: &crate::ShotSample, values: &[f64]) {
        *self.counts.entry(sample.outcome).or_insert(0) += 1;
        self.errors += sample.error_events;
        self.nodes_sum += sample.dd_nodes;
        self.nodes_peak = self.nodes_peak.max(sample.dd_nodes_peak);
        if !values.is_empty() {
            self.observables.add(values);
        }
    }
}

/// Merges per-worker partials **in worker-index order** (bit-stable
/// floating-point sums for a fixed thread count) into an outcome.
pub(crate) fn merge_partials(
    partials: Vec<Option<WorkerPartial>>,
    shots: usize,
    observables: usize,
    threads: usize,
    started: Instant,
) -> StochasticOutcome {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut merged = ObservableAccumulator::new(observables);
    let mut errors = 0u64;
    let mut nodes_sum = 0u64;
    let mut nodes_peak = 0u64;
    for partial in partials.into_iter().flatten() {
        for (outcome, count) in partial.counts {
            *counts.entry(outcome).or_insert(0) += count;
        }
        merged.merge(&partial.observables);
        errors += partial.errors;
        nodes_sum += partial.nodes_sum;
        nodes_peak = nodes_peak.max(partial.nodes_peak);
    }
    StochasticOutcome {
        counts,
        shots,
        observable_estimates: merged.means(),
        error_events: errors,
        dd_nodes_avg: if shots == 0 {
            0.0
        } else {
            nodes_sum as f64 / shots as f64
        },
        dd_nodes_peak: nodes_peak,
        wall_time: started.elapsed(),
        threads,
        dedup: None,
        weighted: None,
        stage_timings: StageTimings::new(),
    }
}

/// Runs `config.shots` independent stochastic simulations of `circuit` on
/// `backend`, estimating the given observables along the way.
///
/// The circuit is compiled once ([`StochasticBackend::compile`]); shots are
/// distributed over worker threads ([`StochasticConfig::threads`]), each
/// worker executing its strided share through one reusable context. Every
/// shot uses a random number generator derived deterministically from the
/// master seed and the shot index, so the histogram is independent of how
/// shots are assigned to threads.
///
/// When [`StochasticConfig::dedup`] is on (the default) and the compiled
/// program supports it, shots are deduplicated by presampled error pattern
/// (see [`crate::dedup`]): each distinct trajectory is simulated once and
/// fanned out over its shots. The results — histograms, error counts, node
/// statistics and the bit patterns of the observable sums — are identical
/// either way.
pub fn run_stochastic<B: StochasticBackend>(
    backend: &B,
    circuit: &Circuit,
    config: &StochasticConfig,
    observables: &[Observable],
) -> StochasticOutcome {
    let started = Instant::now();
    if config.shots == 0 {
        // Nothing to run: return an empty outcome without spawning workers,
        // still reporting the resolved worker count for consistency.
        return StochasticOutcome::empty(
            observables.len(),
            config.effective_threads(),
            started.elapsed(),
        );
    }
    let compile_started = Instant::now();
    let program = backend.compile(circuit, &config.noise);
    let compile_time = compile_started.elapsed();
    let threads = config.effective_threads().max(1).min(config.shots);
    let intra = build_intra_pool(backend.intra_width(config.intra_threads), threads);
    if config.dedup {
        if let Some(support) = backend.dedup_support(&program) {
            let mut outcome = run_dedup(
                backend,
                &program,
                &support,
                config.shots,
                threads,
                config.seed,
                observables,
                None,
                intra.as_ref(),
                None,
                started,
                &Deadline::unbounded(),
            )
            .expect("an unbounded deadline never expires");
            outcome.stage_timings.record(Stage::Compile, compile_time);
            if intra.is_some() {
                let execute_time = outcome.stage_timings.get(Stage::Execute);
                outcome
                    .stage_timings
                    .record(Stage::IntraExecute, execute_time);
            }
            return outcome;
        }
    }
    let mut partials: Vec<Option<WorkerPartial>> = (0..threads).map(|_| None).collect();
    let execute_started = Instant::now();

    let trace_handle = trace::propagate();
    std::thread::scope(|scope| {
        for (worker, slot) in partials.iter_mut().enumerate() {
            let program = &program;
            let observables = &observables;
            let config = &config;
            let intra = intra.as_ref();
            let trace_handle = trace_handle.clone();
            scope.spawn(move || {
                let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                let _span = trace::span("worker_shots");
                trace::attr("worker", worker);
                let mut ctx = backend.new_context();
                if let Some(pool) = intra {
                    backend.set_intra_pool(&mut ctx, Some(Arc::clone(pool)));
                }
                let mut partial = WorkerPartial::new(observables.len());
                let mut executed = 0usize;
                let mut shot = worker;
                while shot < config.shots {
                    let mut rng = shot_rng(config.seed, shot as u64);
                    let mut run = backend.run_shot(program, &mut ctx, &mut rng);
                    let values: Vec<f64> = observables
                        .iter()
                        .map(|o| backend.evaluate(program, &mut ctx, &mut run, o))
                        .collect();
                    partial.record(&crate::ShotSample::of(&run), &values);
                    executed += 1;
                    shot += threads;
                }
                trace::attr("shots", executed);
                *slot = Some(partial);
            });
        }
    });
    let execute_time = execute_started.elapsed();

    let aggregate_started = Instant::now();
    let mut outcome = merge_partials(partials, config.shots, observables.len(), threads, started);
    outcome.stage_timings.record(Stage::Compile, compile_time);
    outcome.stage_timings.record(Stage::Execute, execute_time);
    if intra.is_some() {
        outcome
            .stage_timings
            .record(Stage::IntraExecute, execute_time);
    }
    outcome
        .stage_timings
        .record(Stage::Aggregate, aggregate_started.elapsed());
    outcome
}

/// Runs `shots` independent stochastic shots on a prepared [`ShotEngine`],
/// estimating the given observables along the way.
///
/// This is the engine-driven twin of [`run_stochastic`]: the same strided
/// shot loop, but executing through the re-entrant [`ShotEngine`] API that
/// the batch scheduler shares, with one reusable
/// [`ExecContext`](crate::ExecContext) per worker. Observables are remapped
/// through the engine's output layout once, outcomes arrive already
/// restored to the original circuit's qubit order, so no post-processing is
/// required.
///
/// `threads == 0` uses all available cores. Histograms are identical for
/// every thread count because each shot derives its generator from the
/// engine seed and the shot index alone.
pub fn run_engine(
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
) -> StochasticOutcome {
    run_engine_deadline(engine, shots, threads, observables, &Deadline::unbounded())
        .expect("an unbounded deadline never expires")
}

/// [`run_engine`] under a cooperative [`Deadline`]: workers check the
/// budget before every shot and the run returns [`TimedOut`] — no partial
/// aggregates — when any worker observed expiry before finishing. With
/// [`Deadline::unbounded`] the check is a hoisted boolean, so this *is*
/// [`run_engine`].
pub fn run_engine_deadline(
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    let started = Instant::now();
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    if shots == 0 {
        // Nothing to run: return an empty outcome without spawning workers,
        // still reporting the resolved worker count for consistency.
        return Ok(StochasticOutcome::empty(
            observables.len(),
            threads,
            started.elapsed(),
        ));
    }
    let threads = threads.min(shots);
    let intra = build_intra_pool(engine.intra_threads(), threads);
    let mapped = engine.map_observables(observables);
    let mut partials: Vec<Option<WorkerPartial>> = (0..threads).map(|_| None).collect();
    let aborted = AtomicBool::new(false);

    let execute_started = Instant::now();
    let trace_handle = trace::propagate();
    std::thread::scope(|scope| {
        for (worker, slot) in partials.iter_mut().enumerate() {
            let mapped = &mapped;
            let intra = intra.as_ref();
            let aborted = &aborted;
            let trace_handle = trace_handle.clone();
            scope.spawn(move || {
                let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                let _span = trace::span("worker_shots");
                trace::attr("worker", worker);
                let mut ctx = engine.new_context();
                if let Some(pool) = intra {
                    ctx.set_intra_pool(Some(Arc::clone(pool)));
                }
                let bounded = !deadline.is_unbounded();
                let mut partial = WorkerPartial::new(mapped.len());
                let mut executed = 0usize;
                let mut shot = worker;
                while shot < shots {
                    if bounded && deadline.expired() {
                        // `expired` latched the shared flag, so sibling
                        // workers exit on their next check too.
                        aborted.store(true, Ordering::Relaxed);
                        return;
                    }
                    let (sample, values) =
                        engine.run_shot_with_observables_in(&mut ctx, shot as u64, mapped);
                    partial.record(&sample, &values);
                    executed += 1;
                    shot += threads;
                }
                trace::attr("shots", executed);
                *slot = Some(partial);
            });
        }
    });
    if aborted.load(Ordering::Relaxed) {
        return Err(TimedOut);
    }
    let execute_time = execute_started.elapsed();

    let aggregate_started = Instant::now();
    let mut outcome = merge_partials(partials, shots, observables.len(), threads, started);
    outcome.stage_timings = engine.stage_timings();
    outcome.stage_timings.record(Stage::Execute, execute_time);
    if intra.is_some() {
        outcome
            .stage_timings
            .record(Stage::IntraExecute, execute_time);
    }
    outcome
        .stage_timings
        .record(Stage::Aggregate, aggregate_started.elapsed());
    Ok(outcome)
}

/// The deduplicating twin of [`run_engine`]: shots are presampled and
/// grouped by error pattern, each distinct trajectory is simulated once,
/// and the results fan out per shot (see [`crate::dedup`]).
///
/// Falls back to [`run_engine`] when the engine's program does not support
/// deduplication (a state-dependent channel outside the precomputed
/// trajectory, or a dominating non-unitary tail). Results are byte-identical
/// to [`run_engine`] for every seed and thread count — including the bit
/// patterns of the observable sums — so callers may pick purely by
/// expected performance.
pub fn run_engine_dedup(
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
) -> StochasticOutcome {
    run_engine_dedup_deadline(engine, shots, threads, observables, &Deadline::unbounded())
        .expect("an unbounded deadline never expires")
}

/// [`run_engine_dedup`] under a cooperative [`Deadline`]: workers check
/// the budget between trajectory work items (one group or one live shot)
/// and the run returns [`TimedOut`] when it expired before completion.
/// The per-shot fallback inherits the same deadline.
pub fn run_engine_dedup_deadline(
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    let started = Instant::now();
    let resolved = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    if shots == 0 {
        return Ok(StochasticOutcome::empty(
            observables.len(),
            resolved,
            started.elapsed(),
        ));
    }
    let workers = resolved.min(shots);
    let intra = build_intra_pool(engine.intra_threads(), workers);
    match engine.dedup_outcome(
        shots,
        workers,
        observables,
        intra.as_ref(),
        None,
        started,
        deadline,
    ) {
        Some(result) => result.map(|mut outcome| {
            outcome.stage_timings.merge(&engine.stage_timings());
            if intra.is_some() {
                let execute_time = outcome.stage_timings.get(Stage::Execute);
                outcome
                    .stage_timings
                    .record(Stage::IntraExecute, execute_time);
            }
            outcome
        }),
        None => run_engine_deadline(engine, shots, threads, observables, deadline),
    }
}

/// Runs a whole job — `shots` stochastic shots plus observable estimation —
/// **inside the caller's execution context**, on the calling thread.
///
/// This is the job-execution entry the long-lived `qsdd-server` worker pool
/// runs on: a worker owns one [`ExecContext`](crate::ExecContext) for its
/// whole lifetime and executes every job it picks up through this function,
/// so per-circuit state from previous jobs is rewound — not rebuilt — and
/// the PR-3 context-reuse path amortises across requests. Unlike
/// [`run_engine`] / [`run_engine_dedup`] it spawns no threads of its own;
/// callers that want parallelism run several jobs on several workers.
///
/// With `dedup` enabled (and supported by the engine's program) the
/// trajectory-deduplicating driver executes each distinct presampled error
/// pattern once (see [`crate::dedup`]); otherwise every shot runs live. The
/// result is **byte-identical** to `run_engine_dedup(engine, shots, 1,
/// observables)` respectively `run_engine(engine, shots, 1, observables)` —
/// histograms, error counts, node statistics, dedup statistics and the bit
/// patterns of the observable sums all match the single-threaded runner —
/// which is what lets the server's result cache serve byte-stable reports.
pub fn run_engine_in(
    engine: &ShotEngine,
    ctx: &mut crate::ExecContext,
    shots: usize,
    observables: &[Observable],
    dedup: bool,
) -> StochasticOutcome {
    run_engine_in_deadline(
        engine,
        ctx,
        shots,
        observables,
        dedup,
        &Deadline::unbounded(),
    )
    .expect("an unbounded deadline never expires")
}

/// [`run_engine_in`] under a cooperative [`Deadline`] — the server
/// worker-pool entry for jobs carrying a `timeout_ms`. The budget is
/// checked between shots (and between trajectory groups on the dedup
/// path); on expiry the job returns [`TimedOut`] with no partial results
/// and the context remains reusable for the next job.
pub fn run_engine_in_deadline(
    engine: &ShotEngine,
    ctx: &mut crate::ExecContext,
    shots: usize,
    observables: &[Observable],
    dedup: bool,
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    let started = Instant::now();
    if shots == 0 {
        return Ok(StochasticOutcome::empty(
            observables.len(),
            1,
            started.elapsed(),
        ));
    }
    let dd_before = ctx.dd_table_stats();
    let mut outcome =
        run_engine_in_inner(engine, ctx, shots, observables, dedup, started, deadline)?;
    outcome.stage_timings.merge(&engine.stage_timings());
    if engine.wide_pool(ctx).is_some() {
        let execute_time = outcome.stage_timings.get(Stage::Execute);
        outcome
            .stage_timings
            .record(Stage::IntraExecute, execute_time);
    }
    publish_job_metrics(&outcome, ctx.dd_table_stats().since(&dd_before));
    Ok(outcome)
}

/// The timed body of [`run_engine_in`]: executes the shots and fills the
/// presample/execute/aggregate entries of the outcome's stage breakdown
/// (the engine's own transpile/compile times are merged by the caller).
fn run_engine_in_inner(
    engine: &ShotEngine,
    ctx: &mut crate::ExecContext,
    shots: usize,
    observables: &[Observable],
    dedup: bool,
    started: Instant,
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    if dedup {
        // The deduplicating driver at one worker, run on this thread in
        // the caller's context.
        if let Some(result) =
            engine.dedup_outcome(shots, 1, observables, None, Some(ctx), started, deadline)
        {
            return result;
        }
    }
    let mapped = &engine.map_observables(observables);
    let bounded = !deadline.is_unbounded();
    let execute_started = Instant::now();
    let pool = engine.wide_pool(ctx);
    let shots_span = trace::span(if pool.is_some() {
        "intra_shots"
    } else {
        "shots"
    });
    trace::attr("shots", shots);
    if let Some(pool) = pool {
        trace::attr("intra_width", pool.threads());
    }
    let dd_before = trace_dd_stats(|| ctx.dd_table_stats());
    let mut partial = WorkerPartial::new(mapped.len());
    for shot in 0..shots as u64 {
        if bounded && deadline.expired() {
            return Err(TimedOut);
        }
        let (sample, values) = engine.run_shot_with_observables_in(ctx, shot, mapped);
        partial.record(&sample, &values);
    }
    trace_dd_attrs(dd_before, || ctx.dd_table_stats());
    drop(shots_span);
    let execute_time = execute_started.elapsed();
    let aggregate_started = Instant::now();
    let mut outcome = merge_partials(vec![Some(partial)], shots, mapped.len(), 1, started);
    outcome.stage_timings.record(Stage::Execute, execute_time);
    outcome
        .stage_timings
        .record(Stage::Aggregate, aggregate_started.elapsed());
    Ok(outcome)
}

/// Snapshot of a context's decision-diagram table counters (`stats`), taken
/// only when the calling thread is actively traced (the stats walk both
/// packages, so skip the work for un-traced runs).
pub(crate) fn trace_dd_stats(
    stats: impl FnOnce() -> qsdd_dd::TableStats,
) -> Option<qsdd_dd::TableStats> {
    trace::active().then(stats)
}

/// Attaches the decision-diagram table-traffic delta since `before` to
/// the innermost open span (the per-group / per-loop node and table-hit
/// attributes the trace vocabulary promises).
pub(crate) fn trace_dd_attrs(
    before: Option<qsdd_dd::TableStats>,
    stats: impl FnOnce() -> qsdd_dd::TableStats,
) {
    if let Some(before) = before {
        let delta = stats().since(&before);
        trace::attr("dd_compute_hits", delta.compute_hits);
        trace::attr("dd_compute_misses", delta.compute_misses);
        trace::attr(
            "dd_unique_hits",
            delta.vec_unique_hits + delta.mat_unique_hits,
        );
        trace::attr(
            "dd_unique_misses",
            delta.vec_unique_misses + delta.mat_unique_misses,
        );
    }
}

/// Publishes a finished job's stage timings and decision-diagram table
/// traffic to the global telemetry registry. A no-op while telemetry is
/// disabled — one relaxed atomic load — so the per-job cost off the
/// serving path is negligible.
pub(crate) fn publish_job_metrics(outcome: &StochasticOutcome, dd_delta: qsdd_dd::TableStats) {
    if !qsdd_telemetry::enabled() {
        return;
    }
    outcome.stage_timings.publish();
    let registry = qsdd_telemetry::global();
    let counters: [(&str, &str, u64); 8] = [
        (
            "qsdd_dd_vec_unique_hits_total",
            "Vector unique-table lookups that found an existing node",
            dd_delta.vec_unique_hits,
        ),
        (
            "qsdd_dd_vec_unique_misses_total",
            "Vector unique-table lookups that created a new node",
            dd_delta.vec_unique_misses,
        ),
        (
            "qsdd_dd_mat_unique_hits_total",
            "Matrix unique-table lookups that found an existing node",
            dd_delta.mat_unique_hits,
        ),
        (
            "qsdd_dd_mat_unique_misses_total",
            "Matrix unique-table lookups that created a new node",
            dd_delta.mat_unique_misses,
        ),
        (
            "qsdd_dd_compute_hits_total",
            "Compute-table lookups that hit a cached result",
            dd_delta.compute_hits,
        ),
        (
            "qsdd_dd_compute_misses_total",
            "Compute-table lookups that missed and computed",
            dd_delta.compute_misses,
        ),
        (
            "qsdd_jobs_shots_total",
            "Stochastic shots aggregated into finished jobs",
            outcome.shots as u64,
        ),
        (
            "qsdd_jobs_error_events_total",
            "Stochastic error events over all finished jobs",
            outcome.error_events,
        ),
    ];
    for (name, help, value) in counters {
        if value > 0 {
            registry.counter(name, help).add(value);
        }
    }
    if outcome.dd_nodes_peak > 0 {
        registry
            .gauge(
                "qsdd_dd_peak_nodes",
                "Highest decision-diagram node count any job reached",
            )
            .set_max(outcome.dd_nodes_peak as i64);
    }
    if let Some(stats) = &outcome.dedup {
        registry
            .counter(
                "qsdd_dedup_unique_trajectories_total",
                "Distinct trajectories actually simulated by deduplicated jobs",
            )
            .add(stats.unique_trajectories);
        registry
            .counter(
                "qsdd_dedup_live_shots_total",
                "Shots that fell back to live execution in deduplicated jobs",
            )
            .add(stats.live_shots);
    }
}

/// Derives the per-shot random number generator from the master seed.
///
/// This derivation is the determinism contract shared by every shot-executing
/// path in the workspace ([`run_stochastic`], [`ShotEngine`], and through it
/// the batch scheduler): shot `i` under seed `s` always sees the same
/// generator, regardless of threads or scheduling.
pub(crate) fn shot_rng(seed: u64, shot: u64) -> StdRng {
    // SplitMix64-style mixing keeps neighbouring shot seeds uncorrelated.
    let mut z = seed ^ shot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dd_backend::DdSimulator;
    use crate::dense_backend::DenseSimulator;
    use qsdd_circuit::generators::ghz;

    #[test]
    fn histogram_counts_sum_to_shots() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(500).with_threads(4);
        let outcome = run_stochastic(&backend, &ghz(6), &config, &[]);
        let total: u64 = outcome.counts.values().sum();
        assert_eq!(total, 500);
        assert_eq!(outcome.shots, 500);
        assert_eq!(outcome.threads, 4);
        assert!(outcome.dd_nodes_avg > 0.0);
        assert!(outcome.dd_nodes_peak > 0);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let backend = DdSimulator::new();
        let base = StochasticConfig::new(200).with_seed(7);
        let single = run_stochastic(&backend, &ghz(4), &base.clone().with_threads(1), &[]);
        let multi = run_stochastic(&backend, &ghz(4), &base.with_threads(4), &[]);
        assert_eq!(single.counts, multi.counts);
        assert_eq!(single.dd_nodes_peak, multi.dd_nodes_peak);
        assert!((single.dd_nodes_avg - multi.dd_nodes_avg).abs() < 1e-12);
    }

    #[test]
    fn observable_sums_are_bit_stable_for_a_fixed_thread_count() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(240).with_seed(3).with_threads(3);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let first = run_stochastic(&backend, &ghz(4), &config, &observables);
        let second = run_stochastic(&backend, &ghz(4), &config, &observables);
        for (a, b) in first
            .observable_estimates
            .iter()
            .zip(&second.observable_estimates)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "merge order leaked into sums");
        }
    }

    #[test]
    fn noiseless_ghz_splits_between_the_two_peaks() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(400)
            .with_noise(NoiseModel::noiseless())
            .with_threads(2);
        let outcome = run_stochastic(&backend, &ghz(5), &config, &[]);
        let all_ones = (1u64 << 5) - 1;
        let p0 = outcome.frequency(0);
        let p1 = outcome.frequency(all_ones);
        assert!(
            (p0 + p1 - 1.0).abs() < 1e-12,
            "only the two GHZ outcomes occur"
        );
        assert!(p0 > 0.35 && p1 > 0.35);
        assert_eq!(outcome.error_events, 0);
    }

    #[test]
    fn observable_estimates_track_exact_values() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(300)
            .with_noise(NoiseModel::noiseless())
            .with_threads(3);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        let outcome = run_stochastic(&backend, &ghz(4), &config, &observables);
        assert_eq!(outcome.observable_estimates.len(), 2);
        assert!((outcome.observable_estimates[0] - 0.5).abs() < 1e-9);
        assert!((outcome.observable_estimates[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dense_and_dd_backends_agree_statistically() {
        let circuit = ghz(4);
        let config = StochasticConfig::new(600).with_seed(21).with_threads(2);
        let dd = run_stochastic(&DdSimulator::new(), &circuit, &config, &[]);
        let dense = run_stochastic(&DenseSimulator::new(), &circuit, &config, &[]);
        let all_ones = (1u64 << 4) - 1;
        for outcome in [0, all_ones] {
            let diff = (dd.frequency(outcome) - dense.frequency(outcome)).abs();
            assert!(
                diff < 0.1,
                "frequency mismatch {diff} for outcome {outcome}"
            );
        }
        assert_eq!(dense.dd_nodes_peak, 0);
        assert_eq!(dense.dd_nodes_avg, 0.0);
    }

    #[test]
    fn stage_timings_cover_the_pipeline_on_every_runner() {
        use crate::{BackendKind, ShotEngine};
        use qsdd_transpile::OptLevel;

        // Threaded runner: compile + execute are always timed.
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(64).with_threads(2).with_seed(5);
        let outcome = run_stochastic(&backend, &ghz(4), &config, &[]);
        assert!(outcome.stage_timings.get(Stage::Execute) > Duration::ZERO);
        assert!(outcome.stage_timings.total() >= outcome.stage_timings.get(Stage::Execute));

        // In-context runner (the server path): the engine's compile time is
        // merged in, the dedup driver fills presample, and the
        // instrumentation never alters results.
        let engine = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless().with_depolarizing(0.05),
            9,
            OptLevel::O1,
        );
        let mut ctx = engine.new_context();
        let in_ctx = run_engine_in(&engine, &mut ctx, 64, &[], true);
        assert!(in_ctx.stage_timings.get(Stage::Compile) > Duration::ZERO);
        assert!(in_ctx.stage_timings.get(Stage::Execute) > Duration::ZERO);
        if in_ctx.dedup.is_some() {
            assert!(in_ctx.stage_timings.get(Stage::Presample) > Duration::ZERO);
        }
        let reference = run_engine_dedup(&engine, 64, 1, &[]);
        assert_eq!(in_ctx.counts, reference.counts);
        assert_eq!(in_ctx.error_events, reference.error_events);
    }

    #[test]
    fn decision_diagram_runs_never_build_an_intra_pool() {
        // The width request is inert on the serial back-end and honoured
        // on the dense one (a lone worker skips the core clamp).
        for dedup in [true, false] {
            let config = StochasticConfig::new(32)
                .with_threads(1)
                .with_intra_threads(2)
                .with_dedup(dedup);
            let dd = run_stochastic(&DdSimulator::new(), &ghz(4), &config, &[]);
            assert_eq!(dd.stage_timings.get(Stage::IntraExecute), Duration::ZERO);
            let dense = run_stochastic(&DenseSimulator::new(), &ghz(4), &config, &[]);
            assert!(dense.stage_timings.get(Stage::IntraExecute) > Duration::ZERO);
        }
    }

    #[test]
    fn most_frequent_breaks_ties_by_smallest_outcome() {
        let outcome = StochasticOutcome {
            counts: HashMap::from([(7u64, 5u64), (2, 5), (4, 5), (9, 3)]),
            shots: 18,
            observable_estimates: Vec::new(),
            error_events: 0,
            dd_nodes_avg: 0.0,
            dd_nodes_peak: 0,
            wall_time: Duration::ZERO,
            threads: 1,
            dedup: None,
            weighted: None,
            stage_timings: StageTimings::new(),
        };
        // All of 2, 4, 7 are tied at 5 counts: the smallest index wins,
        // independent of hash-map iteration order.
        assert_eq!(outcome.most_frequent(), Some(2));
        let empty = StochasticOutcome::empty(0, 0, Duration::ZERO);
        assert_eq!(empty.most_frequent(), None);
    }

    #[test]
    fn zero_shots_yield_an_empty_outcome() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(0).with_threads(4);
        let observables = [Observable::QubitExcitation(0)];
        let outcome = run_stochastic(&backend, &ghz(3), &config, &observables);
        assert_eq!(outcome.shots, 0);
        assert!(outcome.counts.is_empty());
        // Even with no workers spawned the resolved thread count is reported.
        assert_eq!(outcome.threads, 4);
        assert_eq!(outcome.observable_estimates, vec![0.0]);
        assert_eq!(outcome.most_frequent(), None);
        assert_eq!(outcome.error_rate(), 0.0);
        assert_eq!(outcome.frequency(0), 0.0);
        assert_eq!(outcome.dd_nodes_peak, 0);
    }

    #[test]
    fn run_engine_matches_run_stochastic_exactly() {
        // Both runners share the per-shot rng derivation, so histograms and
        // error counts must agree bit for bit, whatever the thread count.
        let circuit = ghz(5);
        let config = StochasticConfig::new(300)
            .with_seed(13)
            .with_threads(3)
            .with_noise(NoiseModel::paper_defaults());
        let generic = run_stochastic(&DdSimulator::new(), &circuit, &config, &[]);
        let engine = ShotEngine::new(
            &circuit,
            crate::BackendKind::DecisionDiagram,
            config.noise,
            config.seed,
            crate::OptLevel::O0,
        );
        for threads in [1, 2, 5] {
            let via_engine = run_engine(&engine, 300, threads, &[]);
            assert_eq!(via_engine.counts, generic.counts);
            assert_eq!(via_engine.error_events, generic.error_events);
            assert_eq!(via_engine.shots, 300);
            assert_eq!(via_engine.dd_nodes_peak, generic.dd_nodes_peak);
        }
    }

    #[test]
    fn run_engine_in_matches_the_single_threaded_runners_bit_for_bit() {
        // Paper noise mixes pattern groups with live (damping) shots, which
        // exercises both arms of the serial dedup driver.
        let circuit = ghz(6);
        let engine = ShotEngine::new(
            &circuit,
            crate::BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            17,
            crate::OptLevel::O0,
        );
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let mut ctx = engine.new_context();
        for dedup in [true, false] {
            let serial = run_engine_in(&engine, &mut ctx, 300, &observables, dedup);
            let reference = if dedup {
                run_engine_dedup(&engine, 300, 1, &observables)
            } else {
                run_engine(&engine, 300, 1, &observables)
            };
            assert_eq!(serial.counts, reference.counts, "dedup={dedup}");
            assert_eq!(serial.error_events, reference.error_events);
            assert_eq!(serial.dd_nodes_peak, reference.dd_nodes_peak);
            assert_eq!(
                serial.dd_nodes_avg.to_bits(),
                reference.dd_nodes_avg.to_bits()
            );
            assert_eq!(serial.dedup, reference.dedup, "dedup={dedup}");
            assert_eq!(serial.threads, 1);
            for (a, b) in serial
                .observable_estimates
                .iter()
                .zip(&reference.observable_estimates)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "observable sums drifted");
            }
        }
    }

    #[test]
    fn run_engine_in_reuses_one_context_across_jobs() {
        // The same context serves jobs of both backend kinds back to back —
        // the server worker-pool pattern — without affecting results.
        let mut ctx = crate::ExecContext::new();
        for kind in [
            crate::BackendKind::DecisionDiagram,
            crate::BackendKind::Statevector,
        ] {
            let engine = ShotEngine::new(
                &ghz(4),
                kind,
                NoiseModel::paper_defaults(),
                3,
                crate::OptLevel::O0,
            );
            let warm = run_engine_in(&engine, &mut ctx, 120, &[], true);
            let fresh = run_engine_in(&engine, &mut engine.new_context(), 120, &[], true);
            assert_eq!(warm.counts, fresh.counts);
            assert_eq!(warm.dedup, fresh.dedup);
        }
    }

    #[test]
    fn run_engine_in_handles_zero_shots() {
        let engine = ShotEngine::new(
            &ghz(3),
            crate::BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            1,
            crate::OptLevel::O0,
        );
        let outcome = run_engine_in(&engine, &mut engine.new_context(), 0, &[], true);
        assert_eq!(outcome.shots, 0);
        assert!(outcome.counts.is_empty());
        assert_eq!(outcome.threads, 1);
    }

    #[test]
    fn noise_produces_error_events() {
        let backend = DdSimulator::new();
        let config = StochasticConfig::new(200)
            .with_noise(NoiseModel::new(0.05, 0.05, 0.05))
            .with_threads(2);
        let outcome = run_stochastic(&backend, &ghz(8), &config, &[]);
        assert!(outcome.error_events > 0);
        assert!(outcome.error_rate() > 0.0);
    }
}
