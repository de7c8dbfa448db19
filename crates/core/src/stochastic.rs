//! The job driver: one plan-driven [`execute`] for every Monte-Carlo run.
//!
//! Stochastic quantum circuit simulation needs many independent runs to form
//! accurate empirical averages (Theorem 1). Because the runs are i.i.d.,
//! they parallelise perfectly: the circuit is compiled **once** (into a
//! [`ShotEngine`]), the requested shot count is partitioned over worker
//! threads, each worker gets one reusable execution context (rewound, not
//! rebuilt, between shots), every *shot* gets its own deterministically
//! derived random number generator (so results do not depend on the thread
//! count), and the per-worker histograms and observable sums are merged in
//! worker order at the end. This is the "concurrency across simulation
//! runs" idea of Section IV-C of the paper, with the per-circuit work
//! amortised across the whole shot loop.
//!
//! A job is an [`ExecPlan`] — shots, observables, an [`ExecMode`] and a
//! [`Deadline`] — executed at a [`Placement`]: on scoped worker threads, or
//! inline in a context the caller owns (the server and batch entry).
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
//! * The mode never affects any of the above either: [`ExecMode::Dedup`]
//!   is byte-identical to [`ExecMode::PerShot`], and `Inline` equals
//!   `Threads(1)` down to the bit patterns of the observable sums.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qsdd_telemetry::trace;
use qsdd_telemetry::{Stage, StageTimings};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deadline::{Deadline, TimedOut};
use crate::dedup::DedupStats;
use crate::estimator::{Observable, ObservableAccumulator};
use crate::shot_engine::{ExecContext, ShotEngine};
use crate::simulator::BackendKind;
use crate::weighted::{run_weighted, WeightedOptions};

/// How a job's shots become results.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecMode {
    /// Every shot executes live: the reference the equivalence suites
    /// compare the other modes against.
    PerShot,
    /// Shots are presampled and grouped by error pattern and each distinct
    /// trajectory is simulated once (see [`crate::dedup`]). Byte-identical
    /// to [`PerShot`](Self::PerShot) — histograms, error counts, node
    /// statistics and the bit patterns of the observable sums — so callers
    /// pick purely by expected performance. Programs that do not support
    /// deduplication run per shot.
    Dedup,
    /// Error patterns are enumerated in probability order and their exact
    /// outcome distributions weighted, with sampled shots covering only
    /// the residual mass (see [`crate::weighted`]). Engines that do not
    /// support enumeration fall back to [`Dedup`](Self::Dedup).
    Weighted(WeightedOptions),
}

/// One job for [`execute`]: what to run, not where.
#[derive(Clone, Debug)]
pub struct ExecPlan<'a> {
    /// How the shots become results.
    pub mode: ExecMode,
    /// Number of independent simulation runs (samples). The weighted mode
    /// only sizes its residual tail and the integer histogram with it.
    pub shots: usize,
    /// Quadratic observables to estimate, over the original circuit's
    /// qubits (the driver remaps them through the engine's output layout).
    pub observables: &'a [Observable],
    /// Cooperative wall-clock budget, checked per shot, per trajectory
    /// evolution, per enumerated pattern and per tail candidate. On expiry
    /// the job returns [`TimedOut`] — no partial aggregates — and every
    /// context it ran in stays reusable.
    pub deadline: Deadline,
}

impl<'a> ExecPlan<'a> {
    /// A plan with an unbounded deadline.
    pub fn new(mode: ExecMode, shots: usize, observables: &'a [Observable]) -> Self {
        ExecPlan {
            mode,
            shots,
            observables,
            deadline: Deadline::unbounded(),
        }
    }

    /// Puts the job under a cooperative [`Deadline`].
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Where [`execute`] runs a job.
#[derive(Debug)]
pub enum Placement<'a> {
    /// On this many scoped worker threads (`0` = all available cores), each
    /// with a fresh context. The weighted body is serial: it runs on the
    /// calling thread whatever the count.
    Threads(usize),
    /// On the calling thread, inside the caller's execution context — the
    /// entry long-lived `qsdd-server` and `qsdd-batch` workers run whole
    /// jobs through, so per-circuit state from previous jobs is rewound,
    /// not rebuilt. Byte-identical to `Threads(1)`.
    Inline(&'a mut ExecContext),
}

/// Resolves a requested worker count: `0` means all available cores.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads => threads,
    }
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
    /// the ordinary per-shot path ([`ExecMode::PerShot`], or the program
    /// does not support deduplication).
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
    /// The engine that ran the job ([`ShotEngine::backend_kind`]: never
    /// [`BackendKind::Auto`] once [`execute`] returns).
    pub backend: BackendKind,
}

impl StochasticOutcome {
    /// An empty outcome (zero shots) reporting the given thread count.
    pub(crate) fn empty(observables: usize, threads: usize, wall_time: Duration) -> Self {
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
            backend: BackendKind::default(),
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
        // The driver's epilogue stamps the wall time.
        ..StochasticOutcome::empty(0, threads, Duration::ZERO)
    }
}

/// Runs one job on a prepared [`ShotEngine`]: the workspace's only driver.
///
/// Everything is decided once, here. The worker count is resolved from the
/// placement. The mode is resolved against the engine:
/// [`ExecMode::Weighted`] falls back to [`ExecMode::Dedup`] when the engine
/// does not support enumeration (mid-circuit measurement/reset, too many
/// qubits, an unsupported channel kind), and `Dedup` to
/// [`ExecMode::PerShot`] when the program does not support deduplication.
/// A sampling job of zero shots returns the empty outcome without touching
/// a context (a weighted job of zero shots still enumerates). Then one of
/// three bodies runs — weighted enumeration, presample → group → replay,
/// or the strided per-shot loop — and one epilogue stamps the wall time
/// and folds the engine's construction timings into the stage breakdown.
///
/// Outcomes arrive in the original circuit's qubit order and observables
/// are remapped through the engine's output layout, so no post-processing
/// is required. [`StochasticOutcome::threads`] reports the workers spawned
/// (the request capped at the shot count; the resolved request on a
/// zero-shot run; `1` for `Inline` and the weighted body).
pub fn execute(
    engine: &ShotEngine,
    plan: &ExecPlan<'_>,
    on: Placement<'_>,
) -> Result<StochasticOutcome, TimedOut> {
    let started = Instant::now();
    let mode = match &plan.mode {
        ExecMode::Weighted(_) if engine.weighted_plan().is_none() => &ExecMode::Dedup,
        mode => mode,
    };
    let mode = match mode {
        ExecMode::Dedup if !engine.supports_dedup() => &ExecMode::PerShot,
        mode => mode,
    };
    let mut own;
    let (threads, mut inline) = match (on, mode) {
        (Placement::Inline(ctx), _) => (1, Some(ctx)),
        // The weighted body is serial, so it gets a context of its own.
        (Placement::Threads(_), ExecMode::Weighted(_)) => {
            own = engine.new_context();
            (1, Some(&mut own))
        }
        (Placement::Threads(requested), _) => (resolve_threads(requested), None),
    };
    if plan.shots == 0 && !matches!(mode, ExecMode::Weighted(_)) {
        // Nothing to sample: no worker is spawned, but the resolved worker
        // count is still reported for consistency.
        let empty = StochasticOutcome::empty(plan.observables.len(), threads, started.elapsed());
        let backend = engine.backend_kind();
        return Ok(StochasticOutcome { backend, ..empty });
    }
    let workers = threads.min(plan.shots);
    let dd_before = inline.as_deref().map(ExecContext::dd_table_stats);

    let mut outcome = match (mode, inline.as_deref_mut()) {
        (ExecMode::Weighted(options), Some(ctx)) => run_weighted(engine, ctx, plan, options),
        (ExecMode::Weighted(_), None) => unreachable!("weighted jobs were given a context above"),
        (ExecMode::Dedup, ctx) => engine.dedup_outcome(plan, workers, ctx),
        (ExecMode::PerShot, ctx) => run_per_shot(engine, plan, workers, ctx),
    }?;

    (outcome.wall_time, outcome.backend) = (started.elapsed(), engine.backend_kind());
    outcome.stage_timings.merge(&engine.stage_timings());
    if let Some((ctx, dd_before)) = inline.zip(dd_before) {
        publish_job_metrics(&outcome, ctx.dd_table_stats().since(&dd_before));
    }
    Ok(outcome)
}

/// The per-shot body of [`execute`]: lane `l` of `workers` runs shots `l`,
/// `l + workers`, … — inline that is the one lane `0..shots` in the
/// caller's context, threaded each lane is a scoped worker with a fresh
/// context.
fn run_per_shot(
    engine: &ShotEngine,
    plan: &ExecPlan<'_>,
    workers: usize,
    inline: Option<&mut ExecContext>,
) -> Result<StochasticOutcome, TimedOut> {
    let shots = plan.shots;
    let mapped = &engine.map_observables(plan.observables);
    let bounded = !plan.deadline.is_unbounded();
    let run_lane = |lane: usize, ctx: &mut ExecContext| {
        let mut partial = WorkerPartial::new(mapped.len());
        let mut shot = lane;
        while shot < shots {
            if bounded && plan.deadline.expired() {
                // `expired` latched the shared flag, so sibling lanes exit
                // on their next check too.
                return Err(TimedOut);
            }
            let (sample, values) = engine.run_shot_with_observables_in(ctx, shot as u64, mapped);
            partial.record(&sample, &values);
            shot += workers;
        }
        Ok(partial)
    };
    let mut partials: Vec<Option<WorkerPartial>> = (0..workers).map(|_| None).collect();
    let execute_started = Instant::now();
    match inline {
        Some(ctx) => {
            let _span = trace::span("shots");
            trace::attr("shots", shots);
            let dd_before = trace_dd_stats(|| ctx.dd_table_stats());
            partials[0] = Some(run_lane(0, ctx)?);
            trace_dd_totals(dd_before, || ctx.dd_table_stats());
        }
        None => {
            let trace_handle = trace::propagate();
            let run_lane = &run_lane;
            std::thread::scope(|scope| {
                for (worker, slot) in partials.iter_mut().enumerate() {
                    let trace_handle = trace_handle.clone();
                    scope.spawn(move || {
                        let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                        let _span = trace::span("worker_shots");
                        trace::attr("worker", worker);
                        let mut ctx = engine.new_context();
                        if let Ok(partial) = run_lane(worker, &mut ctx) {
                            trace::attr("shots", (worker..shots).step_by(workers).len());
                            *slot = Some(partial);
                        }
                    });
                }
            });
            // A lane without a partial saw the deadline expire.
            if partials.iter().any(Option::is_none) {
                return Err(TimedOut);
            }
        }
    }
    let execute_time = execute_started.elapsed();

    let aggregate_started = Instant::now();
    let mut outcome = merge_partials(partials, shots, mapped.len(), workers);
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
        table_attrs(&stats().since(&before));
    }
}

/// [`trace_dd_attrs`] plus the complex-table counts, for the spans that
/// total a worker's or a loop's work: a trajectory group's span carries the
/// table hits alone, which keeps the attributes per group few.
pub(crate) fn trace_dd_totals(
    before: Option<qsdd_dd::TableStats>,
    stats: impl FnOnce() -> qsdd_dd::TableStats,
) {
    if let Some(before) = before {
        let delta = stats().since(&before);
        table_attrs(&delta);
        trace::attr("dd_complex_lookups", delta.complex_lookups);
        trace::attr("dd_complex_inserts", delta.complex_inserts);
    }
}

fn table_attrs(delta: &qsdd_dd::TableStats) {
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
    trace::attr("dd_count_nodes", delta.count_nodes);
    trace::attr("dd_threshold_walks", delta.threshold_walks);
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
    let counters: [(&str, &str, u64); 10] = [
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
            "qsdd_dd_complex_lookups_total",
            "Complex-table tolerance-ball searches (values not near 0 or 1)",
            dd_delta.complex_lookups,
        ),
        (
            "qsdd_dd_complex_inserts_total",
            "Complex values interned",
            dd_delta.complex_inserts,
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
/// path in the workspace ([`execute`], [`ShotEngine`], and through it the
/// batch scheduler): shot `i` under seed `s` always sees the same
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
    use super::ExecMode::{Dedup, PerShot, Weighted};
    use super::Placement::{Inline, Threads};
    use super::*;
    use crate::BackendKind::{self, DecisionDiagram as DD, Statevector as DENSE};
    use qsdd_circuit::generators::{ghz, qft};
    use qsdd_circuit::Circuit;
    use qsdd_noise::NoiseModel;

    const SEED: u64 = 0xD1CE_5EED;

    fn engine(kind: BackendKind, circuit: &Circuit, noise: NoiseModel, seed: u64) -> ShotEngine {
        ShotEngine::new(circuit, kind, noise, seed, crate::OptLevel::O0)
    }

    fn paper() -> NoiseModel {
        NoiseModel::paper_defaults()
    }

    /// One job without a deadline.
    fn run(
        engine: &ShotEngine,
        mode: ExecMode,
        shots: usize,
        observables: &[Observable],
        on: Placement<'_>,
    ) -> StochasticOutcome {
        execute(engine, &ExecPlan::new(mode, shots, observables), on).expect("no deadline is set")
    }

    /// Every deterministic aggregate of an outcome but the observable sums.
    fn aggregates(outcome: &StochasticOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            outcome.counts.clone(),
            (outcome.error_events, outcome.dd_nodes_peak),
            outcome.dd_nodes_avg.to_bits(),
            (outcome.dedup, outcome.weighted.clone()),
        )
    }

    fn observable_bits(outcome: &StochasticOutcome) -> Vec<u64> {
        let estimates = outcome.observable_estimates.iter();
        estimates.map(|value| value.to_bits()).collect()
    }

    #[test]
    fn histogram_counts_sum_to_shots() {
        let outcome = run(
            &engine(DD, &ghz(6), paper(), SEED),
            Dedup,
            500,
            &[],
            Threads(4),
        );
        let total: u64 = outcome.counts.values().sum();
        assert_eq!(total, 500);
        assert_eq!(outcome.shots, 500);
        assert_eq!(outcome.threads, 4);
        assert!(outcome.dd_nodes_avg > 0.0);
        assert!(outcome.dd_nodes_peak > 0);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let engine = engine(DD, &ghz(4), paper(), 7);
        let single = run(&engine, Dedup, 200, &[], Threads(1));
        let multi = run(&engine, Dedup, 200, &[], Threads(4));
        assert_eq!(single.counts, multi.counts);
        assert_eq!(single.dd_nodes_peak, multi.dd_nodes_peak);
        assert!((single.dd_nodes_avg - multi.dd_nodes_avg).abs() < 1e-12);
    }

    #[test]
    fn observable_sums_are_bit_stable_for_a_fixed_thread_count() {
        let engine = engine(DD, &ghz(4), paper(), 3);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let first = run(&engine, Dedup, 240, &observables, Threads(3));
        let second = run(&engine, Dedup, 240, &observables, Threads(3));
        let (first, second) = (observable_bits(&first), observable_bits(&second));
        assert_eq!(first, second, "merge order leaked into sums");
    }

    #[test]
    fn noiseless_ghz_splits_between_the_two_peaks() {
        let engine = engine(DD, &ghz(5), NoiseModel::noiseless(), SEED);
        let outcome = run(&engine, Dedup, 400, &[], Threads(2));
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
        let engine = engine(DD, &ghz(4), NoiseModel::noiseless(), SEED);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        let outcome = run(&engine, Dedup, 300, &observables, Threads(3));
        assert_eq!(outcome.observable_estimates.len(), 2);
        assert!((outcome.observable_estimates[0] - 0.5).abs() < 1e-9);
        assert!((outcome.observable_estimates[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dense_and_dd_backends_agree_statistically() {
        let circuit = ghz(4);
        let dd = run(
            &engine(DD, &circuit, paper(), 21),
            Dedup,
            600,
            &[],
            Threads(2),
        );
        let dense = run(
            &engine(DENSE, &circuit, paper(), 21),
            Dedup,
            600,
            &[],
            Threads(2),
        );
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
    fn stage_timings_cover_the_pipeline_on_every_placement() {
        // Threaded: compile + execute are always timed.
        let outcome = run(&engine(DD, &ghz(4), paper(), 5), Dedup, 64, &[], Threads(2));
        assert!(outcome.stage_timings.get(Stage::Execute) > Duration::ZERO);
        assert!(outcome.stage_timings.total() >= outcome.stage_timings.get(Stage::Execute));

        // In-context (the server path): the engine's compile time is merged
        // in, the dedup body fills presample, and the instrumentation never
        // alters results.
        let noise = NoiseModel::noiseless().with_depolarizing(0.05);
        let engine = ShotEngine::new(&ghz(4), DD, noise, 9, crate::OptLevel::O1);
        let in_ctx = run(&engine, Dedup, 64, &[], Inline(&mut engine.new_context()));
        assert!(in_ctx.stage_timings.get(Stage::Compile) > Duration::ZERO);
        assert!(in_ctx.stage_timings.get(Stage::Execute) > Duration::ZERO);
        if in_ctx.dedup.is_some() {
            assert!(in_ctx.stage_timings.get(Stage::Presample) > Duration::ZERO);
        }
        let reference = run(&engine, Dedup, 64, &[], Threads(1));
        assert_eq!(in_ctx.counts, reference.counts);
        assert_eq!(in_ctx.error_events, reference.error_events);
    }

    #[test]
    fn most_frequent_breaks_ties_by_smallest_outcome() {
        let outcome = StochasticOutcome {
            counts: HashMap::from([(7u64, 5u64), (2, 5), (4, 5), (9, 3)]),
            shots: 18,
            ..StochasticOutcome::empty(0, 1, Duration::ZERO)
        };
        // All of 2, 4, 7 are tied at 5 counts: the smallest index wins,
        // independent of hash-map iteration order.
        assert_eq!(outcome.most_frequent(), Some(2));
        let empty = StochasticOutcome::empty(0, 0, Duration::ZERO);
        assert_eq!(empty.most_frequent(), None);
    }

    #[test]
    fn zero_shots_yield_an_empty_outcome() {
        let observables = [Observable::QubitExcitation(0)];
        let outcome = run(
            &engine(DD, &ghz(3), paper(), SEED),
            Dedup,
            0,
            &observables,
            Threads(4),
        );
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
    fn inline_matches_the_single_threaded_placement_bit_for_bit() {
        // Paper noise mixes pattern groups with live (damping) shots, which
        // exercises both arms of the serial dedup driver.
        let engine = engine(DD, &ghz(6), paper(), 17);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let mut ctx = engine.new_context();
        for mode in [Dedup, PerShot] {
            let serial = run(&engine, mode.clone(), 300, &observables, Inline(&mut ctx));
            let reference = run(&engine, mode.clone(), 300, &observables, Threads(1));
            assert_eq!(aggregates(&serial), aggregates(&reference), "{mode:?}");
            assert_eq!(serial.threads, 1);
            let (serial, reference) = (observable_bits(&serial), observable_bits(&reference));
            assert_eq!(serial, reference, "observable sums drifted");
        }
    }

    #[test]
    fn inline_reuses_one_context_across_jobs() {
        // The same context serves jobs of both backend kinds back to back —
        // the server worker-pool pattern — without affecting results.
        let mut ctx = ExecContext::new();
        for kind in [DD, DENSE] {
            let engine = engine(kind, &ghz(4), paper(), 3);
            let warm = run(&engine, Dedup, 120, &[], Inline(&mut ctx));
            let fresh = run(&engine, Dedup, 120, &[], Inline(&mut engine.new_context()));
            assert_eq!(warm.counts, fresh.counts);
            assert_eq!(warm.dedup, fresh.dedup);
        }
    }

    #[test]
    fn inline_handles_zero_shots() {
        let engine = engine(DD, &ghz(3), NoiseModel::noiseless(), 1);
        let outcome = run(&engine, Dedup, 0, &[], Inline(&mut engine.new_context()));
        assert_eq!(outcome.shots, 0);
        assert!(outcome.counts.is_empty());
        assert_eq!(outcome.threads, 1);
    }

    #[test]
    fn noise_produces_error_events() {
        let engine = engine(DD, &ghz(8), NoiseModel::new(0.05, 0.05, 0.05), SEED);
        let outcome = run(&engine, Dedup, 200, &[], Threads(2));
        assert!(outcome.error_events > 0);
        assert!(outcome.error_rate() > 0.0);
    }

    /// The mode × placement matrix: what "one driver" promises, cell by
    /// cell. Four engines cover the whole fallback chain — full dedup and
    /// weighted support on either back-end (damping noise included),
    /// neither (a dense program measured before most of its gates runs
    /// every mode per shot), and prefix dedup without weighted support.
    #[test]
    fn every_mode_agrees_across_every_placement() {
        const SHOTS: usize = 240;
        let mut measured = Circuit::new(3);
        measured.h(0).cx(0, 1).cx(1, 2).measure(0, 0).x(1);
        let mut measured_early = Circuit::new(3);
        measured_early.h(0).measure(0, 0).cx(0, 1).cx(1, 2).x(1);
        let engines = [
            engine(DD, &ghz(6), paper(), 17),
            engine(DENSE, &ghz(4), paper(), 17),
            engine(DENSE, &measured_early, paper(), 17),
            engine(DD, &measured, paper(), 17),
        ];
        assert!(engines[0].supports_weighted() && engines[0].supports_dedup());
        assert!(engines[1].supports_weighted() && engines[1].supports_dedup());
        assert!(!engines[2].supports_dedup());
        assert!(engines[3].supports_dedup() && !engines[3].supports_weighted());
        let warm_ups = [
            engine(DD, &qft(3), paper(), 3),
            engine(DENSE, &qft(3), paper(), 3),
        ];
        let observables = [
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        let options = WeightedOptions::default();
        for engine in &engines {
            let mut references = Vec::new();
            for mode in [PerShot, Dedup, Weighted(options.clone())] {
                let (name, kind) = (engine.circuit().name(), engine.backend_kind());
                let cell = format!("{name} on {kind} / {mode:?}");
                let enumerates = matches!(mode, Weighted(_)) && engine.supports_weighted();
                let dedups = mode != PerShot && !enumerates && engine.supports_dedup();
                let plan = ExecPlan::new(mode.clone(), SHOTS, &observables);
                let reference = execute(engine, &plan, Threads(1)).unwrap();
                assert_eq!(reference.weighted.is_some(), enumerates, "{cell}");
                assert_eq!(reference.dedup.is_some(), dedups, "{cell}");
                let same = |other: StochasticOutcome, bits: bool, what: &str| {
                    assert_eq!(aggregates(&other), aggregates(&reference), "{cell}: {what}");
                    let bits = bits.then(|| observable_bits(&other));
                    let expected = bits.is_some().then(|| observable_bits(&reference));
                    assert_eq!(bits, expected, "{cell}: {what}");
                };
                let mut fresh = engine.new_context();
                let mut warm = ExecContext::new();
                for other in &warm_ups {
                    run(other, Dedup, 40, &[], Inline(&mut warm));
                }

                // (a) Every placement computes the reference result.
                let threaded = execute(engine, &plan, Threads(3)).unwrap();
                assert_eq!(threaded.threads, if enumerates { 1 } else { 3 }, "{cell}");
                same(threaded, false, "three threads");
                for (ctx, what) in [(&mut fresh, "fresh"), (&mut warm, "warm")] {
                    let inline = execute(engine, &plan, Inline(ctx)).unwrap();
                    assert_eq!(inline.threads, 1, "{cell}");
                    same(inline, true, what);
                }

                // (b) A spent deadline times every cell out, and a context
                // that saw the timeout stays reusable.
                let spent = plan.clone().with_deadline(Deadline::within(Duration::ZERO));
                for threads in [1, 3] {
                    let result = execute(engine, &spent, Threads(threads));
                    assert_eq!(result.unwrap_err(), TimedOut, "{cell}");
                }
                for (ctx, what) in [(&mut fresh, "fresh"), (&mut warm, "warm")] {
                    let result = execute(engine, &spent, Inline(ctx));
                    assert_eq!(result.unwrap_err(), TimedOut, "{cell}: {what}");
                    same(
                        execute(engine, &plan, Inline(ctx)).unwrap(),
                        true,
                        "after a timeout",
                    );
                }

                // (c) Zero shots: the sampling bodies return the empty
                // outcome reporting the resolved worker count; an
                // exact-histogram enumeration still happens.
                let exact = Weighted(options.clone().with_exact_histogram(true));
                let empty = ExecPlan::new(if enumerates { exact } else { mode }, 0, &observables);
                for (on, threads) in [
                    (Threads(3), 3),
                    (Threads(0), resolve_threads(0)),
                    (Inline(&mut fresh), 1),
                ] {
                    let outcome = execute(engine, &empty, on).unwrap();
                    assert_eq!(outcome.shots, 0, "{cell}");
                    assert!(
                        outcome.counts.is_empty() && outcome.dedup.is_none(),
                        "{cell}"
                    );
                    assert_eq!(outcome.weighted.is_some(), enumerates, "{cell}");
                    if let Some(stats) = &outcome.weighted {
                        assert!(stats.enumerated_trajectories > 0, "{cell}");
                        assert_eq!(outcome.threads, 1, "{cell}");
                    } else {
                        assert_eq!(outcome.threads, threads, "{cell}");
                        assert_eq!(outcome.observable_estimates, vec![0.0; 2], "{cell}");
                    }
                }
                references.push(reference);
            }

            // Dedup is an optimisation of per-shot execution, never an
            // observable; an unsupported weighted job *is* the dedup job.
            let [per_shot, dedup, weighted] = &mut references[..] else {
                unreachable!("three modes ran");
            };
            assert_eq!(observable_bits(dedup), observable_bits(per_shot));
            if weighted.weighted.is_none() {
                assert_eq!(aggregates(weighted), aggregates(dedup));
                assert_eq!(observable_bits(weighted), observable_bits(dedup));
            }
            dedup.dedup = None;
            assert_eq!(aggregates(dedup), aggregates(per_shot));
        }
    }
}
