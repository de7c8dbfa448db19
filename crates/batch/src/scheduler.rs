//! The shot-interleaving batch scheduler.
//!
//! All jobs share one worker pool. Work lives in a **global chunk queue**:
//! every entry is a small contiguous range of shot indices of one job, and
//! idle workers steal the next chunk regardless of which job it belongs to,
//! so shots from different jobs interleave and a giant job cannot starve
//! small ones.
//!
//! Each job's circuit is compiled once, into its [`ShotEngine`]'s program
//! (the engines are built before the first chunk runs, on as many threads
//! as the pool has workers); each worker keeps one long-lived
//! [`ExecContext`] (which internally caches per-back-end-kind state) and
//! reuses it across every chunk of every job it steals, so per-shot cost is
//! pure execution — no operator rebuilding, no per-shot allocation churn.
//!
//! Jobs whose engine supports **trajectory deduplication** release their
//! rounds as *pattern-group chunks* instead of plain shot ranges: the
//! releasing worker presamples the round's shots, groups them by error
//! pattern (shots that leave the no-error path ahead of a state-dependent
//! site: by the event they drew) and enqueues bundles of groups — each
//! distinct trajectory is simulated once per group, fanning its outcome
//! samples across every member shot. Deduplication is
//! unobservable in the results — same histograms, error counts and node
//! statistics, for every thread count — and reported per job as
//! `unique_trajectories` / `dedup_hit_rate`.
//!
//! Jobs with `weighted = true` bypass rounds entirely: the whole job is
//! released as one **weighted chunk** and executed in a single piece by
//! the worker that steals it, as an [`ExecMode::Weighted`] plan placed
//! inline in the worker's context ([`qsdd_core::execute`]). Weighted jobs
//! report `covered_mass` / `enumerated_trajectories` and never early-stop
//! (the job file forbids combining `weighted` with `epsilon`).
//!
//! Each job's shots are released in **rounds** of
//! [`JobSpec::check_interval`] shots. When the last chunk of a round
//! completes, the finishing worker either declares the job done (shot cap
//! reached, or the Wilson early-stop rule fired), or pushes the next round
//! to the *back* of the queue — which is what keeps the interleaving fair:
//! a 10⁶-shot job only ever occupies the queue with one round at a time.
//!
//! # Determinism
//!
//! Results are bit-identical for any thread count because
//!
//! 1. shot `i` of a job derives its generator from `(job seed, i)` alone
//!    (the [`ShotEngine`] contract), so the value of a shot does not depend
//!    on which worker runs it;
//! 2. histograms merge by addition, which is order-independent; and
//! 3. early stopping is only evaluated at round boundaries — fixed shot
//!    counts — over the complete prefix `0..executed`, so the *set* of
//!    executed shots is a deterministic prefix, never a race.
//!
//! Only the wall-clock fields of the report vary between runs.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use qsdd_core::{
    execute, Deadline, ExecContext, ExecMode, ExecPlan, Placement, ShotEngine, TimedOut,
    TrajectoryWork,
};
use qsdd_telemetry::trace;
use qsdd_telemetry::{Counter, Gauge, Stage, StageTimings};

use crate::jobfile::JobSpec;
use crate::report::{BatchReport, JobReport, JobStatus};

/// Shots per queue entry: small enough that jobs interleave at fine grain,
/// large enough that queue traffic stays negligible next to shot cost.
const CHUNK_SHOTS: u64 = 32;

/// The z-score of the 95 % Wilson confidence interval used for early
/// stopping.
pub const WILSON_Z: f64 = 1.96;

/// Scheduler knobs.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` uses all available cores.
    pub threads: usize,
}

impl BatchOptions {
    /// Options with an explicit thread count (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions { threads }
    }

    /// Resolves the effective worker count.
    pub fn effective_threads(&self) -> usize {
        qsdd_core::resolve_threads(self.threads)
    }
}

/// Half-width of the Wilson score interval at [`WILSON_Z`] for `successes`
/// hits in `samples` trials.
///
/// The Wilson interval behaves well for proportions near 0 and 1 (where the
/// naive normal interval collapses), which matters because a converged job
/// is exactly one whose dominant outcome frequency is extreme.
///
/// ```
/// use qsdd_batch::scheduler::wilson_half_width;
///
/// // Quadrupling the sample size roughly halves the interval.
/// let wide = wilson_half_width(64, 128);
/// let tight = wilson_half_width(256, 512);
/// assert!(tight < wide);
/// assert!((wide / tight - 2.0).abs() < 0.1);
/// ```
pub fn wilson_half_width(successes: u64, samples: u64) -> f64 {
    if samples == 0 {
        return f64::INFINITY;
    }
    let n = samples as f64;
    let p = successes as f64 / n;
    let z = WILSON_Z;
    let denom = 1.0 + z * z / n;
    (z / denom) * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt()
}

/// One unit of queued work for a job.
#[derive(Debug)]
enum ChunkWork {
    /// A contiguous range of shot indices, executed per shot (jobs without
    /// deduplication).
    Range { start: u64, end: u64 },
    /// A bundle of trajectory groups and deviation buckets: each distinct
    /// error pattern is simulated once, its member shots sample from the
    /// shared result.
    Groups(Vec<TrajectoryWork>),
    /// The entire job, executed in one piece by the weighted-enumeration
    /// driver (enumerate trajectories in probability order, simulate each
    /// once, sample only the residual tail).
    Weighted,
}

/// A queued chunk: some of one job's shots, in executable form.
#[derive(Debug)]
struct Chunk {
    job: usize,
    /// Number of member shots the chunk accounts for.
    shots: u64,
    work: ChunkWork,
}

/// Mutable per-job aggregation state, guarded by one mutex per job so
/// workers on different jobs never contend.
#[derive(Debug, Default)]
struct JobProgress {
    counts: BTreeMap<u64, u64>,
    error_events: u64,
    dd_nodes_sum: u64,
    dd_nodes_peak: u64,
    executed: u64,
    /// Evolutions actually performed (pattern replays + shots run live;
    /// equal to `executed` on the per-shot path).
    unique_trajectories: u64,
    /// Probability mass covered by enumerated trajectories (weighted jobs
    /// only; `0.0` otherwise).
    covered_mass: f64,
    /// Trajectories enumerated in probability order (weighted jobs only).
    enumerated_trajectories: u64,
    /// Chunks of the current round still in flight.
    round_pending: usize,
    early_stopped: bool,
    /// The job's deadline expired; its partial aggregates are discarded and
    /// the report shows `timed_out`, never a truncated histogram.
    timed_out: bool,
    /// A chunk of the job, or a round it triggered, panicked: the job
    /// drains like a timed-out one and reports this `panicked: <message>`.
    panicked: Option<String>,
    finished: bool,
    wall_time: Duration,
    /// Per-stage wall-time breakdown: compile/transpile seeded from the
    /// engine build, presample recorded at round boundaries, execute
    /// accumulated per chunk (always filled; cost is one `Instant` read per
    /// chunk under a lock already held).
    stage_timings: StageTimings,
}

/// A runnable job: its engine plus the knobs the scheduler needs.
struct JobRuntime {
    engine: ShotEngine,
    shots: u64,
    epsilon: Option<f64>,
    check_interval: u64,
    /// Whether rounds are released as deduplicated pattern groups (the
    /// engine supports it); otherwise as per-shot ranges.
    dedup: bool,
    /// Whether the job runs in one piece through the weighted-enumeration
    /// driver instead of sampled rounds.
    weighted: bool,
    /// The job's cooperative deadline (`timeout_ms`; unbounded without
    /// one). Workers consult it at chunk boundaries, so an expired job's
    /// remaining chunks drain instantly instead of simulating.
    deadline: Deadline,
    progress: Mutex<JobProgress>,
}

impl JobRuntime {
    /// Loads, transpiles and compiles one job (`Err`: why it did not load).
    fn build(spec: &JobSpec) -> Result<JobRuntime, String> {
        let circuit = spec.load_circuit()?;
        spec.backend.check_width(circuit.num_qubits())?;
        let engine = ShotEngine::new(&circuit, spec.backend, spec.noise, spec.seed, spec.opt);
        let progress = JobProgress {
            // Transpile/compile happened inside the engine build.
            stage_timings: engine.stage_timings(),
            ..JobProgress::default()
        };
        Ok(JobRuntime {
            dedup: engine.supports_dedup(),
            weighted: spec.weighted,
            engine,
            shots: spec.shots,
            epsilon: spec.epsilon,
            check_interval: spec.check_interval,
            deadline: match spec.timeout_ms {
                Some(ms) => Deadline::from_millis(ms),
                None => Deadline::unbounded(),
            },
            progress: Mutex::new(progress),
        })
    }
}

/// Everything the worker pool shares.
struct Shared {
    queue: Mutex<VecDeque<Chunk>>,
    wake: Condvar,
    /// Jobs that have not finished yet; workers exit when this hits zero and
    /// the queue is empty.
    active: AtomicUsize,
    started: Instant,
    /// Global-registry handles, resolved once per batch; `None` while
    /// telemetry is disabled so the hot path pays nothing.
    metrics: Option<BatchMetrics>,
}

/// Pre-resolved telemetry handles for the scheduler's shared structures
/// (looking up a metric by name takes the registry lock, so it happens
/// once per batch here, never per chunk).
struct BatchMetrics {
    /// Chunks executed, labelled by work kind
    /// (`range`/`groups`/`weighted`).
    chunks_range: Arc<Counter>,
    chunks_groups: Arc<Counter>,
    chunks_weighted: Arc<Counter>,
    /// Member shots those chunks accounted for.
    shots: Arc<Counter>,
    /// Instantaneous chunk-queue depth (sampled at push/pop under the
    /// queue lock) and its high-water mark.
    queue_depth: Arc<Gauge>,
    queue_depth_peak: Arc<Gauge>,
}

impl BatchMetrics {
    /// Resolves the handles from the global registry when telemetry is on.
    fn resolve() -> Option<BatchMetrics> {
        if !qsdd_telemetry::enabled() {
            return None;
        }
        let registry = qsdd_telemetry::global();
        let chunks = "Chunks executed by the batch worker pool";
        Some(BatchMetrics {
            chunks_range: registry.counter_with(
                "qsdd_batch_chunks_total",
                chunks,
                &[("kind", "range")],
            ),
            chunks_groups: registry.counter_with(
                "qsdd_batch_chunks_total",
                chunks,
                &[("kind", "groups")],
            ),
            chunks_weighted: registry.counter_with(
                "qsdd_batch_chunks_total",
                chunks,
                &[("kind", "weighted")],
            ),
            shots: registry.counter(
                "qsdd_batch_shots_total",
                "Member shots accounted for by executed batch chunks",
            ),
            queue_depth: registry.gauge(
                "qsdd_batch_queue_depth",
                "Chunks currently waiting in the batch scheduler queue",
            ),
            queue_depth_peak: registry.gauge(
                "qsdd_batch_queue_depth_peak",
                "Deepest the batch chunk queue has been",
            ),
        })
    }

    /// Samples the queue depth (call with the queue lock held).
    fn observe_depth(&self, depth: usize) {
        let depth = depth as i64;
        self.queue_depth.set(depth);
        self.queue_depth_peak.set_max(depth);
    }
}

/// Runs all jobs of a batch on a shared worker pool and aggregates a
/// [`BatchReport`].
///
/// Jobs whose circuit fails to load (missing QASM file, parse error,
/// unknown generator) are reported as [`JobStatus::Failed`] and do not
/// prevent the remaining jobs from running.
pub fn run_batch(specs: &[JobSpec], options: &BatchOptions) -> BatchReport {
    let started = Instant::now();
    let workers = options.effective_threads().max(1);
    // Build one engine per job up front — load, transpile, compile, once
    // each — on as many scoped workers as will execute the batch, claiming
    // spec indices off one counter and filling the spec's own slot.
    let next_spec = AtomicUsize::new(0);
    let built: Vec<OnceLock<Result<JobRuntime, String>>> =
        specs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(specs.len()) {
            scope.spawn(|| loop {
                // Relaxed: the counter hands out indices, nothing else.
                let index = next_spec.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(index) else { break };
                built[index].get_or_init(|| JobRuntime::build(spec));
            });
        }
    });
    let runtimes: Vec<Result<JobRuntime, String>> = built
        .into_iter()
        .map(|slot| slot.into_inner().expect("every spec is claimed once"))
        .collect();

    let shared = Shared {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        active: AtomicUsize::new(0),
        started,
        metrics: BatchMetrics::resolve(),
    };
    // Seed the queue with round 1 of every runnable job, in file order, so
    // every job makes progress from the first instant. No worker is running
    // yet, so building (and presampling) the rounds needs no locking care.
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        for (index, runtime) in runtimes.iter().enumerate() {
            let Ok(runtime) = runtime else { continue };
            if runtime.shots == 0 {
                let mut progress = runtime.progress.lock().expect("progress lock");
                progress.finished = true;
                continue;
            }
            let round_started = Instant::now();
            let round = try_build_round(runtime, index, 0);
            let mut progress = runtime.progress.lock().expect("progress lock");
            let chunks = match round {
                Ok(chunks) => chunks,
                Err(message) => {
                    (progress.panicked, progress.finished) = (Some(message), true);
                    continue;
                }
            };
            shared.active.fetch_add(1, Ordering::SeqCst);
            if runtime.dedup && !runtime.weighted {
                progress
                    .stage_timings
                    .record(Stage::Presample, round_started.elapsed());
            }
            progress.round_pending = chunks.len();
            queue.extend(chunks);
        }
        if let Some(metrics) = &shared.metrics {
            metrics.observe_depth(queue.len());
        }
    }

    let trace_handle = trace::propagate();
    std::thread::scope(|scope| {
        let shared = &shared;
        let runtimes = &runtimes;
        for worker in 0..workers {
            let trace_handle = trace_handle.clone();
            scope.spawn(move || {
                let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                worker_loop(shared, runtimes, worker)
            });
        }
    });

    let jobs = specs
        .iter()
        .zip(runtimes.iter())
        .map(|(spec, runtime)| match runtime {
            Ok(runtime) => {
                let progress = runtime.progress.lock().expect("progress lock");
                // The engine that ran, `auto` resolved.
                let backend = runtime.engine.backend_kind().to_string();
                if let Some(message) = progress.panicked.clone() {
                    JobReport::failed(&spec.name, &backend, spec.shots, message)
                } else if progress.timed_out {
                    // Deliberately drop the partial aggregates: a truncated
                    // histogram is indistinguishable from a converged one
                    // downstream, so a timed-out job reports nothing but
                    // the reason.
                    JobReport::failed(
                        &spec.name,
                        &backend,
                        spec.shots,
                        format!(
                            "timed_out: exceeded the {} ms deadline",
                            spec.timeout_ms.unwrap_or(0)
                        ),
                    )
                } else {
                    JobReport {
                        name: spec.name.clone(),
                        backend,
                        status: JobStatus::Completed,
                        qubits: runtime.engine.num_qubits(),
                        shots_requested: spec.shots,
                        shots_executed: progress.executed,
                        early_stopped: progress.early_stopped,
                        counts: progress.counts.clone(),
                        error_events: progress.error_events,
                        dd_nodes_avg: if progress.executed == 0 {
                            0.0
                        } else {
                            progress.dd_nodes_sum as f64 / progress.executed as f64
                        },
                        dd_nodes_peak: progress.dd_nodes_peak,
                        unique_trajectories: progress.unique_trajectories,
                        dedup_hit_rate: if progress.executed == 0 {
                            0.0
                        } else {
                            1.0 - progress.unique_trajectories as f64 / progress.executed as f64
                        },
                        covered_mass: progress.covered_mass,
                        enumerated_trajectories: progress.enumerated_trajectories,
                        wall_time: progress.wall_time,
                        stage_timings: progress.stage_timings,
                    }
                }
            }
            Err(message) => JobReport::failed(
                &spec.name,
                &spec.backend.to_string(),
                spec.shots,
                message.clone(),
            ),
        })
        .collect();

    BatchReport {
        jobs,
        threads: workers,
        total_wall_time: started.elapsed(),
    }
}

/// Builds the executable chunks of the round of shots starting at `start`.
///
/// Jobs without deduplication release plain shot ranges. Deduplicating jobs
/// presample the round here — once, by whichever worker closes the previous
/// round — and release bundles of pattern groups and deviation buckets (kept
/// whole, so one representative execution serves every member).
/// Either way each chunk accounts for `chunk.shots` member shots and the
/// round covers exactly `start..min(start + check_interval, shots)`.
fn build_round(runtime: &JobRuntime, job: usize, start: u64) -> Vec<Chunk> {
    if runtime.weighted {
        // Weighted jobs run whole: one chunk covers every shot, so this is
        // only ever called with `start == 0` and there is no next round.
        debug_assert_eq!(start, 0);
        return vec![Chunk {
            job,
            shots: runtime.shots,
            work: ChunkWork::Weighted,
        }];
    }
    let end = (start + runtime.check_interval).min(runtime.shots);
    let mut chunks = Vec::new();
    if !runtime.dedup {
        let mut cursor = start;
        while cursor < end {
            let chunk_end = (cursor + CHUNK_SHOTS).min(end);
            chunks.push(Chunk {
                job,
                shots: chunk_end - cursor,
                work: ChunkWork::Range {
                    start: cursor,
                    end: chunk_end,
                },
            });
            cursor = chunk_end;
        }
        return chunks;
    }

    // Presample the round and group shots by error pattern (groups keep
    // first-appearance order; members stay in shot order).
    let presample_span = trace::span("presample_round");
    trace::attr("job", job);
    trace::attr("shots", (end - start) as usize);
    let groups = runtime
        .engine
        .plan_range(start..end)
        .expect("dedup rounds are only built for supporting engines");
    qsdd_core::dedup::trace_plan_attrs(&groups);
    drop(presample_span);
    let mut bundle: Vec<TrajectoryWork> = Vec::new();
    let mut bundled = 0u64;
    for group in groups {
        bundled += group.shots() as u64;
        bundle.push(group);
        if bundled >= CHUNK_SHOTS {
            chunks.push(Chunk {
                job,
                shots: bundled,
                work: ChunkWork::Groups(std::mem::take(&mut bundle)),
            });
            bundled = 0;
        }
    }
    if !bundle.is_empty() {
        chunks.push(Chunk {
            job,
            shots: bundled,
            work: ChunkWork::Groups(bundle),
        });
    }
    chunks
}

fn worker_loop(shared: &Shared, runtimes: &[Result<JobRuntime, String>], worker: usize) {
    // One long-lived execution context (internally caching per-back-end
    // state), reused across chunks *and* jobs: the context re-seats itself
    // when the stolen chunk belongs to a different job's program, and
    // merely rewinds when it belongs to the same one, so each worker
    // compiles nothing and allocates almost nothing in steady state. Reuse
    // is unobservable in the results (the ShotEngine contract), so the
    // interleaving stays bit-deterministic.
    let mut context = ExecContext::new();
    // Busy time accumulates locally and is flushed once at exit (one
    // labelled counter update per worker per batch, nothing per chunk).
    let worker_label = worker.to_string();
    let busy_counter = shared.metrics.as_ref().map(|_| {
        qsdd_telemetry::global().counter_with(
            "qsdd_batch_worker_busy_usec_total",
            "Microseconds each batch worker spent executing chunks",
            &[("worker", worker_label.as_str())],
        )
    });
    let mut busy = Duration::ZERO;
    loop {
        // Steal the next chunk, or exit once every job has finished.
        let chunk = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(chunk) = queue.pop_front() {
                    if let Some(metrics) = &shared.metrics {
                        metrics.observe_depth(queue.len());
                    }
                    break Some(chunk);
                }
                if shared.active.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                queue = shared.wake.wait(queue).expect("queue lock");
            }
        };
        let Some(chunk) = chunk else {
            if let Some(counter) = &busy_counter {
                counter.add(u64::try_from(busy.as_micros()).unwrap_or(u64::MAX));
            }
            return;
        };
        let runtime = runtimes[chunk.job]
            .as_ref()
            .expect("only runnable jobs are enqueued");
        // Chunk-boundary check: once the job's budget is spent, or one of
        // its chunks panicked, its remaining chunks drain without
        // simulating, and whichever worker drains the round's last chunk
        // retires the job. Results are discarded wholesale (see
        // `JobProgress::timed_out`), so skipping work cannot skew a
        // histogram.
        let bounded = !runtime.deadline.is_unbounded();
        let mut progress = runtime.progress.lock().expect("progress lock");
        progress.timed_out |= bounded && runtime.deadline.expired();
        if progress.timed_out || progress.panicked.is_some() {
            progress.round_pending -= 1;
            if progress.round_pending == 0 {
                retire(shared, progress);
            }
            continue;
        }
        drop(progress);
        if let Some(metrics) = &shared.metrics {
            match &chunk.work {
                ChunkWork::Range { .. } => metrics.chunks_range.inc(),
                ChunkWork::Groups(_) => metrics.chunks_groups.inc(),
                ChunkWork::Weighted => metrics.chunks_weighted.inc(),
            }
            metrics.shots.add(chunk.shots);
        }
        let chunk_started = Instant::now();
        let chunk_span = trace::span("chunk");
        trace::attr("job", chunk.job);
        trace::attr("shots", chunk.shots);
        trace::attr(
            "kind",
            match &chunk.work {
                ChunkWork::Range { .. } => "range",
                ChunkWork::Groups(_) => "groups",
                ChunkWork::Weighted => "weighted",
            },
        );

        // Execute the chunk without holding any lock, through the worker's
        // long-lived context.
        let mut local_counts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut local_errors = 0u64;
        let mut local_nodes_sum = 0u64;
        let mut local_nodes_peak = 0u64;
        let mut record = |sample: qsdd_core::ShotSample| {
            *local_counts.entry(sample.outcome).or_insert(0) += 1;
            local_errors += sample.error_events;
            local_nodes_sum += sample.dd_nodes;
            local_nodes_peak = local_nodes_peak.max(sample.dd_nodes_peak);
        };
        let mut weighted_outcome: Option<qsdd_core::StochasticOutcome> = None;
        let mut chunk_timed_out = false;
        // A panic fails this job alone (its partial aggregates are
        // discarded); the context, whose rewind invariants cannot be
        // trusted after an unwind, is replaced.
        let executed = catch_unwind(AssertUnwindSafe(|| {
            if qsdd_store::fault::should_panic_worker() {
                panic!("injected worker fault (QSDD_FAULTS worker_panic)");
            }
            match chunk.work {
                ChunkWork::Range { start, end } => {
                    for shot in start..end {
                        record(runtime.engine.run_shot_in(&mut context, shot));
                    }
                    end - start
                }
                ChunkWork::Weighted => {
                    // The whole job in one call: enumerate trajectories in
                    // probability order, simulate each once, tail-sample the
                    // residual. Falls back to deduplicated sampling when the
                    // program does not support enumeration. The deadline rides
                    // along because this chunk *is* the job — trajectory-level
                    // checks inside the driver are its only cancellation
                    // points.
                    let mode = ExecMode::Weighted(qsdd_core::WeightedOptions::default());
                    let plan = ExecPlan::new(mode, runtime.shots as usize, &[])
                        .with_deadline(runtime.deadline.clone());
                    match execute(&runtime.engine, &plan, Placement::Inline(&mut context)) {
                        Ok(outcome) => {
                            let trajectories = match (&outcome.weighted, &outcome.dedup) {
                                (Some(stats), _) => {
                                    stats.enumerated_trajectories + stats.tail_shots
                                }
                                (None, Some(stats)) => stats.unique_trajectories,
                                (None, None) => outcome.shots as u64,
                            };
                            weighted_outcome = Some(outcome);
                            trajectories
                        }
                        Err(TimedOut) => {
                            chunk_timed_out = true;
                            0
                        }
                    }
                }
                ChunkWork::Groups(groups) => {
                    // The deadline rides along: a bucket's evolutions are its
                    // cancellation points.
                    let mut trajectories = 0;
                    for group in groups {
                        match runtime.engine.run_work_in(
                            &mut context,
                            group,
                            &[],
                            &runtime.deadline,
                        ) {
                            Ok((records, stats)) => {
                                records
                                    .into_iter()
                                    .for_each(|(_, sample, _)| record(sample));
                                trajectories += stats.unique_trajectories;
                            }
                            Err(TimedOut) => {
                                chunk_timed_out = true;
                                break;
                            }
                        }
                    }
                    trajectories
                }
            }
        }));
        let (local_trajectories, panicked) = match executed {
            Ok(trajectories) => (trajectories, None),
            Err(panic) => {
                context = ExecContext::new();
                (0, Some(panic_message(panic)))
            }
        };
        trace::attr("trajectories", local_trajectories);
        drop(chunk_span);
        let chunk_elapsed = chunk_started.elapsed();
        busy += chunk_elapsed;

        // Merge, and if this was the round's last chunk, decide what's next.
        let mut progress = runtime.progress.lock().expect("progress lock");
        if let Some(outcome) = weighted_outcome {
            // The weighted driver produced the complete job result in one
            // piece: adopt its histogram, statistics and stage breakdown
            // wholesale (its timings already include the engine build).
            progress.stage_timings = outcome.stage_timings;
            for (value, count) in outcome.counts {
                *progress.counts.entry(value).or_insert(0) += count;
            }
            progress.error_events += outcome.error_events;
            progress.dd_nodes_sum += (outcome.dd_nodes_avg * outcome.shots as f64).round() as u64;
            progress.dd_nodes_peak = progress.dd_nodes_peak.max(outcome.dd_nodes_peak);
            if let Some(stats) = outcome.weighted {
                progress.covered_mass = stats.covered_mass;
                progress.enumerated_trajectories = stats.enumerated_trajectories;
            }
        } else {
            progress.stage_timings.record(Stage::Execute, chunk_elapsed);
            for (outcome, count) in local_counts {
                *progress.counts.entry(outcome).or_insert(0) += count;
            }
            progress.error_events += local_errors;
            progress.dd_nodes_sum += local_nodes_sum;
            progress.dd_nodes_peak = progress.dd_nodes_peak.max(local_nodes_peak);
        }
        progress.executed += chunk.shots;
        progress.unique_trajectories += local_trajectories;
        progress.round_pending -= 1;
        progress.timed_out |= chunk_timed_out;
        progress.panicked = progress.panicked.take().or(panicked);
        if progress.round_pending > 0 {
            continue;
        }

        // Round boundary: `executed` shots form a complete, deterministic
        // prefix, so the stopping decision is thread-count independent.
        // Re-check the deadline here too, so an expired job stops without
        // waiting to be drained chunk by chunk.
        progress.timed_out |= bounded && runtime.deadline.expired();
        let failed = progress.timed_out || progress.panicked.is_some();
        let converged = !failed
            && runtime.epsilon.is_some_and(|epsilon| {
                let dominant = progress.counts.values().copied().max().unwrap_or(0);
                wilson_half_width(dominant, progress.executed) <= epsilon
            });
        if failed || converged || progress.executed >= runtime.shots {
            progress.early_stopped = converged && progress.executed < runtime.shots;
            retire(shared, progress);
            continue;
        }
        // Build (and for dedup jobs presample) the next round before
        // touching the queue, so the queue lock is held only to push.
        let start = progress.executed;
        let round_started = Instant::now();
        let chunks = match try_build_round(runtime, chunk.job, start) {
            Ok(chunks) => chunks,
            Err(message) => {
                progress.panicked = Some(message);
                retire(shared, progress);
                continue;
            }
        };
        if runtime.dedup {
            progress
                .stage_timings
                .record(Stage::Presample, round_started.elapsed());
        }
        progress.round_pending = chunks.len();
        let mut queue = shared.queue.lock().expect("queue lock");
        queue.extend(chunks);
        if let Some(metrics) = &shared.metrics {
            metrics.observe_depth(queue.len());
        }
        drop(queue);
        drop(progress);
        shared.wake.notify_all();
    }
}

/// Retires a job whose last round closed: marks it finished and releases
/// its progress lock, then takes it off the active count. Decrement and
/// notify run under the queue mutex: a worker that found the queue empty
/// and read the old `active` value cannot reach `wait()` while we hold the
/// lock, so the notification cannot be lost in its check-then-wait window.
fn retire(shared: &Shared, mut progress: MutexGuard<'_, JobProgress>) {
    progress.finished = true;
    progress.wall_time = shared.started.elapsed();
    drop(progress);
    let _queue = shared.queue.lock().expect("queue lock");
    shared.active.fetch_sub(1, Ordering::SeqCst);
    shared.wake.notify_all();
}

/// [`build_round`] under `catch_unwind`: `Err` carries the panic's message.
fn try_build_round(runtime: &JobRuntime, job: usize, start: u64) -> Result<Vec<Chunk>, String> {
    catch_unwind(AssertUnwindSafe(|| build_round(runtime, job, start))).map_err(panic_message)
}

/// The failure message of a job that panicked: `panicked: <message>`.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic.downcast_ref::<&str>().copied();
    let message = text.or(panic.downcast_ref::<String>().map(String::as_str));
    format!("panicked: {}", message.unwrap_or("unknown panic"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobfile::{CircuitSource, JobSpec};
    use qsdd_core::{execute, BackendKind, ExecMode, ExecPlan, Placement, StochasticOutcome};
    use qsdd_noise::NoiseModel;

    fn ghz_spec(name: &str, shots: u64, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            name,
            CircuitSource::Generator {
                kind: "ghz".to_string(),
                qubits: 5,
            },
            0,
        );
        spec.shots = shots;
        spec.seed = seed;
        spec.backend = BackendKind::DecisionDiagram;
        spec
    }

    fn engine(spec: &JobSpec) -> ShotEngine {
        let circuit = spec.load_circuit().expect("the spec loads");
        ShotEngine::new(&circuit, spec.backend, spec.noise, spec.seed, spec.opt)
    }

    /// The job run shot by shot through the library driver: the reference
    /// every scheduling of its shots must reproduce.
    fn per_shot(spec: &JobSpec) -> StochasticOutcome {
        let plan = ExecPlan::new(ExecMode::PerShot, spec.shots as usize, &[]);
        execute(&engine(spec), &plan, Placement::Threads(1)).expect("no deadline")
    }

    /// Asserts that a batch job's results are those of the per-shot run.
    fn assert_matches_per_shot(job: &JobReport, reference: &StochasticOutcome) {
        let counts: BTreeMap<u64, u64> = reference.counts.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(job.counts, counts);
        assert_eq!(job.error_events, reference.error_events);
        assert_eq!(job.shots_executed, reference.shots as u64);
        assert_eq!(job.dd_nodes_peak, reference.dd_nodes_peak);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let mut specs = vec![
            ghz_spec("a", 300, 1),
            ghz_spec("b", 700, 2),
            ghz_spec("c", 64, 3),
        ];
        specs[1].backend = BackendKind::Statevector;
        specs[2].epsilon = Some(0.04);
        specs[2].check_interval = 32;
        let reference = run_batch(&specs, &BatchOptions::with_threads(1));
        for threads in [2, 4] {
            let report = run_batch(&specs, &BatchOptions::with_threads(threads));
            for (a, b) in reference.jobs.iter().zip(report.jobs.iter()) {
                assert_eq!(a.results_json(), b.results_json());
            }
        }
    }

    #[test]
    fn expired_deadlines_fail_jobs_without_poisoning_the_batch() {
        // An already-expired deadline on a large job: every chunk drains at
        // the boundary check, the job reports `timed_out`, and the healthy
        // sibling completes exactly as it would alone.
        let mut specs = vec![ghz_spec("doomed", 200_000, 1), ghz_spec("fine", 300, 2)];
        specs[0].timeout_ms = Some(1);
        std::thread::sleep(Duration::from_millis(5));
        let report = run_batch(&specs, &BatchOptions::with_threads(4));
        match &report.jobs[0].status {
            JobStatus::Failed(message) => {
                assert!(message.contains("timed_out"), "{message}");
                assert!(message.contains("1 ms"), "{message}");
            }
            other => panic!("expected timed_out failure, got {other:?}"),
        }
        // No partial aggregates leak into the report.
        assert!(report.jobs[0].counts.is_empty());
        assert_eq!(report.jobs[0].shots_executed, 0);
        assert!(matches!(report.jobs[1].status, JobStatus::Completed));
        let alone = run_batch(&specs[1..], &BatchOptions::with_threads(1));
        assert_eq!(report.jobs[1].results_json(), alone.jobs[0].results_json());

        // Weighted jobs pass the deadline into their single-piece driver.
        let mut weighted = ghz_spec("weighted-doomed", 200_000, 3);
        weighted.weighted = true;
        weighted.timeout_ms = Some(1);
        std::thread::sleep(Duration::from_millis(5));
        let report = run_batch(&[weighted], &BatchOptions::with_threads(2));
        assert!(
            matches!(&report.jobs[0].status, JobStatus::Failed(m) if m.contains("timed_out")),
            "{:?}",
            report.jobs[0].status
        );
    }

    #[test]
    fn counts_sum_to_executed_shots() {
        let specs = vec![ghz_spec("a", 500, 9)];
        let report = run_batch(&specs, &BatchOptions::with_threads(4));
        let job = &report.jobs[0];
        assert_eq!(job.shots_executed, 500);
        assert!(!job.early_stopped);
        assert_eq!(job.counts.values().sum::<u64>(), 500);
        assert!(job.dd_nodes_peak > 0);
        assert!(job.dd_nodes_avg > 0.0);
    }

    #[test]
    fn early_stopping_executes_a_shorter_prefix() {
        // A noiseless GHZ job: the dominant outcome sits near p = 0.5, so
        // the 95 % Wilson half-width is ~0.98/sqrt(n) and epsilon = 0.1
        // converges after a few hundred shots.
        let mut spec = ghz_spec("fast", 100_000, 5);
        spec.noise = NoiseModel::noiseless();
        spec.epsilon = Some(0.1);
        spec.check_interval = 64;
        let report = run_batch(&[spec], &BatchOptions::with_threads(3));
        let job = &report.jobs[0];
        assert!(job.early_stopped);
        assert!(
            job.shots_executed < 1000,
            "expected early stop, ran {} shots",
            job.shots_executed
        );
        // The executed prefix is a whole number of rounds.
        assert_eq!(job.shots_executed % 64, 0);
        assert_eq!(job.counts.values().sum::<u64>(), job.shots_executed);
    }

    #[test]
    fn failed_jobs_do_not_block_the_rest() {
        let mut broken = ghz_spec("broken", 100, 1);
        broken.source = CircuitSource::Qasm("/definitely/missing.qasm".into());
        let specs = vec![broken, ghz_spec("ok", 128, 2)];
        let report = run_batch(&specs, &BatchOptions::with_threads(2));
        assert!(!report.all_completed());
        assert!(matches!(report.jobs[0].status, JobStatus::Failed(_)));
        assert_eq!(report.jobs[0].shots_executed, 0);
        assert!(report.jobs[1].status.is_completed());
        assert_eq!(report.jobs[1].shots_executed, 128);
        assert_eq!(report.total_shots(), 128);
    }

    #[test]
    fn dedup_matches_the_per_shot_path_and_reports_sharing() {
        let mut spec = ghz_spec("dedup", 600, 11);
        spec.noise = NoiseModel::noiseless().with_depolarizing(0.002);
        let report = run_batch(&[spec.clone()], &BatchOptions::with_threads(3));
        let job = &report.jobs[0];
        // Deduplication is unobservable in the results ...
        assert_matches_per_shot(job, &per_shot(&spec));
        // ... but very visible in the trajectory accounting.
        assert!(
            job.unique_trajectories < job.shots_executed,
            "expected sharing, got {} trajectories for {} shots",
            job.unique_trajectories,
            job.shots_executed
        );
        assert!(job.dedup_hit_rate > 0.5);
    }

    #[test]
    fn programs_that_decline_dedup_run_in_per_shot_chunks() {
        // Measured before half its steps, so no prefix is worth sharing.
        let path = std::env::temp_dir().join(format!(
            "qsdd_batch_early_measure_{}.qasm",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
             h q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\ncx q[1],q[2];\n\
             cx q[2],q[3];\nh q[3];\nmeasure q -> c;\n",
        )
        .unwrap();
        let mut spec = ghz_spec("early", 300, 5);
        spec.source = CircuitSource::Qasm(path.clone());
        spec.noise = NoiseModel::paper_defaults();
        assert!(!engine(&spec).supports_dedup());
        let reference = per_shot(&spec);
        let reports = [1, 2, 3]
            .map(|threads| run_batch(&[spec.clone()], &BatchOptions::with_threads(threads)));
        std::fs::remove_file(&path).unwrap();
        assert!(reference.error_events > 0, "the paper noise fires");
        for report in &reports {
            let job = &report.jobs[0];
            assert!(job.status.is_completed(), "{:?}", job.status);
            assert_matches_per_shot(job, &reference);
            assert_eq!(job.unique_trajectories, job.shots_executed);
            assert_eq!(job.results_json(), reports[0].jobs[0].results_json());
        }
    }

    #[test]
    fn dedup_results_are_identical_across_thread_counts() {
        let mut specs = vec![ghz_spec("a", 300, 1), ghz_spec("b", 500, 2)];
        // Passive-only noise dedups every shot; paper noise mixes pattern
        // groups with live (damping) shots.
        specs[0].noise = NoiseModel::noiseless().with_depolarizing(0.01);
        specs[1].epsilon = Some(0.05);
        specs[1].check_interval = 64;
        let reference = run_batch(&specs, &BatchOptions::with_threads(1));
        for threads in [2, 4] {
            let report = run_batch(&specs, &BatchOptions::with_threads(threads));
            for (a, b) in reference.jobs.iter().zip(report.jobs.iter()) {
                assert_eq!(a.results_json(), b.results_json());
            }
        }
    }

    #[test]
    fn weighted_jobs_run_whole_and_report_covered_mass() {
        let mut spec = ghz_spec("weighted", 400, 21);
        spec.noise = NoiseModel::noiseless().with_depolarizing(0.004);
        spec.weighted = true;
        let reference = run_batch(&[spec.clone()], &BatchOptions::with_threads(1));
        let job = &reference.jobs[0];
        assert!(job.status.is_completed());
        assert_eq!(job.shots_executed, 400);
        assert_eq!(job.counts.values().sum::<u64>(), 400);
        assert!(
            job.covered_mass > 0.9,
            "expected near-complete coverage, got {}",
            job.covered_mass
        );
        assert!(job.enumerated_trajectories > 0);
        assert!(!job.early_stopped);
        // Weighted execution is single-piece and seed-derived, so the whole
        // report is identical for any worker count (and across repeats).
        for threads in [2, 4] {
            let report = run_batch(&[spec.clone()], &BatchOptions::with_threads(threads));
            assert_eq!(job.results_json(), report.jobs[0].results_json());
        }
    }

    #[test]
    fn weighted_jobs_interleave_with_sampled_jobs() {
        let mut weighted = ghz_spec("weighted", 256, 5);
        weighted.noise = NoiseModel::noiseless().with_phase_flip(0.01);
        weighted.weighted = true;
        let sampled = ghz_spec("sampled", 256, 5);
        let report = run_batch(&[weighted, sampled], &BatchOptions::with_threads(2));
        assert!(report.all_completed());
        for job in &report.jobs {
            assert_eq!(job.counts.values().sum::<u64>(), 256);
        }
        // Only the weighted job carries enumeration statistics.
        assert!(report.jobs[0].enumerated_trajectories > 0);
        assert_eq!(report.jobs[1].enumerated_trajectories, 0);
        assert_eq!(report.jobs[1].covered_mass, 0.0);
    }

    #[test]
    fn zero_shot_jobs_complete_immediately() {
        let report = run_batch(&[ghz_spec("empty", 0, 1)], &BatchOptions::with_threads(2));
        let job = &report.jobs[0];
        assert!(job.status.is_completed());
        assert_eq!(job.shots_executed, 0);
        assert!(job.counts.is_empty());
    }

    #[test]
    fn wilson_half_width_shrinks_with_samples_and_handles_edges() {
        assert!(wilson_half_width(0, 0).is_infinite());
        // Extreme proportions stay inside [0, 1]-sensible bounds.
        let extreme = wilson_half_width(100, 100);
        assert!(extreme > 0.0 && extreme < 0.1);
        let mut last = f64::INFINITY;
        for n in [16u64, 64, 256, 1024] {
            let width = wilson_half_width(n / 2, n);
            assert!(width < last);
            last = width;
        }
    }
}
