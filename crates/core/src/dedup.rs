//! Trajectory deduplication: presample, group, replay.
//!
//! At realistic noise strengths almost every shot draws the *same* error
//! decisions — usually none at all — so the per-shot work of the compiled
//! execution pipeline is multiplied by the shot count even though most
//! shots are identical. This module removes that multiplication:
//!
//! 1. **Presample** — every shot's error decisions are resolved up front
//!    (in parallel) from its deterministic per-`(seed, shot)` generator via
//!    the state-independent [`PresamplePlan`] of the compiled program,
//!    consuming the random stream exactly like live execution would.
//! 2. **Group** — shots are keyed by their compact [`ErrorPattern`]; equal
//!    patterns evolve through identical states, so each distinct pattern
//!    forms one *trajectory group*. Shots whose later decisions depend on
//!    the state (a damping decay, or any error with a state-dependent
//!    exposure still ahead) are parked, generator and all, in the
//!    *deviation bucket* of the event they drew.
//! 3. **Replay** — one representative per group executes the pattern
//!    through the back-end ([`StochasticBackend::run_pattern`]); the result
//!    fans out over the group: every member samples its own measurement
//!    outcome from the shared final state with its own (correctly
//!    positioned) generator, observable values are evaluated once, and
//!    multiplicity-weighted aggregation reproduces the per-shot totals.
//!
//! # The bucket tree
//!
//! Trajectories that made the same jumps are the same trajectory. A
//! deviation bucket's one-event pattern is replayed once as well, and the
//! replay reads the decay threshold off the state at every state-dependent
//! exposure past the event — the thresholds the bucket's members would
//! have met live. Each member then continues presampling from its parked
//! generator against them ([`PresamplePlan::resume`]): members that reach
//! the end of the plan fan out of the shared state like a group; members
//! that deviate again drop into a child bucket keyed by the longer
//! pattern, which is handled the same way.
//!
//! * **Children rewind.** Every replay — a child's included — starts from
//!   the rewound template and applies the whole pattern, never from its
//!   parent's evolved context: the complex table interns by tolerance, so
//!   what a value snaps to depends on what was interned before it, and only
//!   the operator sequence a live shot performs is guaranteed to reproduce
//!   the live shot's bits.
//! * **Singletons run live.** A bucket of one has nobody to share with; its
//!   shot re-derives its generator and executes through
//!   [`StochasticBackend::run_shot`], so jobs whose deviations rarely
//!   coincide pay only the bucketing. Whether to evolve once or run live is
//!   read off the bucket, not configured.
//!
//! For programs whose deduplicable region is only a *prefix* (a mid-circuit
//! measurement or an uncovered state-dependent exposure ahead), the group
//! representative executes the prefix once, the execution context is
//! checkpointed, and every member resumes live from a clone of that
//! checkpoint ([`StochasticBackend::resume_pattern`]).
//!
//! # Determinism
//!
//! Deduplication is an optimisation, never an observable: for every seed
//! and thread count the histogram, error counts, node statistics and the
//! bit pattern of every observable sum are identical to per-shot execution.
//! This hinges on three invariants: presampling consumes each shot's random
//! stream exactly like live execution (so post-pattern sampling continues
//! from the right position), a pattern replay performs the identical
//! operator sequence a member shot would have performed (so the shared
//! state, the thresholds read off it — and the context it lives in — are
//! bit-identical), and the final aggregation replays the per-worker strided
//! summation order of the non-deduplicated runner.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qsdd_statevector::IntraPool;

use qsdd_noise::{ErrorEvent, ErrorPattern, PresamplePlan, Presampled};
use qsdd_telemetry::trace;
use rand::rngs::StdRng;

use crate::backend::{SingleRun, StochasticBackend};
use crate::deadline::{Deadline, TimedOut};
use crate::estimator::Observable;
use crate::fxhash::FxHashMap;
use crate::shot_engine::{run_live, ShotEngine, ShotSample};
use crate::stochastic::{
    merge_partials, shot_rng, trace_dd_attrs, trace_dd_stats, ExecPlan, StochasticOutcome,
    WorkerPartial,
};

/// How a compiled program supports trajectory deduplication.
///
/// Produced by [`StochasticBackend::dedup_support`]; `None` from that
/// method means every shot of the program must execute live (the ordinary
/// per-shot path).
#[derive(Clone, Debug)]
pub struct DedupSupport {
    /// Presample plan over the flattened noise-exposure sites of the
    /// deduplicable prefix.
    pub plan: PresamplePlan,
    /// Number of leading program steps the pattern replay covers.
    pub prefix_steps: usize,
    /// `true` when the prefix is the whole program: pattern shots then only
    /// need per-shot outcome sampling. `false` means members resume live
    /// from a checkpoint after the prefix.
    pub full: bool,
}

/// Deduplication statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Number of evolutions actually performed: pattern groups, deviation
    /// bucket and child pattern replays, and shots run live.
    pub unique_trajectories: u64,
    /// Shots that executed live on their own: the only member of their
    /// deviation bucket.
    pub live_shots: u64,
}

/// Member shots of one pattern: shot index plus the shot's generator.
type Members = Vec<(u64, StdRng)>;

/// One unit of deduplicated work: the shots that drew `pattern`.
#[derive(Debug)]
pub struct TrajectoryWork {
    pub(crate) pattern: ErrorPattern,
    pub(crate) members: Members,
    /// `false` for a trajectory group: the pattern is the members' whole
    /// trajectory and their generators sit after the last covered exposure.
    /// `true` for a deviation bucket: the members left the no-error path at
    /// the pattern's last event with state-dependent sites still ahead, and
    /// their generators are parked right after that event.
    pub(crate) parked: bool,
}

impl TrajectoryWork {
    /// Number of member shots the work item accounts for.
    pub fn shots(&self) -> usize {
        self.members.len()
    }
}

/// What one presampling pass collected over a contiguous shot range: work
/// items in first-appearance order, members in shot order.
#[derive(Default)]
struct WorkerGroups {
    /// Pattern → slot into `work`, fast-hashed (trusted tiny keys). A
    /// deviation's single-event pattern never equals a finished one (its
    /// event is a decay or lies ahead of the last damping site).
    index: FxHashMap<ErrorPattern, usize>,
    work: Vec<TrajectoryWork>,
}

impl WorkerGroups {
    #[inline]
    fn presample_range(&mut self, plan: &PresamplePlan, range: std::ops::Range<u64>, seed: u64) {
        for shot in range {
            let mut rng = shot_rng(seed, shot);
            // Either way the generator is kept: it sits exactly where live
            // execution would after the exposures resolved so far.
            let (pattern, parked) = match plan.presample(&mut rng) {
                Presampled::Pattern(pattern) => (pattern, false),
                Presampled::Deviated(event) => (ErrorPattern::default().with_event(event), true),
            };
            self.push(pattern, parked, [(shot, rng)]);
        }
    }

    fn push(
        &mut self,
        pattern: ErrorPattern,
        parked: bool,
        members: impl IntoIterator<Item = (u64, StdRng)>,
    ) {
        let at = *self.index.entry(pattern.clone()).or_insert_with(|| {
            self.work.push(TrajectoryWork {
                pattern,
                members: Vec::new(),
                parked,
            });
            self.work.len() - 1
        });
        self.work[at].members.extend(members);
    }
}

/// Presamples and groups one contiguous shot range sequentially.
///
/// Shared by the batch scheduler (which releases one round at a time, so
/// its memory stays bounded by the round size) and the parallel
/// [`plan_shots`] below.
pub(crate) fn plan_range(
    plan: &PresamplePlan,
    range: std::ops::Range<u64>,
    seed: u64,
) -> Vec<TrajectoryWork> {
    let mut groups = WorkerGroups::default();
    groups.presample_range(plan, range, seed);
    groups.work
}

/// Presamples shots `0..shots` in parallel and groups them by pattern.
///
/// Each worker presamples and groups one contiguous shot range; the ranges
/// are merged in worker order, which (ranges being ascending) yields work
/// items in global first-appearance order with members in shot order — the
/// same plan a sequential pass would build.
fn plan_shots(
    plan: &PresamplePlan,
    shots: usize,
    threads: usize,
    seed: u64,
) -> Vec<TrajectoryWork> {
    if threads <= 1 {
        return plan_range(plan, 0..shots as u64, seed);
    }
    let chunk = shots.div_ceil(threads) as u64;
    let mut workers: Vec<WorkerGroups> = Vec::new();
    workers.resize_with(threads, WorkerGroups::default);
    let trace_handle = trace::propagate();
    std::thread::scope(|scope| {
        for (worker, slot) in workers.iter_mut().enumerate() {
            let start = (worker as u64 * chunk).min(shots as u64);
            let end = (start + chunk).min(shots as u64);
            let trace_handle = trace_handle.clone();
            scope.spawn(move || {
                let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                let _span = trace::span("presample_shard");
                trace::attr("worker", worker);
                trace::attr("shots", (end - start) as usize);
                slot.presample_range(plan, start..end, seed)
            });
        }
    });
    let mut merged = WorkerGroups::default();
    for worker in workers {
        for item in worker.work {
            merged.push(item.pattern, item.parked, item.members);
        }
    }
    merged.work
}

/// Attaches what a presampling pass found to the innermost open trace
/// span: trajectory groups, deviation buckets and the shots parked in them.
pub fn trace_plan_attrs(work: &[TrajectoryWork]) {
    let buckets = work.iter().filter(|item| item.parked);
    trace::attr("groups", work.len() - buckets.clone().count());
    trace::attr("deviation_buckets", buckets.clone().count());
    trace::attr(
        "deviated_shots",
        buckets.map(TrajectoryWork::shots).sum::<usize>(),
    );
}

/// Everything the executors need to run trajectories of one program in one
/// worker's context pair: the representative pattern run happens in
/// `pattern_ctx`; for prefix deduplication each member resumes live in
/// `work_ctx` from a clone of the checkpointed `pattern_ctx`.
///
/// Observables must already be expressed over the executed circuit's
/// qubits; outcomes are reported in the executed circuit's qubit order
/// (callers restore transpiler layouts themselves).
pub(crate) struct Replayer<'a, B: StochasticBackend> {
    pub(crate) backend: &'a B,
    pub(crate) program: &'a B::Program,
    pub(crate) support: &'a DedupSupport,
    pub(crate) pattern_ctx: &'a mut B::Context,
    pub(crate) work_ctx: &'a mut B::Context,
    pub(crate) observables: &'a [Observable],
}

impl<B: StochasticBackend> Replayer<'_, B> {
    /// Decision-diagram table traffic of the context pair so far.
    fn table_stats(&self) -> qsdd_dd::TableStats {
        let backend = self.backend;
        backend
            .table_stats(self.pattern_ctx)
            .plus(&backend.table_stats(self.work_ctx))
    }

    /// Executes one trajectory group, feeding one record per member shot
    /// into `sink` (shot index, sample, observable values).
    pub(crate) fn run_group(
        &mut self,
        pattern: &ErrorPattern,
        shots: &mut [(u64, StdRng)],
        sink: impl FnMut(u64, ShotSample, &[f64]),
    ) {
        let prefix = self
            .backend
            .run_pattern(self.program, self.pattern_ctx, pattern, None);
        self.fan_out(prefix, shots, sink);
    }

    /// Fans a completed pattern run out over the shots that followed it to
    /// the end of the deduplicable prefix.
    fn fan_out(
        &mut self,
        mut prefix: SingleRun<B::State>,
        shots: &mut [(u64, StdRng)],
        mut sink: impl FnMut(u64, ShotSample, &[f64]),
    ) {
        let (backend, program) = (self.backend, self.program);
        if self.support.full {
            // The shared final state: the observable values are evaluated
            // once, then every member samples its own outcome from it (the
            // generators continue their streams exactly where live
            // execution would). Evaluation happens per group regardless of
            // order — its values and the sampled outcomes are both pure
            // functions of the shared state.
            let values: Vec<f64> = self
                .observables
                .iter()
                .map(|observable| {
                    backend.evaluate(program, self.pattern_ctx, &mut prefix, observable)
                })
                .collect();
            let sample = ShotSample::of(&prefix);
            backend.sample_outcomes(
                program,
                self.pattern_ctx,
                &prefix,
                shots,
                |shot, outcome| sink(shot, ShotSample { outcome, ..sample }, &values),
            );
        } else {
            // Prefix deduplication: every member resumes live from a clone
            // of the checkpointed context.
            for (shot, rng) in shots.iter_mut() {
                let mut run =
                    backend.resume_pattern(program, self.pattern_ctx, &prefix, self.work_ctx, rng);
                let values: Vec<f64> = self
                    .observables
                    .iter()
                    .map(|observable| {
                        backend.evaluate(program, self.work_ctx, &mut run, observable)
                    })
                    .collect();
                sink(*shot, ShotSample::of(&run), &values);
            }
        }
    }

    /// Executes one work item — a trajectory group, or a deviation bucket
    /// with the whole tree of child buckets its members drop into (see the
    /// module docs) — feeding one record per member shot into `sink` and
    /// counting evolutions and live shots into `stats`.
    ///
    /// The `deadline` is checked between evolutions.
    pub(crate) fn run_work(
        &mut self,
        work: TrajectoryWork,
        seed: u64,
        deadline: &Deadline,
        stats: &mut DedupStats,
        mut sink: impl FnMut(u64, ShotSample, &[f64]),
    ) -> Result<(), TimedOut> {
        let (backend, program) = (self.backend, self.program);
        let bounded = !deadline.is_unbounded();
        let mut learned = Vec::new();
        let mut pending = vec![work];
        while let Some(mut work) = pending.pop() {
            if bounded && deadline.expired() {
                return Err(TimedOut);
            }
            stats.unique_trajectories += 1;
            if let (true, [(shot, _)]) = (work.parked, work.members.as_slice()) {
                // Presampling left this shot's stream partially consumed;
                // live execution re-derives it.
                let mut rng = shot_rng(seed, *shot);
                let (sample, values) = run_live(
                    backend,
                    program,
                    self.pattern_ctx,
                    &mut rng,
                    self.observables,
                );
                sink(*shot, sample, &values);
                stats.live_shots += 1;
                continue;
            }
            let _span = trace::span("trajectory_group");
            trace::attr("members", work.members.len());
            trace::attr("events", work.pattern.events().len());
            let dd_before = trace_dd_stats(|| self.table_stats());
            learned.clear();
            let prefix = backend.run_pattern(
                program,
                self.pattern_ctx,
                &work.pattern,
                work.parked.then_some(&mut learned),
            );
            let mut children: BTreeMap<ErrorEvent, Members> = BTreeMap::new();
            if work.parked {
                let resume_at = work
                    .pattern
                    .events()
                    .last()
                    .map_or(0, |e| e.site as usize + 1);
                let plan = &self.support.plan;
                work.members.retain_mut(|(shot, rng)| {
                    match plan.resume(rng, resume_at, &learned) {
                        None => true,
                        Some(event) => {
                            children
                                .entry(event)
                                .or_default()
                                .push((*shot, rng.clone()));
                            false
                        }
                    }
                });
            }
            if !work.members.is_empty() {
                self.fan_out(prefix, &mut work.members, &mut sink);
            }
            trace_dd_attrs(dd_before, || self.table_stats());
            // Last in, first out: reversed, the smallest child runs next.
            pending.extend(
                children
                    .into_iter()
                    .rev()
                    .map(|(event, members)| TrajectoryWork {
                        pattern: work.pattern.with_event(event),
                        members,
                        parked: true,
                    }),
            );
        }
        Ok(())
    }
}

/// Where a worker of the deduplicating driver puts its records.
///
/// Without observables every aggregate is an integer merge
/// (order-independent), so workers fold their records straight into a
/// partial and the final phase is a plain merge. With observables the
/// floating-point summation order matters: records are kept per shot and
/// the final phase replays the strided per-worker order of the
/// non-deduplicated runner, so every bit of the sums matches it.
enum Sink {
    Partial(WorkerPartial),
    Records(Vec<(u64, ShotSample, Vec<f64>)>),
}

/// The deduplicating body of [`execute`](crate::execute): presample →
/// group → replay, on `engine`'s concrete back-end.
///
/// `threads` must already be resolved (positive, capped at the shot count).
/// The plan's observables are mapped onto the executed circuit and every
/// outcome is restored to the original qubit order (the transpiler's
/// elided-SWAP relabeling) here. The result is byte-identical to the
/// per-shot body for the same seed and thread count, including the bit
/// patterns of the observable sums.
///
/// With `inline` — the caller's own context pair — the whole job runs on
/// the calling thread (`threads` must be 1) and no worker is spawned: the
/// entry long-lived server workers execute through, so state from previous
/// jobs is rewound, not rebuilt. Otherwise every worker builds a fresh pair
/// sharing the `intra` pool.
///
/// Memory: the driver holds one presampled generator per shot (tens of
/// bytes each), so its transient footprint is `O(shots)` where the per-shot
/// body's is `O(threads)`. For shot counts where that matters, the batch
/// scheduler provides the bounded alternative: it presamples and executes
/// one `check`-interval round at a time.
///
/// The plan's deadline is checked between evolutions (one pattern replay or
/// one live shot); on expiry the whole run returns [`TimedOut`] before the
/// aggregation phase, which requires complete shot coverage.
pub(crate) fn run_dedup<B: StochasticBackend>(
    engine: &ShotEngine,
    backend: &B,
    program: &B::Program,
    plan: &ExecPlan<'_>,
    threads: usize,
    intra: Option<&Arc<IntraPool>>,
    inline: Option<(&mut B::Context, &mut B::Context)>,
) -> Result<StochasticOutcome, TimedOut> {
    debug_assert!(inline.is_none() || threads == 1);
    let (shots, seed, deadline) = (plan.shots, engine.seed(), &plan.deadline);
    let support = engine.dedup_support();
    let observables = &engine.map_observables(plan.observables)[..];
    let output_layout = engine.output_layout();
    // Phase 1 + 2: presample every shot, group by pattern.
    let presample_started = Instant::now();
    let presample_span = trace::span("presample");
    let work = plan_shots(&support.plan, shots, threads, seed);
    trace::attr("shots", shots);
    trace_plan_attrs(&work);
    drop(presample_span);
    let presample_time = presample_started.elapsed();

    // Phase 3: execute each trajectory once, fanning results out per shot.
    // Workers claim the next item off one shared queue, so a worker that
    // drew a heavy bucket tree (or lost its core for a while) does not
    // leave the others idle; assignment does not influence any result
    // (every record is a deterministic function of the program and the
    // shot index alone).
    let keep_records = !observables.is_empty();
    let queue = Mutex::new(work.into_iter());
    let mut sinks: Vec<(Sink, DedupStats)> = (0..threads)
        .map(|_| {
            let sink = if keep_records {
                Sink::Records(Vec::new())
            } else {
                Sink::Partial(WorkerPartial::new(0))
            };
            (sink, DedupStats::default())
        })
        .collect();
    let aborted = AtomicBool::new(false);
    // One worker's share, in the context pair it is handed.
    let run_worker = |worker: usize,
                      (sink, stats): &mut (Sink, DedupStats),
                      pattern_ctx: &mut B::Context,
                      work_ctx: &mut B::Context| {
        let _span = trace::span("worker_trajectories");
        trace::attr("worker", worker);
        let mut replayer = Replayer {
            backend,
            program,
            support,
            pattern_ctx,
            work_ctx,
            observables,
        };
        let dd_before = trace_dd_stats(|| replayer.table_stats());
        let mut emit = |shot: u64, mut sample: ShotSample, values: &[f64]| {
            if let Some(output_layout) = output_layout {
                sample.outcome =
                    qsdd_transpile::layout::restore_outcome(sample.outcome, output_layout);
            }
            match sink {
                Sink::Partial(partial) => partial.record(&sample, &[]),
                Sink::Records(records) => records.push((shot, sample, values.to_vec())),
            }
        };
        // The guard is a temporary of the closure body: items run unlocked.
        let claim = || queue.lock().expect("claiming cannot panic").next();
        let mut items = 0usize;
        while let Some(item) = claim() {
            items += 1;
            if let Err(TimedOut) = replayer.run_work(item, seed, deadline, stats, &mut emit) {
                return aborted.store(true, Ordering::Relaxed);
            }
        }
        trace::attr("items", items);
        trace::attr("evolutions", stats.unique_trajectories);
        trace::attr("live_shots", stats.live_shots);
        trace_dd_attrs(dd_before, || replayer.table_stats());
    };
    let execute_started = Instant::now();
    match inline {
        Some((pattern_ctx, work_ctx)) => {
            run_worker(0, &mut sinks[0], pattern_ctx, work_ctx);
        }
        None => {
            let trace_handle = trace::propagate();
            let run_worker = &run_worker;
            std::thread::scope(|scope| {
                for (worker, sink) in sinks.iter_mut().enumerate() {
                    let trace_handle = trace_handle.clone();
                    scope.spawn(move || {
                        let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                        let mut pattern_ctx = backend.new_context();
                        let mut work_ctx = backend.new_context();
                        if let Some(pool) = intra {
                            backend.set_intra_pool(&mut pattern_ctx, Some(Arc::clone(pool)));
                            backend.set_intra_pool(&mut work_ctx, Some(Arc::clone(pool)));
                        }
                        run_worker(worker, sink, &mut pattern_ctx, &mut work_ctx);
                    });
                }
            });
        }
    }

    let execute_time = execute_started.elapsed();
    // A timed-out run must bail here: the replay below expects every shot
    // to be covered, and partial aggregates are never exposed.
    if aborted.load(Ordering::Relaxed) {
        return Err(TimedOut);
    }

    // Phase 4: merge. Integer-only aggregates merge directly; observable
    // runs replay the strided per-worker summation order first.
    let aggregate_started = Instant::now();
    let aggregate_span = trace::span("aggregate");
    let mut dedup = DedupStats::default();
    let mut records: Vec<Option<(ShotSample, Vec<f64>)>> = Vec::new();
    if keep_records {
        records.resize_with(shots, || None);
    }
    let mut partials: Vec<Option<WorkerPartial>> = Vec::with_capacity(threads);
    for (sink, stats) in sinks {
        dedup.unique_trajectories += stats.unique_trajectories;
        dedup.live_shots += stats.live_shots;
        match sink {
            Sink::Partial(partial) => partials.push(Some(partial)),
            Sink::Records(list) => {
                for (shot, sample, values) in list {
                    let slot = &mut records[shot as usize];
                    debug_assert!(slot.is_none(), "shot {shot} recorded twice");
                    *slot = Some((sample, values));
                }
            }
        }
    }
    if keep_records {
        partials.extend((0..threads).map(|worker| {
            let mut partial = WorkerPartial::new(observables.len());
            for record in records.iter().skip(worker).step_by(threads) {
                let (sample, values) = record
                    .as_ref()
                    .expect("every shot is covered by exactly one work item");
                partial.record(sample, values);
            }
            Some(partial)
        }));
    }
    let mut outcome = merge_partials(partials, shots, observables.len(), threads);
    drop(aggregate_span);
    outcome.dedup = Some(dedup);
    outcome
        .stage_timings
        .record(qsdd_telemetry::Stage::Presample, presample_time);
    outcome
        .stage_timings
        .record(qsdd_telemetry::Stage::Execute, execute_time);
    outcome.stage_timings.record(
        qsdd_telemetry::Stage::Aggregate,
        aggregate_started.elapsed(),
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_noise::{ErrorChannel, ErrorKind, SiteChannel};

    #[test]
    fn plan_shots_groups_identical_patterns() {
        // One certain phase flip site: every shot draws the same pattern.
        let plan = PresamplePlan::new(vec![SiteChannel::Passive(ErrorChannel::new(
            ErrorKind::PhaseFlip,
            1.0,
        ))]);
        let work = plan_shots(&plan, 100, 4, 7);
        assert_eq!(work.len(), 1, "identical patterns must share one group");
        assert!(!work[0].parked);
        assert_eq!(work[0].pattern.error_events(), 1);
        assert_eq!(work[0].shots(), 100);
        // Members are recorded in shot order.
        assert!(work[0].members.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn plan_shots_parks_decayed_shots_under_their_event() {
        let plan = PresamplePlan::new(vec![SiteChannel::Damping { p_decay: 1.0 }]);
        for threads in [1, 2] {
            let work = plan_shots(&plan, 10, threads, 7);
            assert_eq!(work.len(), 1, "one deviation, one bucket");
            assert!(work[0].parked);
            let decay = ErrorEvent {
                site: 0,
                error: ErrorEvent::DECAY,
            };
            assert_eq!(work[0].pattern.events(), &[decay]);
            let shots: Vec<u64> = work[0].members.iter().map(|(shot, _)| *shot).collect();
            assert_eq!(shots, (0..10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn dedup_stats_default_to_zero() {
        let stats = DedupStats::default();
        assert_eq!(stats.unique_trajectories, 0);
        assert_eq!(stats.live_shots, 0);
    }
}
