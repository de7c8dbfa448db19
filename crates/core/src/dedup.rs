//! Trajectory deduplication: presample, group, replay.
//!
//! At realistic noise strengths almost every shot draws the *same* error
//! decisions — usually none at all — so the per-shot work of the compiled
//! execution pipeline is multiplied by the shot count even though most
//! shots are identical. This module removes that multiplication:
//!
//! 1. **Presample** — every shot's error decisions are resolved up front
//!    from its deterministic per-`(seed, shot)` generator via
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
//! deviation bucket's members share one walk past their event, and every
//! member makes, at every decision point of that walk, the draw its live
//! shot makes there: members that reach the end of the prefix fan out of
//! the shared state like a group; members that fire another event drop
//! into a child bucket keyed by it, which is handled the same way
//! ([`StochasticBackend::run_bucket`]).
//!
//! * **Children fork.** On the decision-diagram back-end a child starts
//!   from a package checkpoint taken at its decision point
//!   ([`qsdd_dd::DdPackage::checkpoint`]): it deviates, finishes the step
//!   and walks on, and the rollback restores the parent's package exactly
//!   before the parent — or the next child — moves on. The complex table
//!   interns by tolerance, so what a value snaps to depends on what was
//!   interned before it; the walk up to the decision point is the operator
//!   sequence each member's live shot performs, and the exact rollback is
//!   what keeps the package a child starts from the one that shot holds.
//!   The statevector back-end has no package to checkpoint: it replays every
//!   child's whole pattern from the template, reading the thresholds past
//!   the last event, and resumes the members' presampling against them
//!   ([`PresamplePlan::resume`]).
//! * **Singletons run live.** A bucket of one has nobody to share with: on
//!   the decision-diagram back-end its shot continues live from its parked
//!   generator where the bucket walk (or the parent's) left it; the
//!   statevector back-end re-derives the generator and runs the shot
//!   through [`StochasticBackend::run_shot`]. Whether to share or run live
//!   is read off the bucket, not configured.
//!
//! For programs whose deduplicable region is only a *prefix* (a mid-circuit
//! measurement or an uncovered state-dependent exposure ahead), the group's
//! or bucket's walk ends at the prefix and every member resumes live from
//! there in the same context — from a checkpoint, rolled back after it
//! ([`StochasticBackend::resume_members`]).
//!
//! # Determinism
//!
//! Deduplication is an optimisation, never an observable: for every seed
//! and thread count the histogram, error counts, node statistics and the
//! bit pattern of every observable sum are identical to per-shot execution.
//! This hinges on three invariants: presampling consumes each shot's random
//! stream exactly like live execution (so post-pattern sampling continues
//! from the right position), a shared walk performs the identical operator
//! sequence a member shot would have performed, in a context a rollback
//! returned to exactly (so the shared state, the thresholds read off it —
//! and the context it lives in — are bit-identical), and the final
//! aggregation replays the per-worker strided summation order of the
//! non-deduplicated runner.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qsdd_noise::{ErrorEvent, ErrorPattern, PresamplePlan, Presampled};
use qsdd_telemetry::trace;
use rand::rngs::StdRng;

use crate::backend::{SingleRun, StochasticBackend};
use crate::deadline::{Deadline, TimedOut};
use crate::estimator::Observable;
use crate::fxhash::FxHashMap;
use crate::shot_engine::{ShotEngine, ShotSample};
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

/// One member shot of a work item: its index, its generator and the Z
/// errors it absorbed so far — counted into its error events, never into a
/// pattern, so they never split work.
pub type Member = (u64, StdRng, u32);

/// Member shots of one pattern.
pub(crate) type Members = Vec<Member>;

/// Members parked after a deviation, each with its next candidate site. A
/// bucket walk keeps them sorted by the site, so a decision point visits
/// only the members whose candidate lies there.
pub(crate) type Parked = Vec<(u32, Member)>;

/// One unit of deduplicated work: the shots that drew `pattern`.
#[derive(Debug)]
pub struct TrajectoryWork {
    pub(crate) pattern: ErrorPattern,
    /// A trajectory group's members: the pattern is their whole trajectory
    /// and their generators sit after the prefix's last draw. Empty for a
    /// deviation bucket.
    pub(crate) members: Members,
    /// A deviation bucket's members: they left the no-error path at the
    /// pattern's one event with state-dependent sites still ahead, streams
    /// parked right after it. Empty for a trajectory group.
    pub(crate) parked: Parked,
}

impl TrajectoryWork {
    /// Number of member shots the work item accounts for.
    pub fn shots(&self) -> usize {
        self.members.len() + self.parked.len()
    }

    /// `true` for a deviation bucket.
    pub(crate) fn is_bucket(&self) -> bool {
        !self.parked.is_empty()
    }
}

/// What presampling collected over a contiguous shot range: work
/// items in first-appearance order, members in shot order.
#[derive(Default)]
struct Groups {
    /// Pattern → slot into `work`, fast-hashed (trusted tiny keys). A
    /// deviation's single-event pattern never equals a finished one (its
    /// event is a decay or lies ahead of the last damping site).
    index: FxHashMap<ErrorPattern, usize>,
    work: Vec<TrajectoryWork>,
}

impl Groups {
    /// The slot of `pattern`'s work item, opened on first sight: the key is
    /// looked up by reference and cloned only into a new entry.
    fn slot(&mut self, pattern: ErrorPattern) -> usize {
        if let Some(&at) = self.index.get(&pattern) {
            return at;
        }
        self.index.insert(pattern.clone(), self.work.len());
        self.work.push(TrajectoryWork {
            pattern,
            members: Vec::new(),
            parked: Vec::new(),
        });
        self.work.len() - 1
    }
}

/// Presamples and groups one contiguous shot range on the calling thread,
/// absorbing Z errors at the `absorbing` sites, work items in
/// first-appearance order with members in shot order; also returns the
/// waiting-time uniforms presampling drew and the Z errors it absorbed.
///
/// One uniform per candidate event makes a shot's presampling a few tens of
/// nanoseconds, less than what spreading a job's shots over threads costs.
/// The batch scheduler calls it once per round, so its memory stays bounded
/// by the round size.
pub(crate) fn plan_range(
    plan: &PresamplePlan,
    range: std::ops::Range<u64>,
    seed: u64,
    absorbing: &[bool],
) -> (Vec<TrajectoryWork>, u64, u64) {
    let (mut groups, mut uniforms, mut absorbed) = (Groups::default(), 0, 0);
    for shot in range {
        let mut rng = shot_rng(seed, shot);
        // Either way the generator is kept: it sits exactly where live
        // execution would after the exposures resolved so far.
        let (presampled, drawn, own) = plan.presample(&mut rng, absorbing);
        (uniforms, absorbed) = (uniforms + u64::from(drawn), absorbed + u64::from(own));
        match presampled {
            Presampled::Pattern(pattern) => {
                let at = groups.slot(pattern);
                groups.work[at].members.push((shot, rng, own));
            }
            Presampled::Deviated { event, next } => {
                // Looked up by its one event: no pattern is built to find a
                // bucket already open.
                let at = match groups.index.get([event].as_slice()) {
                    Some(&at) => at,
                    None => groups.slot(ErrorPattern::default().with_event(event)),
                };
                groups.work[at].parked.push((next, (shot, rng, own)));
            }
        }
    }
    (groups.work, uniforms, absorbed)
}

/// Attaches what a presampling pass found to the innermost open trace
/// span: trajectory groups, deviation buckets and the shots parked in them.
pub fn trace_plan_attrs(work: &[TrajectoryWork]) {
    let buckets = work.iter().filter(|item| item.is_bucket());
    trace::attr("groups", work.len() - buckets.clone().count());
    trace::attr("deviation_buckets", buckets.clone().count());
    trace::attr(
        "deviated_shots",
        buckets.map(TrajectoryWork::shots).sum::<usize>(),
    );
}

/// Where the evolutions of one worker report: the records of the shots
/// they finish and the [`DedupStats`] they count, under the deadline they
/// check, with the job's absorbing sites.
///
/// Handed to [`StochasticBackend::run_bucket`] and
/// [`StochasticBackend::resume_members`]; built by the deduplicating driver
/// alone.
pub struct Evolutions<'a> {
    pub(crate) support: &'a DedupSupport,
    pub(crate) observables: &'a [Observable],
    pub(crate) seed: u64,
    pub(crate) deadline: &'a Deadline,
    pub(crate) absorbing: &'a [bool],
    pub(crate) stats: DedupStats,
    /// The absorbed Z errors of the shots reported.
    pub(crate) absorbed: u64,
    sink: &'a mut dyn FnMut(u64, ShotSample, &[f64]),
}

impl<'a> Evolutions<'a> {
    /// Reports to `sink` (shot index, sample, observable values); absorbs
    /// nothing until the job sets its table (`absorbing`).
    pub(crate) fn new(
        support: &'a DedupSupport,
        observables: &'a [Observable],
        seed: u64,
        deadline: &'a Deadline,
        sink: &'a mut dyn FnMut(u64, ShotSample, &[f64]),
    ) -> Self {
        Evolutions {
            support,
            observables,
            seed,
            deadline,
            absorbing: &[],
            stats: DedupStats::default(),
            absorbed: 0,
            sink,
        }
    }

    /// Counts one more evolution, unless the deadline expired.
    pub(crate) fn evolve(&mut self) -> Result<(), TimedOut> {
        if !self.deadline.is_unbounded() && self.deadline.expired() {
            return Err(TimedOut);
        }
        self.stats.unique_trajectories += 1;
        Ok(())
    }

    /// Reports the shot `run` finished, with the observables evaluated on
    /// its final state.
    pub(crate) fn emit_live<B: StochasticBackend>(
        &mut self,
        backend: &B,
        program: &B::Program,
        ctx: &mut B::Context,
        mut run: SingleRun<B::State>,
        shot: u64,
    ) {
        let values: Vec<f64> = (self.observables.iter())
            .map(|observable| backend.evaluate(program, ctx, &mut run, observable))
            .collect();
        self.absorbed += run.absorbed as u64;
        (self.sink)(shot, ShotSample::of(&run), &values);
    }

    /// Runs shot `shot` live from the rewound template with its generator
    /// derived afresh, like per-shot execution.
    pub(crate) fn rerun<B: StochasticBackend>(
        &mut self,
        backend: &B,
        program: &B::Program,
        ctx: &mut B::Context,
        shot: u64,
    ) {
        let rng = &mut shot_rng(self.seed, shot);
        let run = backend.run_shot(program, ctx, rng, self.absorbing);
        self.emit_live(backend, program, ctx, run, shot);
    }

    /// Fans a run that reached the end of the deduplicable prefix out over
    /// the shots that followed it there: each samples its outcome from the
    /// shared final state, or — when the prefix is not the whole program —
    /// resumes live from it ([`StochasticBackend::resume_members`]).
    pub(crate) fn finish<B: StochasticBackend>(
        &mut self,
        backend: &B,
        program: &B::Program,
        ctx: &mut B::Context,
        mut run: SingleRun<B::State>,
        members: &mut [Member],
    ) {
        if !self.support.full {
            return backend.resume_members(program, ctx, &run, members, self);
        }
        // The observable values are evaluated once, then every member
        // samples its own outcome (the generators continue their streams
        // exactly where live execution would). Both are pure functions of
        // the shared state.
        let values: Vec<f64> = (self.observables.iter())
            .map(|observable| backend.evaluate(program, ctx, &mut run, observable))
            .collect();
        let sample = ShotSample::of(&run);
        let (sink, absorbed) = (&mut self.sink, &mut self.absorbed);
        backend.sample_outcomes(program, ctx, &run, members, |&(shot, _, own), outcome| {
            *absorbed += u64::from(own);
            let mut sample = ShotSample { outcome, ..sample };
            sample.error_events += u64::from(own);
            sink(shot, sample, &values)
        });
    }
}

/// Opens the `trajectory_group` span of an evolution that `members` shots
/// share along a pattern of `events` events.
pub(crate) fn group_span(members: usize, events: usize) -> trace::SpanGuard {
    let span = trace::span("trajectory_group");
    trace::attr("members", members);
    trace::attr("events", events);
    span
}

/// Executes one work item — a trajectory group, or a deviation bucket with
/// the tree of child buckets its members drop into (see the module docs) —
/// in `ctx`, reporting to `out`.
pub(crate) fn run_work<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    mut work: TrajectoryWork,
    out: &mut Evolutions<'_>,
) -> Result<(), TimedOut> {
    if work.is_bucket() {
        return backend.run_bucket(program, ctx, work, out);
    }
    out.evolve()?;
    let _span = group_span(work.members.len(), work.pattern.events().len());
    let dd_before = trace_dd_stats(|| backend.table_stats(ctx));
    run_group(backend, program, ctx, &work.pattern, &mut work.members, out);
    trace::attr("forks", 0u64);
    trace_dd_attrs(dd_before, || backend.table_stats(ctx));
    Ok(())
}

/// Executes one trajectory group: `pattern` once, then every member shot
/// from its final state.
pub(crate) fn run_group<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    pattern: &ErrorPattern,
    members: &mut [Member],
    out: &mut Evolutions<'_>,
) {
    let run = backend.run_pattern(program, ctx, pattern, None);
    out.finish(backend, program, ctx, run, members);
}

/// The default [`StochasticBackend::run_bucket`]: every evolution of the
/// bucket tree replays its whole pattern from the rewound template.
///
/// The bucket's replay reads the decay threshold at every state-dependent
/// exposure past its event; each member continues from its parked stream
/// against them ([`PresamplePlan::resume`]), and members that deviate again
/// form a child bucket, replayed the same way. A bucket of one runs its
/// shot live with its generator derived afresh.
pub(crate) fn replay_bucket<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    work: TrajectoryWork,
    out: &mut Evolutions<'_>,
) -> Result<(), TimedOut> {
    let mut learned = Vec::new();
    let mut pending = vec![(work.pattern, work.parked)];
    while let Some((pattern, members)) = pending.pop() {
        out.evolve()?;
        if let [(_, (shot, ..))] = members[..] {
            out.stats.live_shots += 1;
            out.rerun(backend, program, ctx, shot);
            continue;
        }
        let _span = group_span(members.len(), pattern.events().len());
        let dd_before = trace_dd_stats(|| backend.table_stats(ctx));
        learned.clear();
        let run = backend.run_pattern(program, ctx, &pattern, Some(&mut learned));
        let resume_at = pattern.events().last().map_or(0, |e| e.site as usize + 1);
        let mut children: BTreeMap<ErrorEvent, Parked> = BTreeMap::new();
        let mut finished = Members::new();
        let (plan, absorbing) = (&out.support.plan, out.absorbing);
        for (mut next, (shot, mut rng, own)) in members {
            let (event, more) = plan.resume(&mut rng, &mut next, resume_at, &learned, absorbing);
            let member = (shot, rng, own + more);
            match event {
                Some(event) => children.entry(event).or_default().push((next, member)),
                None => finished.push(member),
            }
        }
        if !finished.is_empty() {
            out.finish(backend, program, ctx, run, &mut finished);
        }
        trace::attr("forks", children.len());
        trace_dd_attrs(dd_before, || backend.table_stats(ctx));
        // Last in, first out: reversed, the smallest child runs next.
        pending.extend(
            (children.into_iter().rev())
                .map(|(event, members)| (pattern.with_event(event), members)),
        );
    }
    Ok(())
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
/// With `inline` — the caller's own context — the whole job runs on the
/// calling thread (`threads` must be 1) and no worker is spawned: the entry
/// long-lived server workers execute through, so state from previous jobs
/// is rewound, not rebuilt. Otherwise every worker builds a fresh context.
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
    inline: Option<&mut B::Context>,
) -> Result<StochasticOutcome, TimedOut> {
    debug_assert!(inline.is_none() || threads == 1);
    let (shots, seed, deadline) = (plan.shots, engine.seed(), &plan.deadline);
    let support = engine.dedup_support();
    let absorbing = engine.absorbing(plan.observables);
    let observables = &engine.map_observables(plan.observables)[..];
    let output_layout = engine.output_layout();
    // Phase 1 + 2: presample every shot, group by pattern.
    let presample_started = Instant::now();
    let presample_span = trace::span("presample");
    let (work, uniforms, absorbed) = plan_range(&support.plan, 0..shots as u64, seed, absorbing);
    trace::attr("shots", shots);
    trace::attr("uniforms", uniforms);
    trace::attr("absorbed", absorbed);
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
    // One worker's share, in the context it is handed.
    let run_worker =
        |worker: usize, (sink, stats): &mut (Sink, DedupStats), ctx: &mut B::Context| {
            let _span = trace::span("worker_trajectories");
            trace::attr("worker", worker);
            let dd_before = trace_dd_stats(|| backend.table_stats(ctx));
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
            let mut out = Evolutions::new(support, observables, seed, deadline, &mut emit);
            out.absorbing = absorbing;
            // The guard is a temporary of the closure body: items run unlocked.
            let claim = || queue.lock().expect("claiming cannot panic").next();
            let mut items = 0usize;
            while let Some(item) = claim() {
                items += 1;
                if let Err(TimedOut) = run_work(backend, program, ctx, item, &mut out) {
                    return aborted.store(true, Ordering::Relaxed);
                }
            }
            *stats = out.stats;
            trace::attr("items", items);
            trace::attr("evolutions", stats.unique_trajectories);
            trace::attr("live_shots", stats.live_shots);
            trace::attr("absorbed", out.absorbed);
            // Every evolution but the work items' own is a child bucket.
            trace::attr("forks", stats.unique_trajectories - items as u64);
            trace_dd_attrs(dd_before, || backend.table_stats(ctx));
        };
    let execute_started = Instant::now();
    match inline {
        Some(ctx) => run_worker(0, &mut sinks[0], ctx),
        None => {
            let trace_handle = trace::propagate();
            let run_worker = &run_worker;
            std::thread::scope(|scope| {
                for (worker, sink) in sinks.iter_mut().enumerate() {
                    let trace_handle = trace_handle.clone();
                    scope.spawn(move || {
                        let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                        let mut ctx = backend.new_context();
                        run_worker(worker, sink, &mut ctx);
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
    fn plan_range_groups_identical_patterns() {
        // One certain phase flip site: every shot draws the same pattern.
        let plan = PresamplePlan::new(vec![SiteChannel::Passive(ErrorChannel::new(
            ErrorKind::PhaseFlip,
            1.0,
        ))]);
        let (work, uniforms, _) = plan_range(&plan, 0..100, 7, &[]);
        assert_eq!(work.len(), 1, "identical patterns must share one group");
        assert!(!work[0].is_bucket());
        // One waiting time per shot: the certain site is its last.
        assert_eq!(uniforms, 100);
        assert_eq!(work[0].pattern.error_events(), 1);
        assert_eq!(work[0].shots(), 100);
        // Members are recorded in shot order.
        assert!(work[0].members.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn plan_range_parks_decayed_shots_under_their_event() {
        let decaying = SiteChannel::Damping {
            gamma: 1.0,
            p_decay: 1.0,
        };
        let plan = PresamplePlan::new(vec![decaying]);
        let (work, ..) = plan_range(&plan, 0..10, 7, &[]);
        assert_eq!(work.len(), 1, "one deviation, one bucket");
        assert!(work[0].is_bucket());
        let decay = ErrorEvent {
            site: 0,
            error: ErrorEvent::DECAY,
        };
        assert_eq!(work[0].pattern.events(), &[decay]);
        let shots: Vec<u64> = work[0].parked.iter().map(|(_, (shot, ..))| *shot).collect();
        assert_eq!(shots, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn dedup_stats_default_to_zero() {
        let stats = DedupStats::default();
        assert_eq!(stats.unique_trajectories, 0);
        assert_eq!(stats.live_shots, 0);
    }
}
