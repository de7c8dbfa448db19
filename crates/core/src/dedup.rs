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
//! 3. **Replay** — one walk per group takes the pattern's decisions at the
//!    back-end's decision points (the walker below); the result fans out
//!    over the group: every member samples its own measurement
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
//! into a child bucket keyed by it, which is handled the same way. One
//! walker (`Tree::carry`) does this on both back-ends, over the decision
//! points each offers (`DecisionPoints`): a kept step's kernel or one
//! exposure on the decision-diagram back-end, every exposure on the
//! statevector back-end.
//!
//! * **Children fork.** A child starts from a checkpoint of the context
//!   taken at its decision point: it fires its event on a copy of the
//!   walk, walks on, and the rollback restores the parent's context exactly
//!   before the parent — or the next child — moves on. On the
//!   decision-diagram back-end the checkpoint seals the package's table
//!   layers ([`qsdd_dd::DdPackage::checkpoint`]): the complex table interns
//!   by tolerance, so what a value snaps to depends on what was interned
//!   before it; the walk up to the decision point is the operator sequence
//!   each member's live shot performs, and the exact rollback is what keeps
//!   the package a child starts from the one that shot holds. On the
//!   statevector back-end it is a copy of the amplitudes on a per-depth
//!   stack that the context keeps from one fork to the next, up to a byte
//!   cap past which the checkpoint is refused.
//! * **Singletons run live.** A bucket of one has nobody to share with: its
//!   shot continues live from its parked generator where the bucket walk
//!   (or the parent's) left it. Whether to share or run live is read off
//!   the bucket, not configured.
//!
//! For programs whose deduplicable region is only a *prefix* (a mid-circuit
//! measurement or an uncovered state-dependent exposure ahead), the group's
//! or bucket's walk ends at the prefix and every member resumes live from
//! there in the same context — from a checkpoint, rolled back after it (from
//! the re-seated template when the walk refers to nothing else: the prefix
//! is empty, or a decision-diagram walk never left the recorded trajectory).
//! Such a group runs in
//! *member runs* of at most [`CHUNK_SHOTS`], each walking the prefix itself.
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
use std::sync::Mutex;
use std::time::Instant;

use qsdd_noise::{ErrorEvent, ErrorPattern, PresamplePlan, Presampled, Survival};
use qsdd_telemetry::trace;
use rand::rngs::StdRng;

use crate::backend::{SingleRun, StochasticBackend};
use crate::deadline::{Deadline, TimedOut};
use crate::decisions::{Decisions, Process, Replayed, Sampled};
use crate::estimator::{Observable, ObservableAccumulator};
use crate::fxhash::FxHashMap;
use crate::shot_engine::{ExecContext, ShotEngine, ShotSample};
use crate::stochastic::{
    merge_partials, run_lanes, shot_rng, trace_dd_attrs, trace_dd_stats, trace_dd_totals, ExecPlan,
    StochasticOutcome, WorkerPartial,
};

/// Shots per unit of queued work (a batch chunk's bundle, a member run):
/// small enough that work interleaves at fine grain, large enough that
/// queue traffic stays negligible next to shot cost.
pub const CHUNK_SHOTS: usize = 32;

/// How a compiled program shares its deduplicable prefix, possibly empty
/// ([`StochasticBackend::dedup_support`]).
#[derive(Clone, Debug)]
pub struct DedupSupport {
    /// Presample plan over the flattened noise-exposure sites of the
    /// deduplicable prefix.
    pub plan: PresamplePlan,
    /// `true` when the prefix is the whole program: pattern shots then only
    /// need per-shot outcome sampling. `false` means members resume live
    /// after the prefix, in member runs.
    pub full: bool,
}

/// Deduplication statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Number of evolutions actually performed: pattern groups, deviation
    /// bucket and child pattern replays, and shots run live. A group
    /// released in member runs counts once.
    pub unique_trajectories: u64,
    /// The evolutions that served at least one shot: all but the buckets
    /// whose every member forked into a child bucket.
    pub serving: u64,
    /// Shots that executed live on their own: the only member of their
    /// deviation bucket.
    pub live_shots: u64,
}

impl std::ops::AddAssign for DedupStats {
    fn add_assign(&mut self, other: DedupStats) {
        self.unique_trajectories += other.unique_trajectories;
        self.serving += other.serving;
        self.live_shots += other.live_shots;
    }
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
    /// Whether the item's evolution counts in the [`DedupStats`]: not for a
    /// group's later member runs, which re-walk what its first run counts.
    pub(crate) counted: bool,
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
    /// Pattern → slot of its latest item in `work`, fast-hashed (trusted
    /// tiny keys). A deviation's single-event pattern never equals a
    /// finished one (its event is a decay or lies ahead of the last damping
    /// site).
    index: FxHashMap<ErrorPattern, usize>,
    work: Vec<TrajectoryWork>,
}

impl Groups {
    /// The slot of `pattern`'s latest work item, opened on first sight: the
    /// key is looked up by reference and cloned only into a new entry.
    fn slot(&mut self, pattern: ErrorPattern) -> usize {
        match self.index.get(&pattern) {
            Some(&at) => at,
            None => self.open(pattern, true),
        }
    }

    /// Opens a work item for `pattern` and files the pattern under it: a
    /// group or bucket, or — not `counted` — a group's next member run.
    fn open(&mut self, pattern: ErrorPattern, counted: bool) -> usize {
        self.index.insert(pattern.clone(), self.work.len());
        self.work.push(TrajectoryWork {
            pattern,
            members: Vec::new(),
            parked: Vec::new(),
            counted,
        });
        self.work.len() - 1
    }
}

/// Presamples and groups one contiguous shot range on the calling thread,
/// absorbing Z errors at the `absorbing` sites, work items in
/// first-appearance order with members in shot order — a group whose
/// members resume live past the prefix in member runs of at most
/// [`CHUNK_SHOTS`], each opened when the one before fills; also returns
/// the waiting-time uniforms presampling drew and the Z errors it absorbed.
///
/// One uniform per candidate event makes a shot's presampling a few tens of
/// nanoseconds, less than what spreading a job's shots over threads costs.
/// The batch scheduler calls it once per round, so its memory stays bounded
/// by the round size.
pub(crate) fn plan_range(
    support: &DedupSupport,
    range: std::ops::Range<u64>,
    seed: u64,
    absorbing: &[bool],
) -> (Vec<TrajectoryWork>, u64, u64) {
    let (mut groups, mut uniforms, mut absorbed) = (Groups::default(), 0, 0);
    for shot in range {
        let mut rng = shot_rng(seed, shot);
        // Either way the generator is kept: it sits exactly where live
        // execution would after the exposures resolved so far.
        let (presampled, drawn, own) = support.plan.presample(&mut rng, absorbing);
        (uniforms, absorbed) = (uniforms + u64::from(drawn), absorbed + u64::from(own));
        match presampled {
            Presampled::Pattern(pattern) => {
                let mut at = groups.slot(pattern);
                if !support.full && groups.work[at].members.len() == CHUNK_SHOTS {
                    at = groups.open(groups.work[at].pattern.clone(), false);
                }
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
    let runs = work.iter().filter(|item| !item.counted).count();
    trace::attr("groups", work.len() - runs - buckets.clone().count());
    trace::attr("deviation_buckets", buckets.clone().count());
    trace::attr(
        "deviated_shots",
        buckets.map(TrajectoryWork::shots).sum::<usize>(),
    );
}

/// Where the evolutions of one worker report: the records of the shots
/// they finish and the [`DedupStats`] they count, under the deadline they
/// check, with the job's absorbing sites. Built by the deduplicating driver
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

    /// Starts one more evolution, counted unless a group's first member
    /// run already counted it; fails if the deadline expired.
    pub(crate) fn evolve(&mut self, counted: bool) -> Result<(), TimedOut> {
        if !self.deadline.is_unbounded() && self.deadline.expired() {
            return Err(TimedOut);
        }
        self.stats.unique_trajectories += u64::from(counted);
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

    /// Fans a walk that reached the end of the deduplicable prefix out over
    /// the shots that followed it there: each samples its outcome from the
    /// shared final state or — when the prefix is not the whole program —
    /// resumes live from it, all but the last from a checkpoint there: the
    /// context a per-shot execution holds (each from the re-seated template,
    /// with no checkpoint, when the walk holds nothing but the template:
    /// [`DecisionPoints::restarts`]).
    pub(crate) fn finish<B: DecisionPoints>(
        &mut self,
        backend: &B,
        seat: &mut Seat<'_, B>,
        mut walk: B::Walk,
        members: &mut [Member],
    ) {
        let program = seat.program;
        if !self.support.full {
            B::settle(seat, &mut walk);
            let next = self.support.plan.site_count() as u32;
            let restart = B::restarts(program, &walk);
            for index in 0..members.len() {
                if restart {
                    B::start(seat);
                }
                let last = index + 1 == members.len();
                let checkpoint = (!restart && !last).then(|| B::checkpoint(seat.ctx));
                let (shot, rng, absorbed) = &mut members[index];
                let run = B::finish_live(seat, walk, (next, rng, *absorbed));
                self.emit_live(backend, program, seat.ctx, run, *shot);
                if checkpoint.is_some_and(|checkpoint| !B::rollback(seat.ctx, checkpoint)) {
                    for &(shot, ..) in &members[index + 1..] {
                        self.rerun(backend, program, seat.ctx, shot);
                    }
                    return;
                }
            }
            return;
        }
        // The observable values are evaluated once, then every member
        // samples its own outcome (the generators continue their streams
        // exactly where live execution would). Both are pure functions of
        // the shared state.
        let mut run = B::prefix_run(seat, &mut walk);
        let ctx = &mut *seat.ctx;
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

/// A context seated on its program, with the job's absorbing sites: where
/// a bucket walk runs.
pub(crate) struct Seat<'a, B: StochasticBackend> {
    pub(crate) program: &'a B::Program,
    pub(crate) ctx: &'a mut B::Context,
    pub(crate) absorbing: &'a [bool],
}

/// What the bucket walk needs of a back-end: the decision points along a
/// walk — where members make the draws their live shots make — and a
/// checkpoint pair on the context to fork children off.
pub(crate) trait DecisionPoints: StochasticBackend + Sized {
    /// A walk: its running state and where it is; copied into each child.
    type Walk: Copy;
    /// A decision point; it caches what draws read off the state.
    type Point;
    /// An open checkpoint of a context.
    type Checkpoint;

    /// Seats the context: a walk entering the program's first step.
    fn start(seat: &mut Seat<'_, Self>) -> Self::Walk;
    /// Whether `walk`, at the end of the deduplicable prefix of `program`,
    /// refers to nothing in the context but the seated template, so members
    /// resume live from it in a re-seated context instead of a checkpoint.
    fn restarts(program: &Self::Program, walk: &Self::Walk) -> bool;
    /// Moves `walk` to its next decision point in the deduplicable prefix,
    /// returned with the first site past it; `None` at the prefix's end.
    fn point(seat: &mut Seat<'_, Self>, walk: &mut Self::Walk) -> Option<(u32, Self::Point)>;
    /// The event `decisions` fire at `walk`'s `point`, if any.
    fn draw<D: Decisions>(
        seat: &mut Seat<'_, Self>,
        walk: &Self::Walk,
        point: &mut Self::Point,
        decisions: &mut D,
    ) -> Option<ErrorEvent>;
    /// A child's walk: `walk` with `event` fired at `point`.
    fn fire(
        seat: &mut Seat<'_, Self>,
        walk: Self::Walk,
        point: &Self::Point,
        event: ErrorEvent,
    ) -> Self::Walk;
    /// Moves `walk` past `point` along the branch where nothing fired.
    fn pass(seat: &mut Seat<'_, Self>, walk: &mut Self::Walk, point: Self::Point);
    /// Whether the draws at `point` left the context as they found it. A
    /// draw that reads a state off the walk's path builds it from a
    /// checkpoint and rolls it back, which a trim can make inexact.
    fn exact(_point: &Self::Point) -> bool {
        true
    }
    /// Readies `walk` to have children forked off it, or members resume
    /// from it.
    fn settle(_seat: &mut Seat<'_, Self>, _walk: &mut Self::Walk) {}
    /// Opens a checkpoint of the context.
    fn checkpoint(ctx: &mut Self::Context) -> Self::Checkpoint;
    /// Returns the context to `checkpoint` exactly, or says it could not.
    fn rollback(ctx: &mut Self::Context, checkpoint: Self::Checkpoint) -> bool;
    /// The shot of `member` — next candidate, generator, Z errors absorbed so
    /// far — continued live from `walk`.
    fn finish_live(
        seat: &mut Seat<'_, Self>,
        walk: Self::Walk,
        member: (u32, &mut StdRng, u32),
    ) -> SingleRun<Self::State>;
    /// The run a walk at the end of a whole-program prefix shares with its
    /// members.
    fn prefix_run(seat: &mut Seat<'_, Self>, walk: &mut Self::Walk) -> SingleRun<Self::State>;
    /// The candidate process of `program`'s exposure sites, which parked
    /// members draw on — the one their live shots draw on.
    fn survival(program: &Self::Program) -> &Survival;

    /// Samples every member shot of a full-program pattern group from the
    /// run's final state, feeding `(member, outcome)` pairs into `sink`.
    ///
    /// Each member's generator sits exactly after the presampled exposures
    /// (the presampler consumed the stream like live execution), and draws
    /// the outcome it would draw alone; back-ends hoist per-state
    /// preparation (a flattened sampling plan, a running-sum table) out of
    /// the member loop, which is the hottest loop of a deduplicated run.
    /// Only called when the program's [`DedupSupport::full`] is `true`.
    fn sample_outcomes(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        run: &SingleRun<Self::State>,
        shots: &mut [Member],
        sink: impl FnMut(&Member, u64),
    );

    /// Feeds the exact measurement-outcome distribution of a completed
    /// full-program pattern run into `sink` as `(outcome, probability)`
    /// pairs, one per basis state with non-zero probability: the
    /// weighted-enumeration counterpart of
    /// [`sample_outcomes`](Self::sample_outcomes), which the caller scales
    /// by the pattern's probability. Must be called with the context the
    /// run executed in, before that context runs its next shot. Only called
    /// when the program's [`DedupSupport::full`] is `true`.
    fn outcome_distribution(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        run: &SingleRun<Self::State>,
        sink: &mut dyn FnMut(u64, f64),
    );
}

/// Executes one work item — a trajectory group or one of its member runs,
/// or a deviation bucket with the tree of child buckets its members drop
/// into (see the module docs) — in `ctx`, reporting to `out`.
pub(crate) fn run_work<B: DecisionPoints>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    mut work: TrajectoryWork,
    out: &mut Evolutions<'_>,
) -> Result<(), TimedOut> {
    out.evolve(work.counted)?;
    if work.is_bucket() {
        debug_assert_eq!(
            work.pattern.error_events(),
            1,
            "a bucket opens with one event"
        );
        let absorbing = out.absorbing;
        let mut seat = Seat {
            program,
            ctx,
            absorbing,
        };
        let walk = replay(&mut seat, &work.pattern, true);
        return Tree { backend, seat, out }.carry(walk, 1, work.parked);
    }
    let _span = group_span(work.members.len(), work.pattern.events().len());
    let dd_before = trace_dd_stats(|| backend.table_stats(ctx));
    run_group(backend, program, ctx, &work.pattern, &mut work.members, out);
    out.stats.serving += u64::from(work.counted);
    trace::attr("forks", 0u64);
    trace_dd_attrs(dd_before, || backend.table_stats(ctx));
    Ok(())
}

/// Executes one trajectory group: `pattern` once, then every member shot
/// from its final state.
pub(crate) fn run_group<B: DecisionPoints>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    pattern: &ErrorPattern,
    members: &mut [Member],
    out: &mut Evolutions<'_>,
) {
    let absorbing = out.absorbing;
    let mut seat = Seat {
        program,
        ctx,
        absorbing,
    };
    let walk = replay(&mut seat, pattern, false);
    out.finish(backend, &mut seat, walk, members);
}

/// The run every shot that draws `pattern` shares: the pattern replayed
/// over the deduplicable prefix, no randomness consumed. Its `outcome` is
/// unspecified (each member samples its own).
pub(crate) fn run_pattern<B: DecisionPoints>(
    program: &B::Program,
    ctx: &mut B::Context,
    pattern: &ErrorPattern,
) -> SingleRun<B::State> {
    let mut seat = Seat {
        program,
        ctx,
        absorbing: &[],
    };
    let mut walk = replay(&mut seat, pattern, false);
    B::prefix_run(&mut seat, &mut walk)
}

/// Walks the deduplicable prefix from the start, each exposure deciding as
/// `pattern` says: the operator sequence of every shot that draws it. A
/// bucket's walk, `opening` it, stops past the bucket's one event.
fn replay<B: DecisionPoints>(
    seat: &mut Seat<'_, B>,
    pattern: &ErrorPattern,
    opening: bool,
) -> B::Walk {
    let (mut walk, mut replayed) = (B::start(seat), Replayed::new(pattern));
    while let Some((_, mut point)) = B::point(seat, &mut walk) {
        match B::draw(seat, &walk, &mut point, &mut replayed) {
            Some(event) => walk = B::fire(seat, walk, &point, event),
            None => B::pass(seat, &mut walk, point),
        }
        if opening && replayed.exhausted() {
            break;
        }
    }
    debug_assert!(replayed.exhausted(), "pattern events beyond the prefix");
    walk
}

/// The members that fired at one decision point, keyed by their event.
type Forks = BTreeMap<ErrorEvent, Parked>;

/// Resolves the members (sorted by next candidate) whose candidate lies
/// before site `end` with `draw`, moving each one that fires into its child;
/// the others pass without a draw. The members draw from `process` over the
/// sites before `sites`.
fn split(
    (process, sites): (Process<'_>, u32),
    members: &mut Parked,
    end: u32,
    mut draw: impl FnMut(&mut Sampled<'_>) -> Option<ErrorEvent>,
) -> Forks {
    let mut children = Forks::new();
    let due = members.partition_point(|(next, _)| *next < end);
    if due == 0 {
        return children;
    }
    let due: Parked = members.drain(..due).collect();
    for (next, (shot, mut rng, own)) in due {
        let mut sampled = Sampled::new(&mut rng, process, next, sites);
        let event = draw(&mut sampled);
        let (next, own) = (sampled.next, own + sampled.absorbed);
        let member = (shot, rng, own);
        match event {
            Some(event) => children.entry(event).or_default().push((next, member)),
            None => members.push((next, member)),
        }
    }
    members.sort_by_key(|(next, _)| *next);
    children
}

/// A bucket tree walked in one context, each child forked off its parent.
struct Tree<'a, 'o, B: DecisionPoints> {
    backend: &'a B,
    seat: Seat<'a, B>,
    out: &'a mut Evolutions<'o>,
}

impl<B: DecisionPoints> Tree<'_, '_, B> {
    /// Carries the members of a bucket along its walk, which has just fired
    /// the bucket's `events`-th event, to the end of the deduplicable
    /// prefix, where they fan out of the shared state.
    ///
    /// At every decision point the members whose next candidate lies there
    /// make the draws their live shots make; the members that fire an event
    /// form a child bucket, forked off the walk right there
    /// ([`fork`](Self::fork)). A bucket of one continues live from its
    /// parked stream.
    fn carry(
        &mut self,
        mut walk: B::Walk,
        events: usize,
        mut members: Parked,
    ) -> Result<(), TimedOut> {
        let (backend, program, absorbing) = (self.backend, self.seat.program, self.seat.absorbing);
        // Parked members draw on over the prefix's sites.
        let sites = self.out.support.plan.site_count() as u32;
        let stream = ((B::survival(program), absorbing), sites);
        if let [(next, (shot, rng, absorbed))] = &mut members[..] {
            self.out.stats.live_shots += 1;
            self.out.stats.serving += 1;
            let run = B::finish_live(&mut self.seat, walk, (*next, rng, *absorbed));
            (self.out).emit_live(backend, program, self.seat.ctx, run, *shot);
            return Ok(());
        }
        members.sort_by_key(|(next, _)| *next);
        let _span = group_span(members.len(), events);
        let dd_before = trace_dd_stats(|| backend.table_stats(self.seat.ctx));
        let mut forks = 0;
        let finished = loop {
            let Some((end, mut point)) = B::point(&mut self.seat, &mut walk) else {
                break true;
            };
            let seat = &mut self.seat;
            let draw = |sampled: &mut Sampled<'_>| B::draw(seat, &walk, &mut point, sampled);
            let children = split(stream, &mut members, end, draw);
            forks += children.len();
            if !self.fork(children, &point, events, &mut members, &mut walk)? {
                break false;
            }
            B::pass(&mut self.seat, &mut walk, point);
        };
        if finished {
            self.out.stats.serving += 1;
            let mut members: Members = members.into_iter().map(|(_, member)| member).collect();
            (self.out).finish(backend, &mut self.seat, walk, &mut members);
        }
        trace::attr("forks", forks);
        trace_dd_attrs(dd_before, || backend.table_stats(self.seat.ctx));
        Ok(())
    }

    /// Runs each child bucket of `point` from a checkpoint taken there — the
    /// child fires its event on a copy of the settled `walk` and walks on —
    /// and rolls the context back before the next child or the parent moves
    /// on; the last child of a parent left without members needs none.
    /// Returns whether the parent walks on: not without members, nor after an
    /// inexact rollback (a trim emptied the tables under the checkpoint, or
    /// the dense stack refused it) here or in the draws at `point`, which
    /// runs the later children's and the parent's shots live instead.
    fn fork(
        &mut self,
        children: Forks,
        point: &B::Point,
        events: usize,
        members: &mut Parked,
        walk: &mut B::Walk,
    ) -> Result<bool, TimedOut> {
        if !children.is_empty() {
            B::settle(&mut self.seat, walk);
        }
        let mut children = children.into_iter();
        let mut exact = B::exact(point);
        while exact {
            let Some((event, child)) = children.next() else {
                return Ok(!members.is_empty());
            };
            self.out.evolve(true)?;
            let last = members.is_empty() && children.len() == 0;
            let checkpoint = (!last).then(|| B::checkpoint(self.seat.ctx));
            let forked = B::fire(&mut self.seat, *walk, point, event);
            self.carry(forked, events + 1, child)?;
            exact = checkpoint.is_none_or(|checkpoint| B::rollback(self.seat.ctx, checkpoint));
        }
        let (backend, program) = (self.backend, self.seat.program);
        let rest = children.flat_map(|(_, members)| members);
        for (_, (shot, ..)) in rest.chain(members.drain(..)) {
            (self.out).rerun(backend, program, self.seat.ctx, shot);
        }
        Ok(false)
    }
}

/// What one worker of the deduplicating driver folds the shots it reports
/// into — a driver lane's share of a job, or a batch job's over its chunks
/// — with the [`DedupStats`] of its evolutions.
///
/// Every integer aggregate merges in any order, so shots fold straight into
/// a partial. Observable sums are floating-point, so their summation order
/// matters: a shot's values are kept, and
/// [`into_outcome`](Self::into_outcome) sums them in the strided per-worker
/// order of the per-shot driver, so every bit of the sums matches it.
#[derive(Default)]
pub struct DedupPartial {
    partial: WorkerPartial,
    /// Each shot's observable values, while the job estimates any.
    values: Vec<(u64, Vec<f64>)>,
    pub(crate) stats: DedupStats,
    /// The absorbed Z errors of the shots reported.
    pub(crate) absorbed: u64,
}

impl DedupPartial {
    pub(crate) fn record(&mut self, shot: u64, sample: ShotSample, values: &[f64]) {
        self.partial.record(&sample, &[]);
        if !values.is_empty() {
            self.values.push((shot, values.to_vec()));
        }
    }

    /// The statistics of the evolutions run so far.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// The most shots any one outcome drew so far.
    pub fn top_count(&self) -> u64 {
        self.partial.top_count()
    }

    /// Adds another share of the same job to this one.
    pub fn merge(&mut self, other: DedupPartial) {
        self.partial.merge(other.partial);
        self.values.extend(other.values);
        self.stats += other.stats;
        self.absorbed += other.absorbed;
    }

    /// The outcome of a job whose `shots` shots this share holds, its
    /// observable sums taken as `threads` per-shot workers take them.
    pub fn into_outcome(mut self, shots: usize, threads: usize) -> StochasticOutcome {
        let mut outcome = merge_partials([self.partial], 0, shots, threads);
        if let Some((_, first)) = self.values.first() {
            let observables = first.len();
            self.values.sort_unstable_by_key(|&(shot, _)| shot);
            let covered =
                (self.values.iter().enumerate()).all(|(at, &(shot, _))| shot == at as u64);
            assert!(
                covered && self.values.len() == shots,
                "every shot is covered by exactly one work item"
            );
            let mut sums = ObservableAccumulator::new(observables);
            for worker in 0..threads {
                let mut lane = ObservableAccumulator::new(observables);
                for (_, values) in self.values.iter().skip(worker).step_by(threads) {
                    lane.add(values);
                }
                sums.merge(&lane);
            }
            outcome.observable_estimates = sums.means();
        }
        outcome.dedup = Some(self.stats);
        outcome
    }
}

/// The deduplicating body of [`execute`](crate::execute): presample →
/// group → replay.
///
/// `threads` must already be resolved (positive, capped at the shot count).
/// The plan's observables are mapped onto the executed circuit and every
/// outcome is restored to the original qubit order (the transpiler's
/// elided-SWAP relabeling). The result is byte-identical to the per-shot
/// body for the same seed and thread count, including the bit patterns of
/// the observable sums.
///
/// The work items run in lanes ([`run_lanes`]): with `inline` — the
/// caller's own context — the whole job runs on the calling thread
/// (`threads` must be 1), the entry long-lived server workers execute
/// through, so state from previous jobs is rewound, not rebuilt.
///
/// Memory: the driver holds one presampled generator per shot (tens of
/// bytes each), so its transient footprint is `O(shots)` where the per-shot
/// body's is `O(threads)`. For shot counts where that matters, the batch
/// scheduler provides the bounded alternative: it presamples and executes
/// one `check`-interval round at a time.
///
/// The plan's deadline is checked between evolutions (one pattern replay,
/// member run or live shot); on expiry the whole run returns [`TimedOut`]
/// before the aggregation phase, which requires complete shot coverage.
pub(crate) fn run_dedup(
    engine: &ShotEngine,
    plan: &ExecPlan<'_>,
    threads: usize,
    inline: Option<&mut ExecContext>,
) -> Result<StochasticOutcome, TimedOut> {
    let (shots, deadline) = (plan.shots, &plan.deadline);
    let observables = &engine.map_observables(plan.observables)[..];
    // Phase 1 + 2: presample every shot, group by pattern.
    let presample_started = Instant::now();
    let presample_span = trace::span("presample");
    let absorbing = engine.absorbing(observables);
    let (work, uniforms, absorbed) =
        plan_range(&engine.dedup, 0..shots as u64, engine.seed(), absorbing);
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
    let queue = Mutex::new(work.into_iter());
    let execute_started = Instant::now();
    let lanes = run_lanes(threads, inline, ExecContext::new, |worker, ctx| {
        let _span = trace::span("worker_trajectories");
        trace::attr("worker", worker);
        let dd_before = trace_dd_stats(|| ctx.dd_table_stats());
        let mut share = DedupPartial::default();
        let (mut items, mut counted) = (0usize, 0u64);
        // The guard is a temporary of the closure body: items run unlocked.
        let claim = std::iter::from_fn(|| queue.lock().expect("claiming cannot panic").next());
        let claimed =
            claim.inspect(|item| (items, counted) = (items + 1, counted + u64::from(item.counted)));
        engine.run_items_in(ctx, claimed, observables, deadline, &mut share)?;
        let stats = share.stats;
        trace::attr("items", items);
        trace::attr("evolutions", stats.unique_trajectories);
        trace::attr("live_shots", stats.live_shots);
        trace::attr("absorbed", share.absorbed);
        // Every evolution but the work items' own is a child bucket.
        trace::attr("forks", stats.unique_trajectories - counted);
        trace_dd_totals(dd_before, || ctx.dd_table_stats());
        Ok(share)
    });
    let execute_time = execute_started.elapsed();
    // A timed-out run must bail here: the aggregation expects every shot
    // to be covered, and partial aggregates are never exposed.
    let lanes = lanes.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Phase 4: merge. Integer-only aggregates merge directly; observable
    // runs replay the strided per-worker summation order first.
    let aggregate_started = Instant::now();
    let aggregate_span = trace::span("aggregate");
    let mut job = DedupPartial::default();
    for share in lanes {
        job.merge(share);
    }
    let mut outcome = job.into_outcome(shots, threads);
    drop(aggregate_span);
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

    /// The support of a program whose prefix holds `sites`.
    fn support(sites: Vec<SiteChannel>, full: bool) -> DedupSupport {
        let plan = PresamplePlan::new(sites);
        DedupSupport { plan, full }
    }

    #[test]
    fn plan_range_groups_identical_patterns() {
        // One certain phase flip site: every shot draws the same pattern.
        let certain = SiteChannel::Passive(ErrorChannel::new(ErrorKind::PhaseFlip, 1.0));
        let (work, uniforms, _) = plan_range(&support(vec![certain], true), 0..100, 7, &[]);
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
        let (work, ..) = plan_range(&support(vec![decaying], false), 0..10, 7, &[]);
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
    fn plan_range_releases_prefix_groups_in_member_runs() {
        // No site: every shot draws the empty pattern.
        let (runs, ..) = plan_range(&support(Vec::new(), false), 0..100, 7, &[]);
        let sizes: Vec<usize> = runs.iter().map(TrajectoryWork::shots).collect();
        assert_eq!(sizes, [32, 32, 32, 4]);
        let counted: Vec<bool> = runs.iter().map(|run| run.counted).collect();
        assert_eq!(counted, [true, false, false, false], "the first run counts");
        let shots = runs
            .iter()
            .flat_map(|run| &run.members)
            .map(|(shot, ..)| *shot);
        assert!(shots.eq(0..100), "runs keep the shot order");
        // Members that only sample the shared final state stay together.
        let (whole, ..) = plan_range(&support(Vec::new(), true), 0..100, 7, &[]);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].shots(), 100);
    }

    #[test]
    fn a_group_in_member_runs_counts_once() {
        use crate::dd_backend::DdSimulator;
        use qsdd_circuit::Circuit;
        use qsdd_noise::NoiseModel;
        let mut circuit = Circuit::new(3);
        circuit
            .h(0)
            .cx(0, 1)
            .measure(0, 0)
            .x(1)
            .cx(1, 2)
            .measure_all();
        let backend = DdSimulator::new();
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        let support = program.dedup_support();
        assert!(!support.full);
        let (runs, ..) = plan_range(&support, 0..200, 7, &[]);
        // The same items with every group whole again.
        let mut whole: Vec<TrajectoryWork> = Vec::new();
        for run in plan_range(&support, 0..200, 7, &[]).0 {
            match whole.iter_mut().find(|item| item.pattern == run.pattern) {
                Some(item) => item.members.extend(run.members),
                None => whole.push(run),
            }
        }
        assert!(whole.len() < runs.len(), "a group spans several runs");
        let execute = |work: Vec<TrajectoryWork>| {
            let (mut records, unbounded) = (Vec::new(), Deadline::unbounded());
            let mut sink = |shot, sample, _: &[f64]| records.push((shot, sample));
            let mut out = Evolutions::new(&support, &[], 7, &unbounded, &mut sink);
            let mut ctx = backend.new_context();
            for item in work {
                run_work(&backend, &program, &mut ctx, item, &mut out).unwrap();
            }
            let stats = out.stats;
            records.sort_by_key(|&(shot, _)| shot);
            (stats, records)
        };
        let (split, unsplit) = (execute(runs), execute(whole));
        assert_eq!(split, unsplit);
        assert!(split.0.unique_trajectories < 200, "{:?}", split.0);
    }

    #[test]
    fn dedup_stats_default_to_zero() {
        let stats = DedupStats::default();
        assert_eq!(stats.unique_trajectories, 0);
        assert_eq!(stats.serving, 0);
        assert_eq!(stats.live_shots, 0);
    }
}
