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
//!    forms one *trajectory group*. Shots whose decisions depend on the
//!    state (a damping decay, or any error with a state-dependent exposure
//!    still ahead) fall out as *live* shots.
//! 3. **Replay** — one representative per group executes the pattern
//!    through the back-end ([`StochasticBackend::run_pattern`]); the result
//!    fans out over the group: every member samples its own measurement
//!    outcome from the shared final state with its own (correctly
//!    positioned) generator, observable values are evaluated once, and
//!    multiplicity-weighted aggregation reproduces the per-shot totals.
//!    Live shots run through the ordinary [`StochasticBackend::run_shot`]
//!    path unchanged.
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
//! state — and the context it lives in — is bit-identical), and the final
//! aggregation replays the per-worker strided summation order of the
//! non-deduplicated runner.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qsdd_statevector::IntraPool;

use qsdd_noise::{ErrorPattern, PresamplePlan, Presampled};
use qsdd_telemetry::trace;
use rand::rngs::StdRng;

use crate::backend::StochasticBackend;
use crate::deadline::{Deadline, TimedOut};
use crate::estimator::Observable;
use crate::fxhash::FxHashMap;
use crate::shot_engine::ShotSample;
use crate::stochastic::{merge_partials, shot_rng, StochasticOutcome, WorkerPartial};

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
    /// Number of trajectories actually simulated: distinct pattern groups
    /// plus live shots (each live shot is its own trajectory).
    pub unique_trajectories: u64,
    /// Shots that could not be presampled and executed live.
    pub live_shots: u64,
}

/// One unit of deduplicated work.
enum Work {
    /// A trajectory group: the shared pattern plus every member shot with
    /// its post-presample generator.
    Group {
        pattern: ErrorPattern,
        shots: Vec<(u64, StdRng)>,
    },
    /// A shot that must execute live (freshly derived generator).
    Live(u64),
}

/// What one presampling worker collected over its contiguous shot range.
#[derive(Default)]
struct WorkerGroups {
    /// Pattern → slot into `groups`, fast-hashed (trusted tiny keys).
    index: FxHashMap<ErrorPattern, usize>,
    /// Groups in first-appearance order; members in shot order.
    groups: Vec<(ErrorPattern, Vec<(u64, StdRng)>)>,
    live: Vec<u64>,
}

/// Presamples and groups one contiguous shot range sequentially.
///
/// Shared by the batch scheduler (which releases one round at a time, so
/// its memory stays bounded by the round size) and the parallel
/// [`plan_shots`] below. Returns the groups in first-appearance order with
/// members in shot order, plus the live shots in index order.
pub(crate) type ShotGroups = (Vec<(ErrorPattern, Vec<(u64, StdRng)>)>, Vec<u64>);

pub(crate) fn group_range(
    plan: &PresamplePlan,
    range: std::ops::Range<u64>,
    seed: u64,
) -> ShotGroups {
    let mut groups = WorkerGroups::default();
    groups.presample_range(plan, range, seed);
    (groups.groups, groups.live)
}

impl WorkerGroups {
    #[inline]
    fn presample_range(&mut self, plan: &PresamplePlan, range: std::ops::Range<u64>, seed: u64) {
        for shot in range {
            let mut rng = shot_rng(seed, shot);
            match plan.presample(&mut rng) {
                Presampled::Pattern(pattern) => {
                    // The generator is kept: it sits exactly where live
                    // execution would after the covered exposures.
                    let at = *self.index.entry(pattern.clone()).or_insert_with(|| {
                        self.groups.push((pattern, Vec::new()));
                        self.groups.len() - 1
                    });
                    self.groups[at].1.push((shot, rng));
                }
                Presampled::Live => self.live.push(shot),
            }
        }
    }
}

/// Presamples shots `0..shots` in parallel and groups them by pattern.
///
/// Each worker presamples and groups one contiguous shot range; the ranges
/// are merged in worker order, which (ranges being ascending) yields groups
/// in global first-appearance order with members in shot order — the same
/// plan a sequential pass would build. Returns the work list (groups first,
/// then live shots in index order) and the live-shot count.
fn plan_shots(plan: &PresamplePlan, shots: usize, threads: usize, seed: u64) -> (Vec<Work>, u64) {
    let chunk = shots.div_ceil(threads).max(1) as u64;
    let mut workers: Vec<WorkerGroups> = Vec::new();
    if threads <= 1 {
        let mut only = WorkerGroups::default();
        only.presample_range(plan, 0..shots as u64, seed);
        workers.push(only);
    } else {
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
    }

    let mut index: HashMap<ErrorPattern, usize> = HashMap::new();
    let mut groups: Vec<Work> = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    for worker in workers {
        for (pattern, members) in worker.groups {
            let at = *index.entry(pattern.clone()).or_insert_with(|| {
                groups.push(Work::Group {
                    pattern,
                    shots: Vec::new(),
                });
                groups.len() - 1
            });
            let Work::Group { shots, .. } = &mut groups[at] else {
                unreachable!("group indices only point at groups")
            };
            shots.extend(members);
        }
        live.extend(worker.live);
    }
    let live_count = live.len() as u64;
    groups.extend(live.into_iter().map(Work::Live));
    (groups, live_count)
}

/// Executes one trajectory group, feeding one record per member shot into
/// `sink` (shot index, sample, observable values).
///
/// The representative pattern run happens in `pattern_ctx`; for prefix
/// deduplication each member resumes live in `work_ctx` from a clone of the
/// checkpointed `pattern_ctx`. Observables must already be expressed over
/// the executed circuit's qubits; outcomes are reported in the executed
/// circuit's qubit order (callers restore transpiler layouts themselves).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_group<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    support: &DedupSupport,
    pattern_ctx: &mut B::Context,
    work_ctx: &mut B::Context,
    pattern: &ErrorPattern,
    shots: &mut [(u64, StdRng)],
    observables: &[Observable],
    mut sink: impl FnMut(u64, ShotSample, &[f64]),
) {
    let mut prefix = backend.run_pattern(program, pattern_ctx, pattern);
    if support.full {
        // The shared final state: the observable values are evaluated once,
        // then every member samples its own outcome from it (the
        // generators continue their streams exactly where live execution
        // would). Evaluation happens per group regardless of order — its
        // values and the sampled outcomes are both pure functions of the
        // shared state.
        let values: Vec<f64> = observables
            .iter()
            .map(|observable| backend.evaluate(program, pattern_ctx, &mut prefix, observable))
            .collect();
        let sample = ShotSample {
            outcome: 0,
            error_events: prefix.error_events as u64,
            dd_nodes: prefix.dd_nodes,
            dd_nodes_peak: prefix.dd_nodes_peak,
        };
        backend.sample_outcomes(program, pattern_ctx, &prefix, shots, |shot, outcome| {
            sink(shot, ShotSample { outcome, ..sample }, &values)
        });
    } else {
        // Prefix deduplication: every member resumes live from a clone of
        // the checkpointed context.
        for (shot, rng) in shots.iter_mut() {
            let mut run = backend.resume_pattern(program, pattern_ctx, &prefix, work_ctx, rng);
            let values: Vec<f64> = observables
                .iter()
                .map(|observable| backend.evaluate(program, work_ctx, &mut run, observable))
                .collect();
            sink(
                *shot,
                ShotSample {
                    outcome: run.outcome,
                    error_events: run.error_events as u64,
                    dd_nodes: run.dd_nodes,
                    dd_nodes_peak: run.dd_nodes_peak,
                },
                &values,
            );
        }
    }
}

/// The deduplicating Monte-Carlo driver: presample → group → replay.
///
/// `threads` must already be resolved (positive, capped at the shot count);
/// `observables` must already be mapped onto the executed circuit;
/// `output_layout`, when present, restores each outcome to the original
/// qubit order (the transpiler's elided-SWAP relabeling). The result is
/// byte-identical to the per-shot runner for the same seed and thread
/// count, including the bit patterns of the observable sums.
///
/// Memory: the driver holds one presampled generator per grouped shot
/// (tens of bytes each), so its transient footprint is `O(shots)` where
/// the per-shot runner's is `O(threads)`. For shot counts where that
/// matters, the batch scheduler provides the bounded alternative: it
/// presamples and executes one `check`-interval round at a time.
///
/// The `deadline` is checked between work items (one trajectory group or
/// one live shot); on expiry the whole run returns [`TimedOut`] before the
/// replay phase, which requires complete shot coverage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_dedup<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    support: &DedupSupport,
    shots: usize,
    threads: usize,
    seed: u64,
    observables: &[Observable],
    output_layout: Option<&[usize]>,
    intra: Option<&Arc<IntraPool>>,
    started: Instant,
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    // Phase 1 + 2: presample every shot, group by pattern.
    let presample_started = Instant::now();
    let presample_span = trace::span("presample");
    let (mut work, live_shots) = plan_shots(&support.plan, shots, threads, seed);
    trace::attr("shots", shots);
    trace::attr("groups", work.len().saturating_sub(live_shots as usize));
    trace::attr("live_shots", live_shots);
    drop(presample_span);
    let presample_time = presample_started.elapsed();
    let unique_trajectories = work.len() as u64;

    // Phase 3: execute each trajectory once, fanning results out per shot.
    // Work items are dealt round-robin; assignment does not influence any
    // result (every record is a deterministic function of the program and
    // the shot index alone).
    //
    // Without observables every aggregate is an integer merge
    // (order-independent), so workers fold their records straight into a
    // partial and phase 4 is a plain merge. With observables the
    // floating-point summation order matters: records are kept per shot
    // and phase 4 replays the strided per-worker order of the
    // non-deduplicated runner, so every bit of the sums matches it.
    enum Sink {
        Partial(WorkerPartial),
        Records(Vec<(u64, ShotSample, Vec<f64>)>),
    }
    let keep_records = !observables.is_empty();
    let mut worker_items: Vec<Vec<Work>> = (0..threads).map(|_| Vec::new()).collect();
    for (item, slot) in work.drain(..).zip((0..threads).cycle()) {
        worker_items[slot].push(item);
    }
    let mut sinks: Vec<Sink> = (0..threads)
        .map(|_| {
            if keep_records {
                Sink::Records(Vec::new())
            } else {
                Sink::Partial(WorkerPartial::new(0))
            }
        })
        .collect();
    let bounded = !deadline.is_unbounded();
    let aborted = AtomicBool::new(false);
    let execute_started = Instant::now();
    let trace_handle = trace::propagate();
    std::thread::scope(|scope| {
        for (worker, (items, sink)) in worker_items.into_iter().zip(sinks.iter_mut()).enumerate() {
            let aborted = &aborted;
            let trace_handle = trace_handle.clone();
            scope.spawn(move || {
                let _lane = trace_handle.as_ref().map(|h| h.install(worker as u32 + 1));
                let _span = trace::span("worker_trajectories");
                trace::attr("worker", worker);
                trace::attr("items", items.len());
                let mut pattern_ctx = backend.new_context();
                let mut work_ctx = backend.new_context();
                if let Some(pool) = intra {
                    backend.set_intra_pool(&mut pattern_ctx, Some(Arc::clone(pool)));
                    backend.set_intra_pool(&mut work_ctx, Some(Arc::clone(pool)));
                }
                let mut emit = |shot: u64, mut sample: ShotSample, values: &[f64]| {
                    if let Some(output_layout) = output_layout {
                        sample.outcome =
                            qsdd_transpile::layout::restore_outcome(sample.outcome, output_layout);
                    }
                    match sink {
                        Sink::Partial(partial) => partial.record(
                            sample.outcome,
                            sample.error_events,
                            sample.dd_nodes,
                            sample.dd_nodes_peak,
                            &[],
                        ),
                        Sink::Records(records) => records.push((shot, sample, values.to_vec())),
                    }
                };
                for item in items {
                    if bounded && deadline.expired() {
                        aborted.store(true, Ordering::Relaxed);
                        return;
                    }
                    match item {
                        Work::Group { pattern, mut shots } => {
                            let group_span = trace::span("trajectory_group");
                            trace::attr("members", shots.len());
                            execute_group(
                                backend,
                                program,
                                support,
                                &mut pattern_ctx,
                                &mut work_ctx,
                                &pattern,
                                &mut shots,
                                observables,
                                &mut emit,
                            );
                            drop(group_span);
                        }
                        Work::Live(shot) => {
                            // Presampling left this shot's stream partially
                            // consumed; live execution re-derives it.
                            let mut rng = shot_rng(seed, shot);
                            let mut run = backend.run_shot(program, &mut pattern_ctx, &mut rng);
                            let values: Vec<f64> = observables
                                .iter()
                                .map(|o| backend.evaluate(program, &mut pattern_ctx, &mut run, o))
                                .collect();
                            emit(
                                shot,
                                ShotSample {
                                    outcome: run.outcome,
                                    error_events: run.error_events as u64,
                                    dd_nodes: run.dd_nodes,
                                    dd_nodes_peak: run.dd_nodes_peak,
                                },
                                &values,
                            );
                        }
                    }
                }
            });
        }
    });

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
    let partials: Vec<Option<WorkerPartial>> = if keep_records {
        let mut records: Vec<Option<(ShotSample, Vec<f64>)>> = Vec::new();
        records.resize_with(shots, || None);
        for sink in sinks {
            let Sink::Records(list) = sink else {
                unreachable!("observable runs keep records")
            };
            for (shot, sample, values) in list {
                let slot = &mut records[shot as usize];
                debug_assert!(slot.is_none(), "shot {shot} recorded twice");
                *slot = Some((sample, values));
            }
        }
        (0..threads)
            .map(|worker| {
                let mut partial = WorkerPartial::new(observables.len());
                let mut shot = worker;
                while shot < shots {
                    let (sample, values) = records[shot]
                        .as_ref()
                        .expect("every shot is covered by exactly one work item");
                    partial.record(
                        sample.outcome,
                        sample.error_events,
                        sample.dd_nodes,
                        sample.dd_nodes_peak,
                        values,
                    );
                    shot += threads;
                }
                Some(partial)
            })
            .collect()
    } else {
        sinks
            .into_iter()
            .map(|sink| {
                let Sink::Partial(partial) = sink else {
                    unreachable!("observable-free runs aggregate in place")
                };
                Some(partial)
            })
            .collect()
    };
    let mut outcome = merge_partials(partials, shots, observables.len(), threads, started);
    drop(aggregate_span);
    outcome.dedup = Some(DedupStats {
        unique_trajectories,
        live_shots,
    });
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
        let (work, live) = plan_shots(&plan, 100, 4, 7);
        assert_eq!(live, 0);
        assert_eq!(work.len(), 1, "identical patterns must share one group");
        let Work::Group { pattern, shots } = &work[0] else {
            panic!("expected a group");
        };
        assert_eq!(pattern.error_events(), 1);
        assert_eq!(shots.len(), 100);
        // Members are recorded in shot order.
        assert!(shots.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn plan_shots_sends_decayed_shots_live() {
        let plan = PresamplePlan::new(vec![SiteChannel::Damping { p_decay: 1.0 }]);
        let (work, live) = plan_shots(&plan, 10, 2, 7);
        assert_eq!(live, 10);
        assert_eq!(work.len(), 10);
        assert!(work.iter().all(|w| matches!(w, Work::Live(_))));
    }

    #[test]
    fn dedup_stats_default_to_zero() {
        let stats = DedupStats::default();
        assert_eq!(stats.unique_trajectories, 0);
        assert_eq!(stats.live_shots, 0);
    }
}
