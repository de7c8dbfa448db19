//! The three library workloads: whole jobs through `StochasticSimulator`.
//!
//! End to end, one operation is one `run` call. The traced run replays the
//! same job from the outside in — compile, presample, group, replay, live
//! shots — through the public `ShotEngine` functions, with a span around
//! each call.

use std::collections::HashMap;
use std::time::Instant;

use qsdd_circuit::{Circuit, Operation};
use qsdd_core::{BackendKind, OptLevel, ShotEngine, StochasticOutcome, StochasticSimulator};
use qsdd_noise::ErrorPattern;
use rand::rngs::StdRng;

use crate::report::{calibrate_in_child, Report};
use crate::stats::{self, SplitMix};
use crate::trace::{Recorder, Trace, PROBE_LANE};
use crate::workloads::{self, LibrarySpec, THREADS};
use crate::{dd_probe, Args};

/// How often the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// The warm-up job runs this fraction of the workload's shots: large enough that set-up time is not one trajectory's
/// luck, small enough to repeat.
const WARMUP_DIVISOR: usize = 5;
/// The thread-identity check runs this fraction of the workload's shots,
/// once per thread count.
const IDENTITY_DIVISOR: usize = 10;
/// Shots of the oracle-checked twin.
const TWIN_SHOTS: usize = 20_000;
/// Largest total-variation distance from the exact density oracle.
const TWIN_TVD_LIMIT: f64 = 0.03;
/// The traced run replays one job four times (traced and untraced on one
/// thread, then through the library at 1 and 2 threads); this caps its
/// shots so the run stays short.
const TRACE_SHOTS_CAP: usize = 10_000;

fn simulator(shots: usize, threads: usize, seed: u64) -> StochasticSimulator {
    StochasticSimulator::new()
        .with_shots(shots)
        .with_threads(threads)
        .with_seed(seed)
        .with_noise(workloads::noise())
}

fn counts_sum(outcome: &StochasticOutcome) -> u64 {
    outcome.counts.values().sum()
}

/// The exact outcome distribution of a twin circuit, keyed like the
/// simulator's histogram: the basis index for measurement-free circuits,
/// the packed classical register (bit 0 most significant) for circuits
/// whose measurements all sit at the end.
fn oracle_distribution(circuit: &Circuit) -> HashMap<u64, f64> {
    let populations = qsdd_density::outcome_distribution(circuit, &workloads::noise());
    let n = circuit.num_qubits();
    let measures: Vec<(usize, usize)> = circuit
        .iter()
        .filter_map(|op| match op {
            Operation::Measure { qubit, clbit } => Some((*qubit, *clbit)),
            _ => None,
        })
        .collect();
    let mut distribution = HashMap::new();
    for (index, probability) in populations.into_iter().enumerate() {
        let outcome = if measures.is_empty() {
            index as u64
        } else {
            let clbits = circuit.num_clbits();
            measures.iter().fold(0u64, |packed, &(qubit, clbit)| {
                let bit = (index >> (n - 1 - qubit)) & 1;
                packed | ((bit as u64) << (clbits - 1 - clbit))
            })
        };
        *distribution.entry(outcome).or_insert(0.0) += probability;
    }
    distribution
}

fn total_variation(outcome: &StochasticOutcome, exact: &HashMap<u64, f64>) -> f64 {
    let keys: std::collections::HashSet<u64> =
        outcome.counts.keys().chain(exact.keys()).copied().collect();
    keys.into_iter()
        .map(|key| (outcome.frequency(key) - exact.get(&key).copied().unwrap_or(0.0)).abs())
        .sum::<f64>()
        / 2.0
}

/// The output checks run once per invocation, before timing.
fn output_checks(spec: &LibrarySpec, circuit: &Circuit, seeds: &mut SplitMix, report: &mut Report) {
    let twin = (spec.twin)();
    let sampled = simulator(TWIN_SHOTS, THREADS, seeds.next_seed()).run(&twin);
    let distance = total_variation(&sampled, &oracle_distribution(&twin));
    println!(
        "twin {}: total variation {distance:.4} from the density oracle over {TWIN_SHOTS} shots",
        twin.name()
    );
    report.check(
        format!(
            "twin {} within {TWIN_TVD_LIMIT} of the density oracle",
            twin.name()
        ),
        counts_sum(&sampled) == TWIN_SHOTS as u64 && distance <= TWIN_TVD_LIMIT,
    );
    let seed = seeds.next_seed();
    let shots = spec.shots / IDENTITY_DIVISOR;
    let one = simulator(shots, 1, seed).run(circuit);
    let two = simulator(shots, THREADS, seed).run(circuit);
    report.check(
        "identical histogram at 1 and 2 threads",
        one.counts == two.counts && one.error_events == two.error_events,
    );
}

/// The end-to-end run: tracing off, whole jobs, one after the other.
pub fn run_end_to_end(spec: &LibrarySpec, args: &Args) -> Report {
    let mut report = Report::new(calibrate_in_child());
    let mut seeds = SplitMix::new(args.seed, 0x11B);

    let circuit = (spec.circuit)();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let circuit = (spec.circuit)();
        let shots = spec.shots / WARMUP_DIVISOR;
        let warm = simulator(shots, THREADS, seeds.next_seed()).run(&circuit);
        setups.push(started.elapsed().as_secs_f64());
        report.check(
            "warm-up counts sum to its shots",
            counts_sum(&warm) == shots as u64,
        );
    }
    output_checks(spec, &circuit, &mut seeds, &mut report);

    let mut walls_ms = Vec::new();
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds || walls_ms.len() < 3 {
        let job = simulator(spec.shots, THREADS, seeds.next_seed());
        let started = Instant::now();
        let outcome = job.run(&circuit);
        walls_ms.push(started.elapsed().as_secs_f64() * 1e3);
        report.operation(counts_sum(&outcome) == spec.shots as u64 && outcome.shots == spec.shots);
    }
    let peak_rss = stats::vm_hwm_mb(std::process::id()).unwrap_or(0.0);
    report.calibration_ms.1 = calibrate_in_child();

    let ops = walls_ms.len();
    let busy_s = walls_ms.iter().sum::<f64>() / 1e3;
    println!(
        "{ops} jobs of {} shots on {THREADS} threads: {:.1} shots/s; job walls in ms: {:.0?}",
        spec.shots,
        (ops * spec.shots) as f64 / busy_s,
        walls_ms
    );
    report.set_end_to_end(&walls_ms, busy_s, peak_rss, &setups);
    report
}

/// What one outside-in replay of a job found.
struct Replay {
    wall_ms: f64,
    counts: HashMap<u64, u64>,
    groups: usize,
    live: usize,
}

/// Replays one job through the public `ShotEngine` functions on one
/// thread, with a span around every call into a layer.
fn replay_job(recorder: &mut Recorder, circuit: &Circuit, shots: usize, seed: u64) -> Replay {
    let started = Instant::now();
    let root = recorder.open("bench", "op");
    let engine = recorder.leaf("core", "compile", || {
        ShotEngine::new(
            circuit,
            BackendKind::DecisionDiagram,
            workloads::noise(),
            seed,
            OptLevel::O0,
        )
    });
    let mut ctx = engine.new_context();

    let presampled: Vec<Option<(ErrorPattern, StdRng)>> =
        recorder.leaf("noise", "presample", || {
            (0..shots as u64)
                .map(|shot| engine.presample_shot(shot))
                .collect()
        });

    // Grouping is the benchmark's own glue: a map from pattern to slot, in
    // first-appearance order like the library's drivers.
    let group_span = recorder.open("bench", "group");
    let mut slots: HashMap<ErrorPattern, usize> = HashMap::new();
    let mut groups: Vec<(ErrorPattern, Vec<(u64, StdRng)>)> = Vec::new();
    let mut live = Vec::new();
    for (shot, presampled) in presampled.into_iter().enumerate() {
        match presampled {
            Some((pattern, rng)) => {
                let slot = *slots.entry(pattern.clone()).or_insert_with(|| {
                    groups.push((pattern, Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push((shot as u64, rng));
            }
            None => live.push(shot as u64),
        }
    }
    recorder.close(group_span);

    let mut counts: HashMap<u64, u64> = HashMap::new();
    for (pattern, members) in &mut groups {
        let samples = recorder.leaf("core", "replay_group", || {
            engine.run_group_in(&mut ctx, pattern, members, &[])
        });
        for (_, sample, _) in samples {
            *counts.entry(sample.outcome).or_insert(0) += 1;
        }
    }
    for &shot in &live {
        let sample = recorder.leaf("core", "live_shot", || engine.run_shot_in(&mut ctx, shot));
        *counts.entry(sample.outcome).or_insert(0) += 1;
    }
    recorder.close(root);
    Replay {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        counts,
        groups: groups.len(),
        live: live.len(),
    }
}

/// The traced run: per-layer numbers of this workload.
pub fn run_traced(spec: &LibrarySpec, args: &Args) -> (Report, Trace) {
    let mut report = Report::new(calibrate_in_child());
    let mut seeds = SplitMix::new(args.seed, 0x7ACE);
    let circuit = (spec.circuit)();
    let shots = spec.shots.min(TRACE_SHOTS_CAP);
    let seed = seeds.next_seed();
    let epoch = Instant::now();

    // The same job traced and untraced: the difference is the tracing
    // overhead.
    let mut recorder = Recorder::new(true, 1, epoch);
    let traced = replay_job(&mut recorder, &circuit, shots, seed);
    let untraced = replay_job(&mut Recorder::new(false, 1, epoch), &circuit, shots, seed);
    report.check(
        "traced and untraced replays agree",
        traced.counts == untraced.counts,
    );
    report.set(
        "trace.overhead_share",
        (traced.wall_ms - untraced.wall_ms) / untraced.wall_ms,
        1,
    );

    // The library at one and at two threads on the same job: the replay
    // above must reproduce its histogram, and the pair gives the scaling.
    let one = simulator(shots, 1, seed).run(&circuit);
    let two = simulator(shots, THREADS, seed).run(&circuit);
    report.check(
        "outside-in replay reproduces the library's histogram",
        traced.counts == two.counts && one.counts == two.counts,
    );
    report.set(
        "core.scaling_2t",
        one.wall_time.as_secs_f64() / (THREADS as f64 * two.wall_time.as_secs_f64()),
        1,
    );
    report.set("dd.peak_nodes", two.dd_nodes_peak as f64, 1);

    let unique = traced.groups + traced.live;
    report.set(
        "core.compile_ms",
        stats::median(&recorder.durations_ns("compile")) / 1e6,
        1,
    );
    report.set(
        "noise.presample_ns_per_shot",
        recorder.durations_ns("presample").iter().sum::<f64>() / shots as f64,
        shots,
    );
    let replays = recorder.durations_ns("replay_group");
    report.set(
        "core.replay_us_per_trajectory",
        replays.iter().sum::<f64>() / 1e3 / replays.len().max(1) as f64,
        replays.len(),
    );
    let lives = recorder.durations_ns("live_shot");
    if !lives.is_empty() {
        report.set(
            "core.live_us_per_shot",
            lives.iter().sum::<f64>() / 1e3 / lives.len() as f64,
            lives.len(),
        );
    }
    report.set(
        "core.unique_trajectory_share",
        unique as f64 / shots as f64,
        shots,
    );
    report.set("core.live_share", traced.live as f64 / shots as f64, shots);

    let mut probes = Recorder::new(true, PROBE_LANE, epoch);
    dd_probe::run(&circuit, &mut probes, &mut report);

    report.calibration_ms.1 = calibrate_in_child();
    let trace = Trace::from_recorders(vec![probes, recorder]);
    report.set_self_times(&trace, 1);
    (report, trace)
}
