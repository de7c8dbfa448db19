//! `batch_suite`: the Table-Ic-style job mix through `qsdd_cli batch`.
//!
//! End to end, one operation is one process: spawn to exit, with the report
//! parsed back outside the timed region. The traced run walks the same
//! suite in process — job-file parse, QASM parse, transpile, compile,
//! `run_batch`, report JSON — with a span around each call.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qsdd_batch::{jobfile, run_batch, BatchOptions, BatchReport, JobSpec};
use qsdd_circuit::generators::ghz;
use qsdd_circuit::{qasm, Circuit};
use qsdd_core::{
    BackendKind, DdSimulator, OptLevel, ShotEngine, Stage, StochasticBackend, StochasticSimulator,
    WeightedOptions,
};
use qsdd_noise::PatternEnumerator;
use qsdd_transpile::transpile;

use crate::report::{calibrate_in_child, Report};
use crate::serve::json_throughput;
use crate::stats;
use crate::trace::{span_cost_ns, Recorder, Trace, PROBE_LANE};
use crate::workloads::{self, batch_suite, SuiteJob, SWEEP_JOBS, THREADS, WEIGHTED_JOB};
use crate::Args;

const SETUP_REPEATS: usize = 5;
/// Named jobs ahead of the sweep.
const NAMED_JOBS: usize = 8;
/// The weighted job must enumerate at least this much probability mass.
const MIN_COVERED_MASS: f64 = 0.9;
/// How often the watcher reads the child's `VmHWM`.
const RSS_POLL: Duration = Duration::from_millis(5);

/// Writes the suite — one QASM file per job plus `suite.jobs` — and
/// `warmup.jobs` with the sweep jobs alone, and returns the job-file text.
fn write_suite(dir: &Path, jobs: &[SuiteJob]) -> String {
    std::fs::create_dir_all(dir).expect("the suite directory can be created");
    let mut text = String::new();
    let mut warmup = String::new();
    for (index, job) in jobs.iter().enumerate() {
        let stanza_start = text.len();
        let source = match (qasm::write_source(&job.circuit), job.generator) {
            (Ok(source), _) => {
                let file = format!("{}.qasm", job.name);
                std::fs::write(dir.join(&file), source).expect("the QASM file can be written");
                format!("qasm {file}")
            }
            (Err(_), Some(generator)) => generator.to_string(),
            (Err(error), None) => panic!("suite job {}: {error}", job.name),
        };
        text.push_str(&format!("[job {}]\ncircuit = {source}\n", job.name));
        for key in &job.keys {
            text.push_str(key);
            text.push('\n');
        }
        text.push('\n');
        if index >= NAMED_JOBS {
            warmup.push_str(&text[stanza_start..]);
        }
    }
    std::fs::write(dir.join("suite.jobs"), &text).expect("the job file can be written");
    std::fs::write(dir.join("warmup.jobs"), warmup).expect("the warm-up job file can be written");
    text
}

/// Runs `qsdd_cli batch <jobfile> --threads 2 --out <out>` and returns its
/// wall time (spawn to exit), peak resident set and whether it exited 0.
fn invoke(cli: &Path, dir: &Path, jobfile: &str, out: &str) -> (f64, f64, bool) {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .current_dir(dir)
        .args([
            "batch",
            jobfile,
            "--threads",
            &THREADS.to_string(),
            "--out",
            out,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("qsdd_cli batch spawns");
    // `VmHWM` only exists while the process does, so a watcher keeps the
    // last value it saw; the main thread blocks in `wait` and times the
    // exit itself.
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let (status, wall_s, peak_mb) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::SeqCst) {
                if let Some(now) = stats::vm_hwm_mb(pid) {
                    peak = peak.max(now);
                }
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait().expect("the batch child can be waited for");
        let wall_s = started.elapsed().as_secs_f64();
        exited.store(true, Ordering::SeqCst);
        (
            status,
            wall_s,
            watcher.join().expect("the watcher does not panic"),
        )
    });
    (wall_s, peak_mb, status.success())
}

/// The per-operation output check: the report parses back, every job
/// completed with counts that sum to its executed shots, and the weighted
/// job covered enough mass.
fn report_is_correct(path: &Path, expected_jobs: usize) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let Ok(report) = BatchReport::from_json(&text) else {
        return false;
    };
    report.jobs.len() == expected_jobs
        && report.all_completed()
        && report.jobs.iter().all(|job| {
            job.counts.values().sum::<u64>() == job.shots_executed
                && job.shots_executed <= job.shots_requested
                && (job.early_stopped || job.shots_executed == job.shots_requested)
        })
        && report
            .jobs
            .iter()
            .any(|job| job.name == WEIGHTED_JOB && job.covered_mass >= MIN_COVERED_MASS)
}

fn suite_dir(args: &Args) -> PathBuf {
    args.work_dir.join("suite")
}

/// The end-to-end run.
pub fn run_end_to_end(args: &Args) -> Report {
    let mut report = Report::new(calibrate_in_child());
    let dir = suite_dir(args);
    let mut setups = Vec::new();
    let mut jobs = 0;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        let suite = batch_suite(args.seed);
        jobs = suite.len();
        write_suite(&dir, &suite);
        let (_, _, ok) = invoke(&args.cli, &dir, "warmup.jobs", "warmup.json");
        setups.push(started.elapsed().as_secs_f64());
        report.check(
            "warm-up invocation exits 0",
            ok && report_parses(&dir.join("warmup.json")),
        );
    }

    let mut walls_ms = Vec::new();
    let mut peak_rss = 0.0f64;
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds || walls_ms.len() < 3 {
        let out = format!("report-{}.json", walls_ms.len());
        let (wall_s, peak_mb, ok) = invoke(&args.cli, &dir, "suite.jobs", &out);
        walls_ms.push(wall_s * 1e3);
        peak_rss = peak_rss.max(peak_mb);
        report.operation(ok && report_is_correct(&dir.join(out), jobs));
    }
    report.calibration_ms.1 = calibrate_in_child();

    let ops = walls_ms.len();
    let busy_s = walls_ms.iter().sum::<f64>() / 1e3;
    println!("{ops} invocations of a {jobs}-job suite on {THREADS} threads");
    report.set_end_to_end(&walls_ms, busy_s, peak_rss, &setups);
    report
}

fn report_parses(path: &Path) -> bool {
    std::fs::read_to_string(path).is_ok_and(|text| BatchReport::from_json(&text).is_ok())
}

fn gate_count(circuit: &Circuit) -> usize {
    circuit.stats().gate_count
}

/// Median over `repeats` of `work`'s duration in microseconds.
fn median_us<T>(repeats: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(work());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// The traced run.
pub fn run_traced(args: &Args) -> (Report, Trace) {
    let mut report = Report::new(calibrate_in_child());
    let dir = suite_dir(args);
    let _ = std::fs::remove_dir_all(&dir);
    let suite = batch_suite(args.seed);
    let epoch = Instant::now();
    let mut probes = Recorder::new(true, PROBE_LANE, epoch);

    // circuit: emit and re-read every suite file.
    let sources: Vec<Option<String>> = suite
        .iter()
        .map(|job| {
            probes.leaf("circuit", "qasm_write", || {
                qasm::write_source(&job.circuit).ok()
            })
        })
        .collect();
    let written_gates: usize = suite
        .iter()
        .zip(&sources)
        .filter(|(_, source)| source.is_some())
        .map(|(job, _)| gate_count(&job.circuit))
        .sum();
    let write_ns: f64 = probes.durations_ns("qasm_write").iter().sum();
    report.set(
        "circuit.qasm_write_us_per_gate",
        write_ns / 1e3 / written_gates as f64,
        written_gates,
    );
    let text = write_suite(&dir, &suite);

    // The operation, walked from the outside in on one lane.
    let mut lane = Recorder::new(true, 1, epoch);
    let op = lane.open("bench", "op");
    let specs: Vec<JobSpec> = lane
        .leaf("batch", "jobfile_parse", || {
            jobfile::parse_str(&text, Some(&dir))
        })
        .expect("the suite job file parses");
    report.check("job file names every suite job", specs.len() == suite.len());
    let (mut gates_before, mut gates_after) = (0, 0);
    for (spec, source) in specs.iter().zip(&sources) {
        let circuit = match source {
            Some(source) => lane
                .leaf("circuit", "qasm_parse", || qasm::parse_source(source))
                .expect("emitted QASM parses back"),
            None => spec.load_circuit().expect("generator jobs load"),
        };
        let transpiled = if spec.opt == OptLevel::O0 {
            transpile(&circuit, OptLevel::O0)
        } else {
            let result = lane.leaf("transpile", "transpile", || transpile(&circuit, spec.opt));
            if spec.opt == OptLevel::O2 {
                gates_before += gate_count(&circuit);
                gates_after += gate_count(&result.circuit);
            }
            result
        };
        std::hint::black_box(lane.leaf("core", "compile", || {
            ShotEngine::from_transpiled(&transpiled, spec.backend, spec.noise, spec.seed)
        }));
    }
    let batch = lane.leaf("batch", "run_batch", || {
        run_batch(&specs, &BatchOptions::with_threads(THREADS))
    });
    let rendered = lane.leaf("batch", "report_json", || batch.to_json());
    let parsed = lane.leaf("json", "parse", || qsdd_json::parse(&rendered));
    let op_ns = lane.close(op);
    report.check(
        "in-process report round-trips",
        parsed.is_ok() && batch.all_completed(),
    );

    let parse_ns: f64 = lane.durations_ns("qasm_parse").iter().sum();
    report.set(
        "circuit.qasm_parse_us_per_gate",
        parse_ns / 1e3 / written_gates as f64,
        written_gates,
    );
    let o2_ns: f64 = lane.durations_ns("transpile").iter().sum();
    report.set(
        "transpile.o2_us_per_gate",
        o2_ns / 1e3 / gates_before as f64,
        gates_before,
    );
    report.set(
        "transpile.gates_kept_share",
        gates_after as f64 / gates_before as f64,
        gates_before,
    );
    let compile_ns: f64 = lane.durations_ns("compile").iter().sum();
    report.set("core.compile_ms", compile_ns / 1e6, specs.len());
    let run_batch_s = lane.durations_ns("run_batch")[0] / 1e9;
    report.set("batch.run_batch_s", run_batch_s, 1);
    report.set(
        "batch.report_json_us",
        lane.durations_ns("report_json")[0] / 1e3,
        1,
    );
    report.set(
        "batch.jobfile_parse_us",
        median_us(20, || jobfile::parse_str(&text, Some(&dir))),
        20,
    );

    // Reported by the program: executed shots and stage times per job.
    if let Some(early) = batch.jobs.iter().find(|job| job.early_stopped) {
        report.set(
            "batch.early_stop_shot_share",
            early.shots_executed as f64 / early.shots_requested as f64,
            1,
        );
    }
    let (mut frontend, mut total) = (0.0, 0.0);
    for job in &batch.jobs {
        for stage in [Stage::Parse, Stage::Transpile, Stage::Compile] {
            frontend += job.stage_timings.get(stage).as_secs_f64();
        }
        total += job.stage_timings.total().as_secs_f64();
    }
    report.set(
        "batch.frontend_stage_share",
        frontend / total,
        batch.jobs.len(),
    );
    report.set(
        "dd.peak_nodes",
        batch
            .jobs
            .iter()
            .map(|job| job.dd_nodes_peak)
            .max()
            .unwrap_or(0) as f64,
        batch.jobs.len(),
    );

    // What interleaving buys: every job alone on the same two threads
    // against the one shared pool.
    let solo_s: f64 = specs
        .iter()
        .map(|spec| {
            let started = Instant::now();
            let solo = run_batch(
                std::slice::from_ref(spec),
                &BatchOptions::with_threads(THREADS),
            );
            std::hint::black_box(solo.jobs.len());
            started.elapsed().as_secs_f64()
        })
        .sum();
    report.set("batch.interleave_gain", solo_s / run_batch_s, specs.len());

    // The drivers only this workload uses, through the library.
    let dense = StochasticSimulator::new()
        .with_backend(BackendKind::Statevector)
        .with_shots(300)
        .with_threads(THREADS)
        .with_seed(args.seed)
        .run(&ghz(14));
    report.set(
        "core.dense_ms_per_shot",
        dense.wall_time.as_secs_f64() * 1e3 / 300.0,
        300,
    );
    let weighted = StochasticSimulator::new()
        .with_weighted(WeightedOptions::default())
        .with_shots(30_000)
        .with_threads(THREADS)
        .with_seed(args.seed)
        .run(&ghz(16));
    report.set(
        "core.weighted_ms",
        weighted.wall_time.as_secs_f64() * 1e3,
        1,
    );
    report.set(
        "core.weighted_covered_mass",
        weighted
            .weighted
            .as_ref()
            .map_or(0.0, |stats| stats.covered_mass),
        1,
    );

    // noise: best-first enumeration over the weighted job's presample plan.
    let backend = DdSimulator::new();
    let program = backend.compile(&ghz(16), &workloads::noise());
    let support = backend
        .dedup_support(&program)
        .expect("GHZ-16 supports trajectory deduplication");
    let defaults = WeightedOptions::default();
    let mut patterns = 0u64;
    let enumerate_us = median_us(10, || {
        let enumerator = PatternEnumerator::new(&support.plan)
            .with_mass_cutoff(defaults.mass_cutoff)
            .with_max_patterns(defaults.max_patterns);
        patterns = enumerator.count() as u64;
    });
    report.set(
        "noise.enumerate_us_per_pattern",
        enumerate_us / patterns.max(1) as f64,
        patterns as usize,
    );

    // cli: the floor under every process operation.
    let spawn_ms = median_us(10, || {
        Command::new(&args.cli)
            .args(["generate", "ghz", "2", "--shots", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("qsdd_cli spawns")
            .success()
    }) / 1e3;
    report.set("cli.spawn_ms", spawn_ms, 10);

    let (parse, write) = json_throughput(&mut probes, &rendered);
    report.set("json.parse_mb_per_s", parse, rendered.len());
    report.set("json.write_mb_per_s", write, rendered.len());
    report.calibration_ms.1 = calibrate_in_child();

    let spans = lane.len();
    let trace = Trace::from_recorders(vec![probes, lane]);
    report.set_self_times(&trace, 1);
    report.set(
        "trace.overhead_share",
        spans as f64 * span_cost_ns() / op_ns as f64,
        spans,
    );
    println!("suite: {NAMED_JOBS} named + {SWEEP_JOBS} sweep jobs");
    (report, trace)
}
