//! `qsdd_benchmark` — the repository benchmark.
//!
//! Five named workloads through the three user entry points
//! (`StochasticSimulator`, the `qsdd_cli` process, the HTTP API of a
//! `qsdd_cli serve` child). `--trace 0` measures the end-to-end metrics
//! with all tracing off; `--trace 1` produces the per-layer metrics by
//! timing calls into each layer's public functions from the benchmark's own
//! span recorder. See `README.md` next to this package.
//!
//! ```text
//! qsdd_benchmark --cli <qsdd_cli> --work-dir <dir>
//!                [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Without `--workload` every workload runs in a fresh child of this
//! executable, one after the other.

mod batch;
mod dd_probe;
mod library;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Entry, WORKLOADS};

/// The parsed command line.
pub struct Args {
    workload: Option<String>,
    /// The only source of job seeds, sweep circuits and the traffic script.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    traced: bool,
    /// The `qsdd_cli` executable under test.
    pub cli: PathBuf,
    /// Scratch directory for suite files, store directories and the trace;
    /// this run works in a sub-directory of its own and removes it.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2021,
        seconds: report::RUN_SECONDS as f64,
        traced: false,
        cli: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        let number = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| number("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| number("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(number("a value in (0, 60]"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--cli" => args.cli = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.cli.is_file() {
        return Err(format!("--cli `{}` is not a file", args.cli.display()));
    }
    if args.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".to_string());
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result.
fn run_workload(args: &mut Args, name: &str) -> Result<bool, String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        )
    })?;
    let trace_path = args.work_dir.join(format!("trace-{name}.json"));
    args.work_dir = args.work_dir.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|error| format!("cannot create `{}`: {error}", args.work_dir.display()))?;
    println!(
        "workload {name}: seed {} / {} s / trace {}",
        args.seed, args.seconds, args.traced as u8
    );
    let report = if args.traced {
        let (report, trace) = match workload.entry {
            Entry::Library(spec) => library::run_traced(&spec, args),
            Entry::BatchProcess => batch::run_traced(args),
            Entry::Http => serve::run_traced(args),
        };
        // Spans live in memory for the whole run and are written once, at
        // the end. The file outlives the run's scratch directory: the
        // latest trace of each workload stays in the work directory.
        std::fs::write(&trace_path, trace.to_chrome_json())
            .map_err(|error| format!("cannot write `{}`: {error}", trace_path.display()))?;
        println!(
            "trace: {} spans written to {}",
            trace.span_count(),
            trace_path.display()
        );
        report
    } else {
        match workload.entry {
            Entry::Library(spec) => library::run_end_to_end(&spec, args),
            Entry::BatchProcess => batch::run_end_to_end(args),
            Entry::Http => serve::run_end_to_end(args),
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    report.print(name, args.traced);
    Ok(report.correct())
}

/// Runs every workload in a fresh child of this executable, so each one's
/// `peak_rss_mb` is its own.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--cli")
            .arg(&args.cli)
            .arg("--work-dir")
            .arg(&args.work_dir)
            .status()
            .expect("the benchmark can spawn itself");
        all_correct &= status.success();
        println!();
    }
    all_correct
}

fn main() -> ExitCode {
    // Two value-less modes, recognised anywhere on the line because
    // `run.sh` puts its own flags first.
    if std::env::args().any(|arg| arg == "--calibrate") {
        report::print_calibration();
        return ExitCode::SUCCESS;
    }
    if std::env::args().any(|arg| arg == "--manifest") {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload.clone() {
        Some(name) => match run_workload(&mut args, &name) {
            Ok(correct) => correct,
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        },
        None => run_all(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
