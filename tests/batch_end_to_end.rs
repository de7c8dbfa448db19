//! End-to-end coverage of the batch subsystem: a mixed three-job file
//! (QASM + generator specs, both back-ends) runs to completion, the JSON and
//! CSV reports parse back, early stopping executes fewer shots than the cap,
//! and per-job results are bit-identical across thread counts.

use std::path::PathBuf;

use qsdd::batch::{jobfile, json, run_batch, BatchOptions, BatchReport, JobStatus};

/// The mixed job file exercised throughout this suite. The GHZ job is
/// noiseless so its dominant outcome frequency (~0.5) converges fast and the
/// Wilson rule stops it well before the 50 000-shot cap.
const JOBFILE: &str = "
# integration batch
[job ghz-early]
circuit = generate ghz 6
backend = dd
shots = 50000
seed = 11
noiseless = true
epsilon = 0.05
check = 128

[job qft-dense]
circuit = generate qft 4
backend = dense
shots = 400
seed = 7
opt = 2

[job bell-file]
circuit = qasm bell.qasm
backend = dd
shots = 300
seed = 23
";

const BELL_QASM: &str = "\
OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
";

/// Writes the Bell circuit next to a unique per-test directory and parses
/// the job file against it, so the `qasm` stanza resolves relatively.
fn parsed_jobs(tag: &str) -> (Vec<jobfile::JobSpec>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("qsdd-batch-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("bell.qasm"), BELL_QASM).expect("write bell.qasm");
    let jobs = jobfile::parse_str(JOBFILE, Some(&dir)).expect("job file parses");
    (jobs, dir)
}

fn run(tag: &str, threads: usize) -> BatchReport {
    let (jobs, _dir) = parsed_jobs(tag);
    run_batch(&jobs, &BatchOptions::with_threads(threads))
}

#[test]
fn mixed_batch_completes_and_reports_consistently() {
    let report = run("complete", 4);
    assert!(report.all_completed());
    assert_eq!(report.jobs.len(), 3);

    // Histograms account for every executed shot.
    for job in &report.jobs {
        assert!(job.status.is_completed());
        assert_eq!(job.counts.values().sum::<u64>(), job.shots_executed);
        assert!(job.wall_time <= report.total_wall_time);
    }

    // Noiseless GHZ splits between the two peaks.
    let ghz = &report.jobs[0];
    let all_ones = (1u64 << 6) - 1;
    let peak_mass = ghz.counts.get(&0).unwrap_or(&0) + ghz.counts.get(&all_ones).unwrap_or(&0);
    assert_eq!(peak_mass, ghz.shots_executed);
    assert_eq!(ghz.error_events, 0);
    assert!(ghz.dd_nodes_peak > 0, "DD back-end reports node statistics");

    // Dense back-end carries no decision diagrams.
    let qft = &report.jobs[1];
    assert_eq!(qft.qubits, 4);
    assert_eq!(qft.dd_nodes_peak, 0);
    assert_eq!(qft.shots_executed, 400);

    // The measured Bell circuit packs its classical register: only the two
    // correlated outcomes dominate.
    let bell = &report.jobs[2];
    assert_eq!(bell.qubits, 2);
    assert_eq!(bell.shots_executed, 300);
}

#[test]
fn early_stopping_executes_fewer_shots_than_the_cap() {
    let report = run("early", 2);
    let ghz = &report.jobs[0];
    assert!(ghz.early_stopped, "GHZ job should converge early");
    assert!(
        ghz.shots_executed < ghz.shots_requested,
        "executed {} of {} shots",
        ghz.shots_executed,
        ghz.shots_requested
    );
    // Stopping happens only at checkpoint boundaries.
    assert_eq!(ghz.shots_executed % 128, 0);
    // The other jobs run to their caps.
    assert!(!report.jobs[1].early_stopped);
    assert!(!report.jobs[2].early_stopped);
}

#[test]
fn results_byte_match_across_thread_counts() {
    let single = run("threads1", 1);
    let multi = run("threads4", 4);
    for (a, b) in single.jobs.iter().zip(multi.jobs.iter()) {
        assert_eq!(
            a.results_json(),
            b.results_json(),
            "job `{}` diverged between thread counts",
            a.name
        );
    }
}

#[test]
fn json_report_round_trips() {
    let report = run("json", 3);
    let text = report.to_json();
    let parsed = BatchReport::from_json(&text).expect("report JSON parses back");
    assert_eq!(parsed, report);

    // The document is also plain JSON for third-party consumers.
    let value = json::parse(&text).expect("valid JSON");
    assert_eq!(
        value.get("format").and_then(json::Value::as_str),
        Some("qsdd-batch-report/1")
    );
    assert_eq!(
        value
            .get("jobs")
            .and_then(json::Value::as_array)
            .map(<[_]>::len),
        Some(3)
    );
}

#[test]
fn csv_report_parses_back() {
    let report = run("csv", 2);
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + report.jobs.len());
    let header: Vec<&str> = lines[0].split(',').collect();
    for (line, job) in lines[1..].iter().zip(report.jobs.iter()) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), header.len());
        assert_eq!(fields[0], job.name);
        assert_eq!(fields[2], "completed");
        let executed: u64 = fields[5].parse().expect("numeric shots_executed");
        assert_eq!(executed, job.shots_executed);
    }
}

/// A job wider than its back-end used to panic a worker inside the engine
/// and leave the scheduler waiting forever; it fails at build time instead
/// and the batch returns.
#[test]
fn over_wide_jobs_fail_cleanly_while_the_others_complete() {
    let text = "
[job wide]
circuit = generate ghz 70
shots = 10

[job fine]
circuit = generate ghz 3
shots = 50
seed = 4
";
    let jobs = jobfile::parse_str(text, None).expect("parses");
    let started = std::time::Instant::now();
    let report = run_batch(&jobs, &BatchOptions::with_threads(2));
    assert!(started.elapsed().as_secs() < 10, "the batch must not hang");
    assert!(!report.all_completed());
    match &report.jobs[0].status {
        JobStatus::Failed(message) => {
            assert_eq!(message, "70 qubits exceed the `dd` back-end's limit of 64")
        }
        other => panic!("expected failure, got {other:?}"),
    }
    assert!(report.jobs[1].status.is_completed());
    assert_eq!(report.jobs[1].shots_executed, 50);
}

#[test]
fn failing_jobs_surface_in_the_report_without_blocking_others() {
    let text = "
[job missing]
circuit = qasm /nonexistent/nowhere.qasm
shots = 10

[job fine]
circuit = generate ghz 3
shots = 50
seed = 4
";
    let jobs = jobfile::parse_str(text, None).expect("parses");
    let report = run_batch(&jobs, &BatchOptions::with_threads(2));
    assert!(!report.all_completed());
    assert!(matches!(report.jobs[0].status, JobStatus::Failed(_)));
    assert!(report.jobs[1].status.is_completed());
    assert_eq!(report.jobs[1].shots_executed, 50);
    // Failure details survive the JSON round trip.
    let parsed = BatchReport::from_json(&report.to_json()).unwrap();
    match &parsed.jobs[0].status {
        JobStatus::Failed(message) => assert!(message.contains("cannot read")),
        other => panic!("expected failure, got {other:?}"),
    }
}

/// Runs `qsdd_cli batch <jobfile> --threads 2` with `QSDD_FAULTS=<faults>`
/// and returns its exit code and report, killing it if it has not exited
/// within 30 s.
fn batch_subprocess(jobfile: &std::path::Path, faults: &str) -> (Option<i32>, BatchReport) {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let out = jobfile.with_extension(if faults.is_empty() {
        "clean.json"
    } else {
        "faulty.json"
    });
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsdd_cli"))
        .arg("batch")
        .arg(jobfile)
        .args(["--threads", "2", "--out"])
        .arg(&out)
        .env("QSDD_FAULTS", faults)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qsdd_cli");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for qsdd_cli") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(30) {
            child.kill().ok();
            panic!("`batch` with QSDD_FAULTS={faults} hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let report = std::fs::read_to_string(&out).expect("the report is written");
    (
        status.code(),
        BatchReport::from_json(&report).expect("report parses"),
    )
}

/// A panicking chunk fails its job alone: the batch returns at once
/// instead of waiting on the job's `active` count, the job reports
/// `panicked`, and its siblings are byte-identical to a fault-free run.
#[test]
fn a_panicking_worker_fails_one_job_and_the_batch_returns() {
    let text = "
[job ghz]
circuit = generate ghz 8
shots = 2000
seed = 5

[job qft-dense]
circuit = generate qft 5
backend = dense
shots = 300
seed = 6

[job bv]
circuit = generate bv 6
shots = 500
seed = 7
";
    let dir = std::env::temp_dir().join(format!("qsdd-batch-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let jobfile = dir.join("three.jobs");
    std::fs::write(&jobfile, text).expect("write job file");
    let (code, clean) = batch_subprocess(&jobfile, "");
    assert_eq!(code, Some(0));
    let (code, faulty) = batch_subprocess(&jobfile, "worker_panic=1");
    assert_eq!(code, Some(1));
    let panicked = |job: &qsdd::batch::JobReport| matches!(&job.status, JobStatus::Failed(message) if message.starts_with("panicked: "));
    assert_eq!(faulty.jobs.iter().filter(|job| panicked(job)).count(), 1);
    for (faulty, clean) in faulty.jobs.iter().zip(&clean.jobs) {
        if !panicked(faulty) {
            assert_eq!(
                faulty.results_json(),
                clean.results_json(),
                "{}",
                clean.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
