//! Regression tests for the CLI's stdout/stderr split: stdout carries only
//! the result (histogram, JSON document, batch report), every diagnostic
//! and stats line goes to stderr, so `qsdd_cli run ... > out.json`
//! composes with pipes.

use std::process::{Command, Output};

use qsdd::json::{self, Value};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qsdd_cli"))
        .args(args)
        .output()
        .expect("spawn qsdd_cli")
}

#[test]
fn json_run_keeps_stdout_machine_readable() {
    let output = cli(&[
        "generate",
        "ghz",
        "5",
        "--shots",
        "100",
        "--seed",
        "3",
        "--format",
        "json",
        "--profile",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();

    // stdout is exactly one JSON document — redirecting it yields a valid
    // .json file.
    let document = json::parse(stdout.trim()).unwrap_or_else(|e| {
        panic!("stdout is not pure JSON ({e}):\n{stdout}");
    });
    assert_eq!(
        document.get("format").and_then(Value::as_str),
        Some("qsdd-run-result/1")
    );
    assert_eq!(document.get("shots").and_then(Value::as_u64), Some(100));
    assert!(document.get("counts").and_then(Value::as_array).is_some());
    assert!(document.get("stage_seconds").is_some());

    // The diagnostics and the --profile table landed on stderr.
    assert!(stderr.contains("circuit `"), "{stderr}");
    assert!(stderr.contains("noise:"), "{stderr}");
    assert!(stderr.contains("profile: stage breakdown"), "{stderr}");
    assert!(stderr.contains("execute"), "{stderr}");
}

#[test]
fn text_run_keeps_diagnostics_off_stdout() {
    let output = cli(&[
        "generate",
        "ghz",
        "4",
        "--backend",
        "dd",
        "--shots",
        "50",
        "--top",
        "2",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();

    // stdout is only the result histogram.
    assert!(stdout.starts_with("top 2 outcomes:"), "{stdout}");
    for diagnostic in [
        "circuit `",
        "noise:",
        "shots on",
        "dd nodes:",
        "trajectories:",
    ] {
        assert!(
            !stdout.contains(diagnostic),
            "diagnostic `{diagnostic}` leaked to stdout:\n{stdout}"
        );
        assert!(
            stderr.contains(diagnostic),
            "missing `{diagnostic}`:\n{stderr}"
        );
    }
}

#[test]
fn batch_report_on_stdout_parses_with_summary_on_stderr() {
    let jobfile =
        std::env::temp_dir().join(format!("qsdd_cli_streams_{}.jobs", std::process::id()));
    std::fs::write(
        &jobfile,
        "[job tiny]\ncircuit = generate ghz 3\nshots = 40\nseed = 9\n",
    )
    .unwrap();
    let output = cli(&["batch", jobfile.to_str().unwrap(), "--profile"]);
    std::fs::remove_file(&jobfile).ok();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();

    // stdout is exactly the machine-readable report document.
    let report = json::parse(stdout.trim()).unwrap_or_else(|e| {
        panic!("batch stdout is not pure JSON ({e}):\n{stdout}");
    });
    assert_eq!(
        report.get("format").and_then(Value::as_str),
        Some("qsdd-batch-report/1")
    );
    // Per-job summary, totals and the profile table are stderr-only.
    assert!(stderr.contains("batch: 1 job(s)"), "{stderr}");
    assert!(stderr.contains("shots total on"), "{stderr}");
    assert!(stderr.contains("profile: stage breakdown"), "{stderr}");
}

/// A circuit wider than its back-end fails like every other CLI error: one
/// `error:` line, a failure exit code, no panic from inside the engine.
#[test]
fn over_wide_circuits_fail_with_one_error_line() {
    for (args, message) in [
        (
            &["generate", "ghz", "70", "--shots", "10"][..],
            "error: 70 qubits exceed the `dd` back-end's limit of 64\n",
        ),
        (
            &[
                "generate",
                "ghz",
                "31",
                "--backend",
                "dense",
                "--shots",
                "1",
            ][..],
            "error: 31 qubits exceed the `dense` back-end's limit of 30\n",
        ),
    ] {
        let output = cli(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        assert_eq!(String::from_utf8(output.stderr).unwrap(), message);
    }
}

/// The dedup hit rate counts the evolutions that served a shot: a bucket
/// whose members all forked into longer patterns serves none, so strong
/// damping (more evolutions than shots) still reports a rate in `[0, 1)`
/// — it read −20.0 % and −70.0 % when every evolution counted.
#[test]
fn the_dedup_hit_rate_is_never_negative() {
    for damping in ["0.5", "1"] {
        let args = [
            "generate",
            "grover",
            "6",
            "--damping",
            damping,
            "--backend",
            "dd",
            "--shots",
            "10",
        ];
        let output = cli(&args);
        assert!(output.status.success(), "{args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        let line = (stderr.lines())
            .find(|line| line.starts_with("trajectories:"))
            .expect("a trajectories line");
        let rate: f64 = (line.split('(').nth(1))
            .and_then(|rest| rest.split(" %").next())
            .and_then(|rate| rate.parse().ok())
            .unwrap_or_else(|| panic!("no rate in {line:?}"));
        assert!((0.0..100.0).contains(&rate), "damping {damping}: {line}");
    }
}
