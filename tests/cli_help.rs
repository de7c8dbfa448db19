//! Drift regression for the CLI's `--help` text and `docs/cli.md`.
//!
//! Flags have historically been added to the parser without updating the
//! help screen or the reference doc (the `--weighted` family, `--profile`
//! and `--format` all landed across several PRs). This test pins the
//! complete flag vocabulary in one place and asserts that **both** the
//! `--help` output and `docs/cli.md` mention every flag — so adding a flag
//! without documenting it fails CI, and removing one without pruning the
//! docs does too (via the parser rejecting it, checked for a sample).
//!
//! The pipeline-stage vocabulary is pinned the same way: every stage name
//! in `Stage::ALL` must appear in the docs that enumerate the stages
//! (`docs/cli.md` and `docs/metrics.md`).

use std::path::Path;
use std::process::{Command, Output};

use qsdd::core::Stage;

/// Every flag the CLI accepts, by subcommand. This list is the test's
/// source of truth: extend it when the parser learns a flag.
const RUN_FLAGS: &[&str] = &[
    "--shots",
    "--threads",
    "--seed",
    "--backend",
    "--opt",
    "--verify-opt",
    "--weighted",
    "--mass-cutoff",
    "--max-patterns",
    "--exact-histogram",
    "--noiseless",
    "--depolarizing",
    "--damping",
    "--phaseflip",
    "--top",
    "--format",
    "--profile",
    "--timeout",
    "--trace-out",
];
const BATCH_FLAGS: &[&str] = &["--out", "--format", "--threads", "--profile", "--trace-out"];
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--threads",
    "--cache-entries",
    "--queue-depth",
    "--store-dir",
];

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qsdd_cli"))
        .args(args)
        .output()
        .expect("spawn qsdd_cli")
}

fn help_text() -> String {
    let output = cli(&["--help"]);
    assert!(output.status.success(), "--help must exit 0");
    String::from_utf8(output.stdout).expect("help is UTF-8")
}

fn cli_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/cli.md");
    std::fs::read_to_string(&path).expect("docs/cli.md exists")
}

#[test]
fn every_flag_appears_in_help_and_docs() {
    let help = help_text();
    let doc = cli_doc();
    for flags in [RUN_FLAGS, BATCH_FLAGS, SERVE_FLAGS] {
        for flag in flags {
            assert!(help.contains(flag), "--help drifted: missing `{flag}`");
            assert!(doc.contains(flag), "docs/cli.md drifted: missing `{flag}`");
        }
    }
}

#[test]
fn listed_flags_are_actually_accepted() {
    // The inverse direction for a run-mode sample: every flag in the pinned
    // list parses (an error would print `unknown flag` and exit 1). Value
    // flags get a benign value; --mass-cutoff and friends need --weighted.
    let trace_out =
        std::env::temp_dir().join(format!("qsdd-help-{}.trace.json", std::process::id()));
    let trace_out = trace_out.to_str().expect("temp path is UTF-8");
    let output = cli(&[
        "generate",
        "ghz",
        "4",
        "--shots",
        "10",
        "--threads",
        "1",
        "--seed",
        "1",
        "--backend",
        "dd",
        "--opt",
        "1",
        "--weighted",
        "--mass-cutoff",
        "0.9",
        "--max-patterns",
        "16",
        "--exact-histogram",
        "--noiseless",
        "--top",
        "3",
        "--format",
        "json",
        "--profile",
        "--timeout",
        "60000",
        "--trace-out",
        trace_out,
    ]);
    let _ = std::fs::remove_file(trace_out);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "pinned flag set was rejected: {stderr}"
    );
    assert!(!stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn retired_flags_are_rejected() {
    // Trajectory sharing is no longer optional: the old off switch is an
    // unknown flag on both subcommands that had it, not a silent no-op.
    for args in [
        &["generate", "ghz", "4", "--no-dedup"][..],
        &["batch", "jobs.txt", "--no-dedup"],
    ] {
        let output = cli(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} was accepted");
        assert!(stderr.contains("unknown flag `--no-dedup`"), "{stderr}");
    }
}

#[test]
fn stage_vocabulary_matches_the_docs() {
    let cli_doc = cli_doc();
    let metrics_doc = {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/metrics.md");
        std::fs::read_to_string(&path).expect("docs/metrics.md exists")
    };
    for stage in Stage::ALL {
        let name = stage.name();
        assert!(
            cli_doc.contains(name),
            "docs/cli.md drifted: missing stage `{name}`"
        );
        assert!(
            metrics_doc.contains(name),
            "docs/metrics.md drifted: missing stage `{name}`"
        );
    }
    // The stage-count prose must match Stage::ALL's length ("eight-stage"
    // today): a changed stage list must update the docs, not drift apart.
    assert_eq!(Stage::ALL.len(), 8);
    assert!(
        cli_doc.contains("eight-stage") || cli_doc.contains("8-stage"),
        "docs/cli.md stage-count prose drifted"
    );
    assert!(
        metrics_doc.contains("eight-stage") || metrics_doc.contains("8-stage"),
        "docs/metrics.md stage-count prose drifted"
    );
}
