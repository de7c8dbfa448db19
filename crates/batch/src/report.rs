//! Aggregated batch results and their JSON / CSV serialisations.
//!
//! A [`BatchReport`] holds one [`JobReport`] per job in the order the job
//! file declared them. All per-job *results* (histograms, error counts,
//! executed shots, decision-diagram node statistics) are deterministic for
//! fixed seeds regardless of thread count; only the wall-clock fields vary
//! between runs. [`JobReport::results_json`] therefore serialises exactly
//! the deterministic subset, which the integration tests byte-compare
//! across thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::json::{self, Value};
use qsdd_telemetry::{Stage, StageTimings};

/// Outcome of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job executed to completion (possibly stopping early).
    Completed,
    /// The job could not run (circuit failed to load/parse); the message
    /// says why.
    Failed(String),
}

impl JobStatus {
    /// `true` for [`JobStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed)
    }
}

/// Aggregated results of a single job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Job name from the job file.
    pub name: String,
    /// Back-end that executed the shots (`dd` / `dense`).
    pub backend: String,
    /// Completion status.
    pub status: JobStatus,
    /// Qubit count of the job's circuit (`0` when the circuit failed to
    /// load).
    pub qubits: usize,
    /// Shot cap requested in the job file.
    pub shots_requested: u64,
    /// Shots actually executed (smaller than requested when early stopping
    /// triggered).
    pub shots_executed: u64,
    /// Whether the Wilson-interval early-stop rule fired.
    pub early_stopped: bool,
    /// Histogram of measurement outcomes (basis index → count), ordered for
    /// deterministic emission.
    pub counts: BTreeMap<u64, u64>,
    /// Total stochastic error events over all executed shots.
    pub error_events: u64,
    /// Mean decision-diagram node count of the final per-shot states
    /// (`0.0` on the dense back-end).
    pub dd_nodes_avg: f64,
    /// Peak decision-diagram node count reached at any point *during* any
    /// shot — the memory high-water mark of the job, sampled after every
    /// applied operation (not just at shot end).
    pub dd_nodes_peak: u64,
    /// Trajectories actually simulated: distinct presampled error patterns
    /// plus live shots. Equals `shots_executed` when the job ran on the
    /// per-shot path (the program does not support deduplication).
    pub unique_trajectories: u64,
    /// Fraction of executed shots served from another shot's trajectory
    /// (`1 - unique_trajectories / shots_executed`; `0.0` without
    /// deduplication).
    pub dedup_hit_rate: f64,
    /// Probability mass covered by weighted trajectory enumeration
    /// (`0.0` when the job ran on a sampling path).
    pub covered_mass: f64,
    /// Trajectories enumerated (and simulated exactly once each) by the
    /// weighted driver (`0` on the sampling paths).
    pub enumerated_trajectories: u64,
    /// Time from batch start until the job's last shot finished.
    pub wall_time: Duration,
    /// Wall-time breakdown by pipeline stage (compile, presample, execute,
    /// ...). A timing field like `wall_time`: it varies between runs and is
    /// serialised in the timing layer (`stage_seconds`), never in
    /// [`Self::results_json`].
    pub stage_timings: StageTimings,
}

impl JobReport {
    /// A report for a job that failed before executing any shot.
    pub fn failed(name: &str, backend: &str, shots_requested: u64, message: String) -> Self {
        JobReport {
            name: name.to_string(),
            backend: backend.to_string(),
            status: JobStatus::Failed(message),
            qubits: 0,
            shots_requested,
            shots_executed: 0,
            early_stopped: false,
            counts: BTreeMap::new(),
            error_events: 0,
            dd_nodes_avg: 0.0,
            dd_nodes_peak: 0,
            unique_trajectories: 0,
            dedup_hit_rate: 0.0,
            covered_mass: 0.0,
            enumerated_trajectories: 0,
            wall_time: Duration::ZERO,
            stage_timings: StageTimings::new(),
        }
    }

    /// Mean stochastic error events per executed shot.
    pub fn error_rate(&self) -> f64 {
        if self.shots_executed == 0 {
            return 0.0;
        }
        self.error_events as f64 / self.shots_executed as f64
    }

    /// The most frequent outcome, ties broken towards the smallest index.
    pub fn most_frequent(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by_key(|(&outcome, &count)| (count, std::cmp::Reverse(outcome)))
            .map(|(&outcome, _)| outcome)
    }

    /// The deterministic subset of the report as a JSON value: everything
    /// except wall-clock timing. For fixed per-job seeds this is identical
    /// across thread counts and machines.
    pub fn results_value(&self) -> Value {
        let mut pairs = vec![
            ("name".to_string(), Value::from(self.name.as_str())),
            ("backend".to_string(), Value::from(self.backend.as_str())),
            (
                "status".to_string(),
                match &self.status {
                    JobStatus::Completed => Value::from("completed"),
                    JobStatus::Failed(message) => {
                        Value::object(vec![("failed".to_string(), Value::from(message.as_str()))])
                    }
                },
            ),
            ("qubits".to_string(), Value::from(self.qubits)),
            (
                "shots_requested".to_string(),
                Value::from(self.shots_requested),
            ),
            (
                "shots_executed".to_string(),
                Value::from(self.shots_executed),
            ),
            ("early_stopped".to_string(), Value::from(self.early_stopped)),
            ("error_events".to_string(), Value::from(self.error_events)),
            ("error_rate".to_string(), Value::from(self.error_rate())),
            ("dd_nodes_avg".to_string(), Value::from(self.dd_nodes_avg)),
            ("dd_nodes_peak".to_string(), Value::from(self.dd_nodes_peak)),
            (
                "unique_trajectories".to_string(),
                Value::from(self.unique_trajectories),
            ),
            (
                "dedup_hit_rate".to_string(),
                Value::from(self.dedup_hit_rate),
            ),
            ("covered_mass".to_string(), Value::from(self.covered_mass)),
            (
                "enumerated_trajectories".to_string(),
                Value::from(self.enumerated_trajectories),
            ),
        ];
        let counts: Vec<Value> = self
            .counts
            .iter()
            .map(|(&outcome, &count)| {
                Value::object(vec![
                    ("outcome".to_string(), Value::from(outcome)),
                    ("count".to_string(), Value::from(count)),
                ])
            })
            .collect();
        pairs.push(("counts".to_string(), Value::Array(counts)));
        Value::object(pairs)
    }

    /// [`Self::results_value`] as a compact JSON string (the byte-stable
    /// per-job artifact).
    pub fn results_json(&self) -> String {
        self.results_value().to_string()
    }

    /// The full report (results plus timing) as a JSON value.
    pub fn to_value(&self) -> Value {
        let Value::Object(mut pairs) = self.results_value() else {
            unreachable!("results_value always builds an object");
        };
        pairs.push((
            "wall_time_secs".to_string(),
            Value::from(self.wall_time.as_secs_f64()),
        ));
        pairs.push((
            "stage_seconds".to_string(),
            Value::object(
                Stage::ALL
                    .iter()
                    .map(|&stage| {
                        (
                            stage.name().to_string(),
                            Value::from(self.stage_timings.get(stage).as_secs_f64()),
                        )
                    })
                    .collect(),
            ),
        ));
        Value::Object(pairs)
    }

    /// Rebuilds a report from a value produced by [`Self::to_value`] (or
    /// [`Self::results_value`]; the timing field is then zero).
    pub fn from_value(value: &Value) -> Result<JobReport, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job report: missing string `{key}`"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("job report: missing integer `{key}`"))
        };
        let status = match value.get("status") {
            Some(Value::String(s)) if s == "completed" => JobStatus::Completed,
            Some(other) => JobStatus::Failed(
                other
                    .get("failed")
                    .and_then(Value::as_str)
                    .ok_or("job report: malformed `status`")?
                    .to_string(),
            ),
            None => return Err("job report: missing `status`".to_string()),
        };
        let mut counts = BTreeMap::new();
        for entry in value
            .get("counts")
            .and_then(Value::as_array)
            .ok_or("job report: missing `counts` array")?
        {
            let outcome = entry
                .get("outcome")
                .and_then(Value::as_u64)
                .ok_or("job report: malformed count entry")?;
            let count = entry
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("job report: malformed count entry")?;
            counts.insert(outcome, count);
        }
        Ok(JobReport {
            name: str_field("name")?,
            backend: str_field("backend")?,
            status,
            qubits: num_field("qubits")? as usize,
            shots_requested: num_field("shots_requested")?,
            shots_executed: num_field("shots_executed")?,
            early_stopped: value
                .get("early_stopped")
                .and_then(Value::as_bool)
                .ok_or("job report: missing `early_stopped`")?,
            counts,
            error_events: num_field("error_events")?,
            dd_nodes_avg: value
                .get("dd_nodes_avg")
                .and_then(Value::as_f64)
                .ok_or("job report: missing `dd_nodes_avg`")?,
            dd_nodes_peak: num_field("dd_nodes_peak")?,
            // Deduplication fields arrived after the format's introduction:
            // parse leniently so reports written by earlier versions (every
            // shot its own trajectory) still round-trip.
            unique_trajectories: value
                .get("unique_trajectories")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| {
                    value
                        .get("shots_executed")
                        .and_then(Value::as_u64)
                        .unwrap_or(0)
                }),
            dedup_hit_rate: value
                .get("dedup_hit_rate")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            // Weighted-enumeration fields are newer still: reports from
            // sampling-only versions parse as "not weighted".
            covered_mass: value
                .get("covered_mass")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            enumerated_trajectories: value
                .get("enumerated_trajectories")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            wall_time: Duration::from_secs_f64(
                value
                    .get("wall_time_secs")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            ),
            stage_timings: {
                // Nanosecond-exact round trip: stage durations are far below
                // the ~2^52 ns point where `f64` seconds lose nanoseconds.
                let mut timings = StageTimings::new();
                if let Some(stages) = value.get("stage_seconds") {
                    for &stage in &Stage::ALL {
                        if let Some(secs) = stages.get(stage.name()).and_then(Value::as_f64) {
                            timings.record(stage, Duration::from_secs_f64(secs));
                        }
                    }
                }
                timings
            },
        })
    }
}

/// Aggregated results of a whole batch run.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// Per-job reports in job-file order.
    pub jobs: Vec<JobReport>,
    /// Worker threads the scheduler ran with.
    pub threads: usize,
    /// Wall-clock time of the whole batch.
    pub total_wall_time: Duration,
}

impl BatchReport {
    /// `true` when every job completed.
    pub fn all_completed(&self) -> bool {
        self.jobs.iter().all(|job| job.status.is_completed())
    }

    /// Total shots executed across all jobs.
    pub fn total_shots(&self) -> u64 {
        self.jobs.iter().map(|job| job.shots_executed).sum()
    }

    /// The report as a JSON value (insertion-ordered, deterministic except
    /// for the wall-clock fields).
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("format".to_string(), Value::from("qsdd-batch-report/1")),
            ("threads".to_string(), Value::from(self.threads)),
            (
                "total_wall_time_secs".to_string(),
                Value::from(self.total_wall_time.as_secs_f64()),
            ),
            ("total_shots".to_string(), Value::from(self.total_shots())),
            (
                "jobs".to_string(),
                Value::Array(self.jobs.iter().map(JobReport::to_value).collect()),
            ),
        ])
    }

    /// The report as an indented JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty_string()
    }

    /// Parses a document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<BatchReport, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        if value.get("format").and_then(Value::as_str) != Some("qsdd-batch-report/1") {
            return Err("not a qsdd-batch-report/1 document".to_string());
        }
        let jobs = value
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("missing `jobs` array")?
            .iter()
            .map(JobReport::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchReport {
            jobs,
            threads: value
                .get("threads")
                .and_then(Value::as_u64)
                .ok_or("missing `threads`")? as usize,
            total_wall_time: Duration::from_secs_f64(
                value
                    .get("total_wall_time_secs")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            ),
        })
    }

    /// The report as CSV: a header line plus one summary row per job.
    ///
    /// Histograms do not fit a flat table, so each row carries the most
    /// frequent outcome and its count; the JSON format holds the full
    /// histogram. Failure messages are quoted with doubled inner quotes per
    /// RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "job,backend,status,qubits,shots_requested,shots_executed,early_stopped,\
             error_events,error_rate,top_outcome,top_count,dd_nodes_avg,dd_nodes_peak,\
             unique_trajectories,dedup_hit_rate,covered_mass,enumerated_trajectories,\
             wall_time_secs\n",
        );
        for job in &self.jobs {
            let status = match &job.status {
                JobStatus::Completed => "completed".to_string(),
                JobStatus::Failed(message) => csv_escape(&format!("failed: {message}")),
            };
            let (top_outcome, top_count) = job
                .most_frequent()
                .map(|outcome| (outcome.to_string(), job.counts[&outcome].to_string()))
                .unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                csv_escape(&job.name),
                job.backend,
                status,
                job.qubits,
                job.shots_requested,
                job.shots_executed,
                job.early_stopped,
                job.error_events,
                job.error_rate(),
                top_outcome,
                top_count,
                job.dd_nodes_avg,
                job.dd_nodes_peak,
                job.unique_trajectories,
                job.dedup_hit_rate,
                job.covered_mass,
                job.enumerated_trajectories,
                job.wall_time.as_secs_f64()
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Quotes a free-text CSV field per RFC 4180 when it contains a comma,
/// quote or newline; plain fields pass through unchanged.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BatchReport {
        let mut counts = BTreeMap::new();
        counts.insert(0, 180);
        counts.insert(7, 190);
        BatchReport {
            jobs: vec![
                JobReport {
                    name: "ghz".to_string(),
                    backend: "dd".to_string(),
                    status: JobStatus::Completed,
                    qubits: 3,
                    shots_requested: 1000,
                    shots_executed: 370,
                    early_stopped: true,
                    counts,
                    error_events: 12,
                    dd_nodes_avg: 4.5,
                    dd_nodes_peak: 7,
                    unique_trajectories: 21,
                    dedup_hit_rate: 1.0 - 21.0 / 370.0,
                    covered_mass: 0.875,
                    enumerated_trajectories: 9,
                    wall_time: Duration::from_millis(250),
                    stage_timings: {
                        let mut timings = StageTimings::new();
                        timings.record(Stage::Compile, Duration::from_nanos(1_234_567));
                        timings.record(Stage::Execute, Duration::from_nanos(248_000_001));
                        timings
                    },
                },
                JobReport::failed("broken", "dense", 50, "cannot read `x.qasm`".to_string()),
            ],
            threads: 4,
            total_wall_time: Duration::from_millis(300),
        }
    }

    #[test]
    fn json_round_trips_losslessly() {
        let report = sample_report();
        let parsed = BatchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn results_json_excludes_timing() {
        let job = &sample_report().jobs[0];
        let text = job.results_json();
        assert!(!text.contains("wall_time"));
        assert!(text.contains("\"shots_executed\":370"));
        let round = JobReport::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(round.wall_time, Duration::ZERO);
        assert_eq!(round.counts, job.counts);
    }

    #[test]
    fn csv_has_one_row_per_job() {
        let report = sample_report();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("job,backend,status"));
        assert!(lines[1].starts_with("ghz,dd,completed,3,1000,370,true,12,"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[2].contains("failed: cannot read `x.qasm`"));
    }

    #[test]
    fn csv_quotes_fields_containing_delimiters() {
        let mut report = sample_report();
        report.jobs[0].name = "ghz,16 \"wide\"".to_string();
        report.jobs[1].status = JobStatus::Failed("bad, very bad".to_string());
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // RFC 4180: embedded commas force quoting, embedded quotes double.
        assert!(lines[1].starts_with("\"ghz,16 \"\"wide\"\"\",dd,"));
        assert!(lines[2].contains("\"failed: bad, very bad\""));
    }

    #[test]
    fn most_frequent_breaks_ties_towards_smaller_outcomes() {
        let mut job = sample_report().jobs[0].clone();
        job.counts.insert(0, 190);
        assert_eq!(job.most_frequent(), Some(0));
        job.counts.clear();
        assert_eq!(job.most_frequent(), None);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(BatchReport::from_json("{}").is_err());
        assert!(BatchReport::from_json("not json").is_err());
    }
}
