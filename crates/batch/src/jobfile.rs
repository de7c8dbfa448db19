//! The batch job-file format and its parser.
//!
//! A job file is plain text: one stanza per job, opened by a `[job NAME]`
//! header and followed by `key = value` lines. Blank lines and lines starting
//! with `#` or `;` are ignored; inline trailing comments are not supported.
//!
//! ```text
//! # Mixed demo batch.
//! [job ghz-early]
//! circuit = generate ghz 8
//! backend = dd
//! shots = 4000
//! seed = 11
//! noiseless = true
//! # stop early once the 95 % Wilson CI is this tight
//! epsilon = 0.05
//!
//! [job bell-file]
//! circuit = qasm bell.qasm
//! backend = dense
//! shots = 500
//! opt = 2
//! ```
//!
//! Recognised keys (all optional except `circuit`):
//!
//! | Key | Meaning | Default |
//! |-----|---------|---------|
//! | `circuit` | `generate <name> <qubits>` or `qasm <path>` | *required* |
//! | `backend` | `auto`, `dd` or `dense` | `auto` |
//! | `shots` | shot cap for the job | `1000` |
//! | `seed` | per-job master seed | `2021 + job index` |
//! | `opt` | transpiler level `0`/`1`/`2` | `0` |
//! | `noiseless` | `true` disables all noise | `false` |
//! | `depolarizing` / `damping` / `phaseflip` | per-channel probabilities | paper defaults |
//! | `epsilon` | Wilson-CI half-width that triggers early stopping | off |
//! | `check` | shots between early-stop checkpoints | `256` |
//! | `weighted` | `true` enables weighted trajectory enumeration | `false` |
//! | `timeout_ms` | per-job deadline in milliseconds; an expired job reports `timed_out` | off |
//!
//! QASM paths are resolved relative to the job file's directory when parsed
//! via [`parse_file`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use qsdd_circuit::{generators, qasm, Circuit};
use qsdd_core::BackendKind;
use qsdd_noise::NoiseModel;
use qsdd_transpile::OptLevel;

/// Default shot cap when a stanza omits `shots`.
pub const DEFAULT_SHOTS: u64 = 1000;
/// Default early-stop checkpoint interval (`check` key).
pub const DEFAULT_CHECK_INTERVAL: u64 = 256;

/// Where a job's circuit comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// A built-in generator (`circuit = generate ghz 8`).
    Generator {
        /// Generator name as accepted by [`generators::by_name`].
        kind: String,
        /// Number of qubits to generate.
        qubits: usize,
    },
    /// An OpenQASM 2.0 file (`circuit = qasm path/to/file.qasm`).
    Qasm(PathBuf),
}

impl fmt::Display for CircuitSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitSource::Generator { kind, qubits } => write!(f, "generate {kind} {qubits}"),
            CircuitSource::Qasm(path) => write!(f, "qasm {}", path.display()),
        }
    }
}

/// One fully-resolved job stanza.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Job name from the stanza header (unique within a file).
    pub name: String,
    /// Circuit source.
    pub source: CircuitSource,
    /// Simulation back-end.
    pub backend: BackendKind,
    /// Maximum number of stochastic shots.
    pub shots: u64,
    /// Per-job master seed (shot `i` derives its generator from it).
    pub seed: u64,
    /// Transpiler optimization level applied once before the shots.
    pub opt: OptLevel,
    /// Noise model applied after every gate.
    pub noise: NoiseModel,
    /// Early-stopping target: stop once the dominant outcome's 95 % Wilson
    /// confidence interval has half-width `<= epsilon`. `None` disables it.
    pub epsilon: Option<f64>,
    /// Shots between early-stop checkpoints (also the scheduling round
    /// size); determinism requires checks at fixed shot counts.
    pub check_interval: u64,
    /// Run the job through the weighted-enumeration driver (see
    /// `qsdd_core::weighted`) with default options instead of the sampling
    /// loop. Incompatible with `epsilon` early stopping (the weighted
    /// driver runs the job in one piece).
    pub weighted: bool,
    /// Cooperative per-job deadline in milliseconds (`None` = unbounded):
    /// the scheduler stops handing out the job's chunks once it expires and
    /// reports the job as failed with a `timed_out` message. Shots already
    /// simulated for it are discarded, never partially reported.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with all-default knobs for the given name and source.
    ///
    /// `index` is the job's position in the file; it seeds the default
    /// per-job seed so two default jobs never share a random stream.
    pub fn new(name: &str, source: CircuitSource, index: usize) -> Self {
        JobSpec {
            name: name.to_string(),
            source,
            backend: BackendKind::Auto,
            shots: DEFAULT_SHOTS,
            seed: 2021 + index as u64,
            opt: OptLevel::O0,
            noise: NoiseModel::paper_defaults(),
            epsilon: None,
            check_interval: DEFAULT_CHECK_INTERVAL,
            weighted: false,
            timeout_ms: None,
        }
    }

    /// Materialises the job's circuit (running the generator or loading and
    /// parsing the QASM file).
    pub fn load_circuit(&self) -> Result<Circuit, String> {
        match &self.source {
            CircuitSource::Generator { kind, qubits } => generators::by_name(kind, *qubits),
            CircuitSource::Qasm(path) => {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
                qasm::parse_source(&source).map_err(|e| e.to_string())
            }
        }
    }
}

/// A job-file syntax or semantics error, with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFileError {
    /// 1-based line the error was detected on (`0` for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl JobFileError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        JobFileError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for JobFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "job file: {}", self.message)
        } else {
            write!(f, "job file line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for JobFileError {}

/// Reads and parses a job file; relative QASM paths resolve against the
/// file's directory.
pub fn parse_file(path: &Path) -> Result<Vec<JobSpec>, JobFileError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| JobFileError::new(0, format!("cannot read `{}`: {e}", path.display())))?;
    parse_str(&source, path.parent())
}

/// Parses job-file text. `base_dir`, when given, anchors relative QASM
/// paths.
pub fn parse_str(source: &str, base_dir: Option<&Path>) -> Result<Vec<JobSpec>, JobFileError> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    // The stanza currently being filled: spec plus the header line (for
    // "missing circuit" diagnostics) and whether `circuit` was seen.
    let mut current: Option<(JobSpec, usize, bool)> = None;
    // Noise keys are folded together once the stanza closes.
    let mut noise_overrides: NoiseOverrides = NoiseOverrides::default();

    for (index, raw_line) in source.lines().enumerate() {
        let line_no = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .and_then(|h| h.strip_prefix("job"))
                .filter(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace))
                .map(str::trim)
                .ok_or_else(|| {
                    JobFileError::new(line_no, format!("malformed stanza header `{line}`"))
                })?;
            if name.is_empty() {
                return Err(JobFileError::new(line_no, "job name must not be empty"));
            }
            if jobs.iter().any(|j| j.name == name)
                || current.as_ref().is_some_and(|(j, _, _)| j.name == name)
            {
                return Err(JobFileError::new(
                    line_no,
                    format!("duplicate job `{name}`"),
                ));
            }
            finish_stanza(&mut jobs, current.take(), &mut noise_overrides)?;
            let placeholder = CircuitSource::Generator {
                kind: String::new(),
                qubits: 0,
            };
            current = Some((JobSpec::new(name, placeholder, jobs.len()), line_no, false));
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            JobFileError::new(line_no, format!("expected `key = value`, got `{line}`"))
        })?;
        let (key, value) = (key.trim(), value.trim());
        let Some((job, _, has_circuit)) = current.as_mut() else {
            return Err(JobFileError::new(
                line_no,
                format!("`{key}` appears before the first [job ...] stanza"),
            ));
        };
        match key {
            "circuit" => {
                job.source = parse_source_value(value, base_dir)
                    .map_err(|message| JobFileError::new(line_no, message))?;
                *has_circuit = true;
            }
            "backend" => {
                job.backend = BackendKind::from_str(value)
                    .map_err(|message| JobFileError::new(line_no, message))?;
            }
            "shots" => job.shots = parse_num(key, value, line_no)?,
            "seed" => job.seed = parse_num(key, value, line_no)?,
            "check" => {
                job.check_interval = parse_num(key, value, line_no)?;
                if job.check_interval == 0 {
                    return Err(JobFileError::new(line_no, "`check` must be positive"));
                }
            }
            "opt" => {
                job.opt = value
                    .parse::<OptLevel>()
                    .map_err(|message| JobFileError::new(line_no, message))?;
            }
            "epsilon" => {
                let eps = parse_float(key, value, line_no)?;
                if !(eps > 0.0 && eps < 1.0) {
                    return Err(JobFileError::new(
                        line_no,
                        format!("`epsilon` must be in (0, 1), got {value}"),
                    ));
                }
                job.epsilon = Some(eps);
            }
            "weighted" => job.weighted = parse_bool(key, value, line_no)?,
            "timeout_ms" => {
                let ms = parse_num(key, value, line_no)?;
                if ms == 0 {
                    return Err(JobFileError::new(line_no, "`timeout_ms` must be positive"));
                }
                job.timeout_ms = Some(ms);
            }
            "noiseless" => {
                noise_overrides.noiseless = parse_bool(key, value, line_no)?;
            }
            "depolarizing" => {
                noise_overrides.depolarizing = Some(parse_probability(key, value, line_no)?)
            }
            "damping" => noise_overrides.damping = Some(parse_probability(key, value, line_no)?),
            "phaseflip" => {
                noise_overrides.phase_flip = Some(parse_probability(key, value, line_no)?)
            }
            other => {
                return Err(JobFileError::new(line_no, format!("unknown key `{other}`")));
            }
        }
    }
    finish_stanza(&mut jobs, current.take(), &mut noise_overrides)?;
    if jobs.is_empty() {
        return Err(JobFileError::new(0, "no [job ...] stanzas found"));
    }
    Ok(jobs)
}

/// Per-stanza noise keys, folded into a [`NoiseModel`] when the stanza ends.
#[derive(Clone, Debug, Default)]
struct NoiseOverrides {
    noiseless: bool,
    depolarizing: Option<f64>,
    damping: Option<f64>,
    phase_flip: Option<f64>,
}

fn finish_stanza(
    jobs: &mut Vec<JobSpec>,
    current: Option<(JobSpec, usize, bool)>,
    noise: &mut NoiseOverrides,
) -> Result<(), JobFileError> {
    let overrides = std::mem::take(noise);
    let Some((mut job, header_line, has_circuit)) = current else {
        return Ok(());
    };
    if !has_circuit {
        return Err(JobFileError::new(
            header_line,
            format!("job `{}` is missing the `circuit` key", job.name),
        ));
    }
    if job.weighted && job.epsilon.is_some() {
        return Err(JobFileError::new(
            header_line,
            format!(
                "job `{}` cannot combine `weighted` with `epsilon` early stopping",
                job.name
            ),
        ));
    }
    job.noise = if overrides.noiseless {
        NoiseModel::noiseless()
    } else {
        let defaults = NoiseModel::paper_defaults();
        NoiseModel::new(
            overrides
                .depolarizing
                .unwrap_or(defaults.depolarizing_prob()),
            overrides
                .damping
                .unwrap_or(defaults.amplitude_damping_prob()),
            overrides.phase_flip.unwrap_or(defaults.phase_flip_prob()),
        )
    };
    jobs.push(job);
    Ok(())
}

fn parse_source_value(value: &str, base_dir: Option<&Path>) -> Result<CircuitSource, String> {
    let mut parts = value.split_whitespace();
    match parts.next() {
        Some("generate") => {
            let kind = parts
                .next()
                .ok_or("`circuit = generate` needs a generator name")?;
            let min = generators::min_qubits(kind)
                .ok_or_else(|| format!("unknown generator `{kind}`"))?;
            let qubits: usize = parts
                .next()
                .ok_or("`circuit = generate` needs a qubit count")?
                .parse()
                .map_err(|_| "qubit count must be an integer".to_string())?;
            if qubits < min {
                return Err(format!(
                    "generator `{kind}` needs at least {min} qubit(s), got {qubits}"
                ));
            }
            if parts.next().is_some() {
                return Err("trailing tokens after generator spec".to_string());
            }
            Ok(CircuitSource::Generator {
                kind: kind.to_string(),
                qubits,
            })
        }
        Some("qasm") => {
            let raw: PathBuf = parts.collect::<Vec<_>>().join(" ").into();
            if raw.as_os_str().is_empty() {
                return Err("`circuit = qasm` needs a file path".to_string());
            }
            let path = match base_dir {
                Some(base) if raw.is_relative() => base.join(raw),
                _ => raw,
            };
            Ok(CircuitSource::Qasm(path))
        }
        _ => Err(format!(
            "`circuit` must be `generate <name> <qubits>` or `qasm <path>`, got `{value}`"
        )),
    }
}

fn parse_num(key: &str, value: &str, line: usize) -> Result<u64, JobFileError> {
    value
        .parse()
        .map_err(|_| JobFileError::new(line, format!("`{key}` must be an integer, got `{value}`")))
}

fn parse_float(key: &str, value: &str, line: usize) -> Result<f64, JobFileError> {
    value
        .parse()
        .map_err(|_| JobFileError::new(line, format!("`{key}` must be a number, got `{value}`")))
}

fn parse_probability(key: &str, value: &str, line: usize) -> Result<f64, JobFileError> {
    let p = parse_float(key, value, line)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(JobFileError::new(
            line,
            format!("`{key}` must be a probability in [0, 1], got `{value}`"),
        ));
    }
    Ok(p)
}

fn parse_bool(key: &str, value: &str, line: usize) -> Result<bool, JobFileError> {
    match value {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(JobFileError::new(
            line,
            format!("`{key}` must be true or false, got `{other}`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: &str = "\
# demo
[job ghz]
circuit = generate ghz 8
shots = 4000
seed = 11
noiseless = true
epsilon = 0.05

[job qftfile]
circuit = qasm sub/qft.qasm
backend = dense
opt = 2
depolarizing = 0.01
weighted = true
";

    #[test]
    fn parses_a_mixed_file() {
        let jobs = parse_str(MIXED, Some(Path::new("/base"))).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "ghz");
        assert_eq!(
            jobs[0].source,
            CircuitSource::Generator {
                kind: "ghz".into(),
                qubits: 8
            }
        );
        assert_eq!(jobs[0].shots, 4000);
        assert_eq!(jobs[0].seed, 11);
        assert!(jobs[0].noise.is_noiseless());
        assert_eq!(jobs[0].epsilon, Some(0.05));
        assert_eq!(jobs[0].check_interval, DEFAULT_CHECK_INTERVAL);

        assert_eq!(jobs[1].backend, BackendKind::Statevector);
        assert_eq!(jobs[1].opt, OptLevel::O2);
        assert_eq!(
            jobs[1].source,
            CircuitSource::Qasm(PathBuf::from("/base/sub/qft.qasm"))
        );
        // Noise overrides start from the paper defaults.
        assert!((jobs[1].noise.depolarizing_prob() - 0.01).abs() < 1e-12);
        assert!(
            (jobs[1].noise.amplitude_damping_prob()
                - NoiseModel::paper_defaults().amplitude_damping_prob())
            .abs()
                < 1e-12
        );
        // Default seed is derived from the job index.
        assert_eq!(jobs[1].seed, 2022);
        assert_eq!(jobs[1].epsilon, None);
        assert!(jobs[1].weighted);
        assert!(!jobs[0].weighted);
    }

    #[test]
    fn timeout_ms_is_parsed_and_validated() {
        let text = "\
[job bounded]
circuit = generate ghz 3
timeout_ms = 1500
[job unbounded]
circuit = generate ghz 3
";
        let jobs = parse_str(text, None).unwrap();
        assert_eq!(jobs[0].timeout_ms, Some(1500));
        assert_eq!(jobs[1].timeout_ms, None);

        let err = parse_str("[job a]\ncircuit = generate ghz 3\ntimeout_ms = 0", None).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("positive"), "{}", err.message);
    }

    #[test]
    fn noise_overrides_do_not_leak_between_stanzas() {
        let text = "\
[job a]
circuit = generate ghz 3
noiseless = true
[job b]
circuit = generate ghz 3
";
        let jobs = parse_str(text, None).unwrap();
        assert!(jobs[0].noise.is_noiseless());
        assert!(!jobs[1].noise.is_noiseless());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("shots = 10", 1, "before the first"),
            ("[job a]\nwhat = 1", 2, "unknown key"),
            ("[job a]\ncircuit = generate nope 4", 2, "unknown generator"),
            (
                "[job a]\ncircuit = generate ghz 4\n[job a]\ncircuit = generate ghz 4",
                3,
                "duplicate",
            ),
            ("[job a]\nshots = 5", 1, "missing the `circuit` key"),
            (
                "[job a]\ncircuit = generate ghz 4\nepsilon = 1.5",
                3,
                "epsilon",
            ),
            (
                "[job a]\ncircuit = generate ghz 4\ncheck = 0",
                3,
                "positive",
            ),
            (
                "[job a]\ncircuit = generate ghz 4\ndepolarizing = 2.0",
                3,
                "[0, 1]",
            ),
            (
                "[job a]\ncircuit = generate ghz 4\nweighted = maybe",
                3,
                "must be true or false",
            ),
            (
                "[job a]\ncircuit = generate ghz 4\nweighted = true\nepsilon = 0.05",
                1,
                "cannot combine `weighted`",
            ),
            ("[job ]\ncircuit = generate ghz 4", 1, "empty"),
            ("[nope a]\ncircuit = generate ghz 4", 1, "malformed"),
            ("[jobfoo]\ncircuit = generate ghz 4", 1, "malformed"),
            ("", 0, "no [job"),
        ];
        for (text, line, needle) in cases {
            let err = parse_str(text, None).unwrap_err();
            assert_eq!(err.line, *line, "{text:?}: {err}");
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn load_circuit_builds_generators() {
        let jobs = parse_str("[job g]\ncircuit = generate qft 5", None).unwrap();
        let circuit = jobs[0].load_circuit().unwrap();
        assert_eq!(circuit.num_qubits(), 5);
    }

    #[test]
    fn generators_with_higher_minimums_parse_without_panicking() {
        // Regression: name validation used to probe every generator at 2
        // qubits, which tripped qaoa's `n >= 3` precondition assert.
        let jobs = parse_str("[job q]\ncircuit = generate qaoa 6", None).unwrap();
        assert_eq!(jobs[0].load_circuit().unwrap().num_qubits(), 6);
    }

    #[test]
    fn too_few_qubits_is_a_parse_error_not_a_panic() {
        for (text, needle) in [
            ("[job g]\ncircuit = generate grover 1", "at least 2"),
            ("[job q]\ncircuit = generate qaoa 2", "at least 3"),
            ("[job b]\ncircuit = generate bv 1", "at least 2"),
        ] {
            let err = parse_str(text, None).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn load_circuit_reports_bad_qubit_counts_instead_of_panicking() {
        // A spec constructed programmatically can bypass parse-time checks;
        // load_circuit must still fail gracefully so the scheduler reports
        // JobStatus::Failed instead of aborting the whole batch.
        let spec = JobSpec::new(
            "tiny",
            CircuitSource::Generator {
                kind: "grover".to_string(),
                qubits: 1,
            },
            0,
        );
        let err = spec.load_circuit().unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
    }

    #[test]
    fn load_circuit_reports_missing_qasm_files() {
        let jobs = parse_str("[job q]\ncircuit = qasm /does/not/exist.qasm", None).unwrap();
        assert!(jobs[0].load_circuit().unwrap_err().contains("cannot read"));
    }
}
