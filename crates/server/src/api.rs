//! Request / response schemas of the job API.
//!
//! This module is pure data plumbing: it decodes `POST /v1/jobs` bodies
//! into a validated [`JobInput`], derives the job's **canonical key** (the
//! string the content-addressed result cache hashes), and renders the
//! JobReport-shaped result payload. No sockets, no locks — everything here
//! is unit-testable in isolation.
//!
//! See `docs/server.md` for the wire-level reference of every field.

use std::collections::BTreeMap;
use std::hash::Hasher as _;

use qsdd_batch::{JobReport, JobStatus};
use qsdd_circuit::{generators, qasm, Circuit};
use qsdd_core::fxhash::FxHasher;
use qsdd_core::{BackendKind, Observable, OptLevel, StochasticOutcome, WeightedOptions};
use qsdd_json::Value;
use qsdd_noise::NoiseModel;

/// Hard shot cap per job: bounds both a job's CPU time and its transient
/// memory — the deduplicating driver holds per-shot presample state
/// (tens of bytes per shot, plus a per-shot record when observables are
/// requested), so the cap keeps one untrusted request's footprint in the
/// tens of megabytes per worker. Larger studies belong in `qsdd_cli
/// batch`, whose round-based scheduler bounds memory by the round size.
pub const MAX_SHOTS: usize = 1_000_000;
/// Qubit cap on the decision-diagram back-end (outcomes are `u64` basis
/// indices).
pub const MAX_DD_QUBITS: usize = 63;
/// Qubit cap on the dense statevector back-end: a 24-qubit state is 256 MiB
/// per worker, plus up to [`qsdd_core::dense_backend::CHECKPOINT_BYTES`] of fork copies.
pub const MAX_DENSE_QUBITS: usize = 24;
/// Enumeration-budget cap on weighted jobs: each enumerated pattern is one
/// full trajectory simulation, so the cap bounds a weighted request's CPU
/// the same way [`MAX_SHOTS`] bounds a sampled one (and bounds the
/// enumerator's frontier heap, which grows with the budget).
pub const MAX_WEIGHTED_PATTERNS: u64 = 100_000;

/// A fully validated job submission.
#[derive(Clone, Debug)]
pub struct JobInput {
    /// The circuit to simulate (untranspiled; `opt` is applied at
    /// execution).
    pub circuit: Circuit,
    /// The normalized OpenQASM 2.0 echo of the circuit, when the circuit is
    /// expressible in the parser's OpenQASM subset (`None` e.g. for
    /// generator circuits using gates with three or more controls).
    pub circuit_qasm: Option<String>,
    /// Simulation back-end.
    pub backend: BackendKind,
    /// Number of stochastic shots.
    pub shots: usize,
    /// Master seed.
    pub seed: u64,
    /// Transpiler optimization level.
    pub opt: OptLevel,
    /// Noise model applied after every gate.
    pub noise: NoiseModel,
    /// Observables estimated over the shots, in request order.
    pub observables: Vec<Observable>,
    /// When set, the job runs through the weighted trajectory-enumeration
    /// driver with these knobs instead of sampling every shot.
    pub weighted: Option<WeightedOptions>,
    /// Wall-clock budget for the simulation in milliseconds; the job fails
    /// with reason `timed_out` when it cannot finish in time. It is part of
    /// the canonical key (when present): a timed-out failure must never be
    /// served as the cached answer for an unbounded submission of the same
    /// circuit, and vice versa.
    pub timeout_ms: Option<u64>,
}

impl JobInput {
    /// The canonical key of the job: a string that is equal exactly for
    /// submissions that must share one simulation and one cached result.
    ///
    /// Every float is encoded by its IEEE-754 bit pattern, so two requests
    /// spelling the same angle differently (`0.5` vs `5e-1`) still collide
    /// while genuinely different angles never do. The circuit is encoded
    /// structurally (not via its QASM echo) so circuits outside the QASM
    /// subset are cacheable too. The constant `|dedup=true` segment keeps
    /// every content address — and with it every persisted result — what it
    /// was when deduplication could still be switched off.
    pub fn canonical_key(&self) -> String {
        let mut key = String::with_capacity(256);
        key.push_str(&canonical_circuit(&self.circuit));
        key.push_str(&format!(
            "|backend={}|shots={}|seed={}|opt={:?}|dedup=true|noise={:016x},{:016x},{:016x}",
            self.backend,
            self.shots,
            self.seed,
            self.opt,
            self.noise.depolarizing_prob().to_bits(),
            self.noise.amplitude_damping_prob().to_bits(),
            self.noise.phase_flip_prob().to_bits(),
        ));
        if let Some(timeout_ms) = self.timeout_ms {
            // Only-when-present keeps every pre-existing key (and with it
            // every previously persisted result) byte-identical.
            key.push_str(&format!("|timeout_ms={timeout_ms}"));
        }
        if let Some(weighted) = &self.weighted {
            // Absent and `"weighted": false` collapse to the same key (both
            // mean ordinary sampling), so older cached results stay valid.
            key.push_str(&format!(
                "|weighted=cutoff:{:016x},max:{},exact:{}",
                weighted.mass_cutoff.to_bits(),
                weighted.max_patterns,
                weighted.exact_histogram,
            ));
        }
        for observable in &self.observables {
            match observable {
                Observable::QubitExcitation(q) => key.push_str(&format!("|exc={q}")),
                Observable::BasisProbability(index) => key.push_str(&format!("|basis={index}")),
                Observable::Fidelity(_) => unreachable!("fidelity is not exposed over HTTP"),
            }
        }
        key
    }

    /// The content address of the job: the FxHash of
    /// [`canonical_key`](Self::canonical_key), rendered as the job id
    /// (`j` + 16 hex digits).
    pub fn content_address(&self) -> String {
        content_address_of(&self.canonical_key())
    }
}

/// [`JobInput::content_address`] over an already-built canonical key, so
/// hot paths that need both never serialize the key twice.
pub fn content_address_of(canonical_key: &str) -> String {
    let mut hasher = FxHasher::default();
    hasher.write(canonical_key.as_bytes());
    format!("j{:016x}", hasher.finish())
}

/// A total, injective text encoding of a circuit (gate kinds, qubits and
/// parameter bit patterns).
fn canonical_circuit(circuit: &Circuit) -> String {
    use qsdd_circuit::{Gate, Operation};
    let mut out = format!("q={};c={}", circuit.num_qubits(), circuit.num_clbits());
    let push_gate = |out: &mut String, gate: &Gate| {
        out.push_str(gate.name());
        let params: Vec<f64> = match *gate {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => vec![t],
            Gate::U2(a, b) => vec![a, b],
            Gate::U3(a, b, c) => vec![a, b, c],
            _ => Vec::new(),
        };
        for p in params {
            out.push_str(&format!(":{:016x}", p.to_bits()));
        }
    };
    for op in circuit.operations() {
        out.push(';');
        match op {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                push_gate(&mut out, gate);
                for c in controls {
                    out.push_str(&format!(",c{c}"));
                }
                out.push_str(&format!(",t{target}"));
            }
            Operation::Swap { a, b } => out.push_str(&format!("swap,{a},{b}")),
            Operation::Measure { qubit, clbit } => out.push_str(&format!("m,{qubit},{clbit}")),
            Operation::Reset { qubit } => out.push_str(&format!("r,{qubit}")),
            Operation::Barrier => out.push('|'),
        }
    }
    out
}

/// Decodes and validates a `POST /v1/jobs` body.
///
/// Unknown top-level fields are rejected (a typoed `"shot"` must not
/// silently run with the default), and every limit violation names the
/// offending value. The returned message is client-facing (`400`).
pub fn parse_job_request(body: &str) -> Result<JobInput, String> {
    let value = qsdd_json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let Value::Object(pairs) = &value else {
        return Err("request body must be a JSON object".to_string());
    };
    for (key, _) in pairs {
        if !matches!(
            key.as_str(),
            "circuit"
                | "shots"
                | "seed"
                | "backend"
                | "opt"
                | "noise"
                | "observables"
                | "weighted"
                | "timeout_ms"
        ) {
            return Err(format!("unknown field `{key}`"));
        }
    }

    let circuit = parse_circuit(value.get("circuit").ok_or("missing `circuit`")?)?;

    let shots = match value.get("shots") {
        None => 1000,
        Some(v) => v.as_u64().ok_or("`shots` must be a non-negative integer")? as usize,
    };
    if shots > MAX_SHOTS {
        return Err(format!("`shots` {shots} exceeds the limit of {MAX_SHOTS}"));
    }

    let seed = match value.get("seed") {
        None => 2021,
        Some(v) => v.as_u64().ok_or("`seed` must be a non-negative integer")?,
    };

    let backend = match value.get("backend") {
        None => BackendKind::Auto,
        Some(v) => v
            .as_str()
            .ok_or("`backend` must be a string")?
            .parse::<BackendKind>()?,
    };
    // `auto` runs a job this wide on decision diagrams.
    let (engine, qubit_cap) = match backend {
        BackendKind::Auto | BackendKind::DecisionDiagram => {
            (BackendKind::DecisionDiagram, MAX_DD_QUBITS)
        }
        BackendKind::Statevector => (backend, MAX_DENSE_QUBITS),
    };
    if circuit.num_qubits() > qubit_cap {
        return Err(format!(
            "{} qubits exceed the `{engine}` back-end's limit of {qubit_cap}",
            circuit.num_qubits()
        ));
    }

    let opt = match value.get("opt") {
        None => OptLevel::O0,
        Some(v) => match v.as_u64() {
            Some(0) => OptLevel::O0,
            Some(1) => OptLevel::O1,
            Some(2) => OptLevel::O2,
            _ => return Err("`opt` must be 0, 1 or 2".to_string()),
        },
    };

    let noise = parse_noise(value.get("noise"))?;
    let observables = parse_observables(value.get("observables"), &circuit)?;
    let weighted = parse_weighted(value.get("weighted"))?;
    if let Some(options) = &weighted {
        if shots == 0 && !options.exact_histogram {
            return Err("weighted jobs with `shots` 0 must set `exact_histogram` \
                 (there are no samples to synthesize counts from)"
                .to_string());
        }
    }

    let timeout_ms = match value.get("timeout_ms") {
        None => None,
        Some(v) => {
            let ms = v
                .as_u64()
                .ok_or("`timeout_ms` must be a positive integer")?;
            if ms == 0 {
                return Err("`timeout_ms` must be at least 1".to_string());
            }
            Some(ms)
        }
    };

    let circuit_qasm = qasm::write_source(&circuit).ok();
    Ok(JobInput {
        circuit,
        circuit_qasm,
        backend,
        shots,
        seed,
        opt,
        noise,
        observables,
        weighted,
        timeout_ms,
    })
}

/// `"weighted": true` (default knobs), `false` (ordinary sampling) or an
/// object overriding `mass_cutoff` / `max_patterns` / `exact_histogram`.
fn parse_weighted(value: Option<&Value>) -> Result<Option<WeightedOptions>, String> {
    let Some(value) = value else {
        return Ok(None);
    };
    if let Some(flag) = value.as_bool() {
        return Ok(flag.then(WeightedOptions::default));
    }
    reject_unknown_keys(
        value,
        "weighted",
        &["mass_cutoff", "max_patterns", "exact_histogram"],
    )?;
    let mut options = WeightedOptions::default();
    if let Some(cutoff) = value.get("mass_cutoff") {
        let cutoff = cutoff.as_f64().ok_or("`mass_cutoff` must be a number")?;
        if !(cutoff > 0.0 && cutoff <= 1.0) {
            return Err(format!(
                "`mass_cutoff` must be a probability in (0, 1], got {cutoff}"
            ));
        }
        options.mass_cutoff = cutoff;
    }
    if let Some(max) = value.get("max_patterns") {
        let max = max
            .as_u64()
            .ok_or("`max_patterns` must be a non-negative integer")?;
        if max > MAX_WEIGHTED_PATTERNS {
            return Err(format!(
                "`max_patterns` {max} exceeds the limit of {MAX_WEIGHTED_PATTERNS}"
            ));
        }
        options.max_patterns = max;
    }
    if let Some(exact) = value.get("exact_histogram") {
        options.exact_histogram = exact
            .as_bool()
            .ok_or("`exact_histogram` must be a boolean")?;
    }
    Ok(Some(options))
}

/// `{"generator": "...", "qubits": N}` or `{"qasm": "..."}`.
///
/// The global qubit cap ([`MAX_DD_QUBITS`], the larger of the two back-end
/// limits) is enforced **before** any circuit is constructed: generator
/// builders and register broadcasts do work proportional to the qubit
/// count (quadratic for `qft`), so an unchecked count in a tiny request
/// could pin a handler thread or exhaust memory. The tighter dense-back-end
/// cap is checked afterwards by the caller.
fn parse_circuit(value: &Value) -> Result<Circuit, String> {
    reject_unknown_keys(value, "circuit", &["generator", "qubits", "qasm"])?;
    match (value.get("generator"), value.get("qasm")) {
        (Some(name), None) => {
            let name = name.as_str().ok_or("`generator` must be a string")?;
            let qubits = value
                .get("qubits")
                .and_then(Value::as_u64)
                .ok_or("generator circuits need a `qubits` integer")?;
            if qubits > MAX_DD_QUBITS as u64 {
                return Err(format!(
                    "{qubits} qubits exceed the limit of {MAX_DD_QUBITS}"
                ));
            }
            generators::by_name(name, qubits as usize)
        }
        (None, Some(source)) => {
            let source = source.as_str().ok_or("`qasm` must be a string")?;
            qasm::parse_source_with_limit(source, MAX_DD_QUBITS).map_err(|e| e.to_string())
        }
        _ => Err("`circuit` must carry exactly one of `generator` or `qasm`".to_string()),
    }
}

/// Rejects keys outside `known` so a typoed option cannot silently run
/// with its default (the same strictness the top-level fields get).
fn reject_unknown_keys(value: &Value, context: &str, known: &[&str]) -> Result<(), String> {
    let Value::Object(pairs) = value else {
        return Err(format!("`{context}` must be an object"));
    };
    for (key, _) in pairs {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in `{context}`"));
        }
    }
    Ok(())
}

/// `{"noiseless": true}` or per-channel overrides of the paper defaults.
fn parse_noise(value: Option<&Value>) -> Result<NoiseModel, String> {
    let Some(value) = value else {
        return Ok(NoiseModel::paper_defaults());
    };
    reject_unknown_keys(
        value,
        "noise",
        &["noiseless", "depolarizing", "damping", "phaseflip"],
    )?;
    if let Some(noiseless) = value.get("noiseless") {
        // Strict like every other field: a non-boolean value must error,
        // not silently simulate with full noise.
        if noiseless.as_bool().ok_or("`noiseless` must be a boolean")? {
            return Ok(NoiseModel::noiseless());
        }
    }
    let defaults = NoiseModel::paper_defaults();
    let prob = |key: &str, default: f64| -> Result<f64, String> {
        match value.get(key) {
            None => Ok(default),
            Some(v) => {
                let p = v
                    .as_f64()
                    .ok_or_else(|| format!("`{key}` must be a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("`{key}` must be a probability in [0, 1], got {p}"));
                }
                Ok(p)
            }
        }
    };
    Ok(NoiseModel::new(
        prob("depolarizing", defaults.depolarizing_prob())?,
        prob("damping", defaults.amplitude_damping_prob())?,
        prob("phaseflip", defaults.phase_flip_prob())?,
    ))
}

/// `[{"qubit_excitation": q}, {"basis_probability": i}, ...]`.
fn parse_observables(value: Option<&Value>, circuit: &Circuit) -> Result<Vec<Observable>, String> {
    let Some(value) = value else {
        return Ok(Vec::new());
    };
    let entries = value.as_array().ok_or("`observables` must be an array")?;
    let mut observables = Vec::with_capacity(entries.len());
    for entry in entries {
        reject_unknown_keys(
            entry,
            "observables",
            &["qubit_excitation", "basis_probability"],
        )?;
        if !matches!(entry, Value::Object(pairs) if pairs.len() == 1) {
            return Err(
                "each observable must carry exactly one of `qubit_excitation` or \
                 `basis_probability`"
                    .to_string(),
            );
        }
        let observable = if let Some(q) = entry.get("qubit_excitation").and_then(Value::as_u64) {
            if q as usize >= circuit.num_qubits() {
                return Err(format!("observable qubit {q} is out of range"));
            }
            Observable::QubitExcitation(q as usize)
        } else if let Some(index) = entry.get("basis_probability").and_then(Value::as_u64) {
            if circuit.num_qubits() < 64 && index >= 1u64 << circuit.num_qubits() {
                return Err(format!("basis index {index} is out of range"));
            }
            Observable::BasisProbability(index)
        } else {
            return Err(
                "each observable must carry `qubit_excitation` or `basis_probability`".to_string(),
            );
        };
        observables.push(observable);
    }
    Ok(observables)
}

/// Renders the deterministic, cacheable result payload of a completed job.
///
/// The payload is the [`JobReport`] results object (exactly what
/// `qsdd_cli batch` writes per job, minus wall-clock timing) extended with
/// the dedup `live_shots` counter, the weighted `tail_shots` count and
/// exact `distribution` (weighted jobs only) and — when the job requested
/// observables — their estimates. Everything in it is a pure function of the canonical
/// key, which is what makes cached responses byte-identical to freshly
/// computed ones. In particular the report's `name` is the job's content
/// address, **not** the circuit's display name: equivalent submissions
/// (a generator spec vs. its inline-QASM spelling) share one cache cell,
/// so a name outside the canonical key would leak which spelling arrived
/// first.
pub fn result_payload(input: &JobInput, outcome: &StochasticOutcome) -> String {
    let report = JobReport {
        name: input.content_address(),
        backend: outcome.backend.to_string(),
        status: JobStatus::Completed,
        qubits: input.circuit.num_qubits(),
        shots_requested: input.shots as u64,
        shots_executed: outcome.shots as u64,
        early_stopped: false,
        counts: outcome
            .counts
            .iter()
            .map(|(&outcome, &count)| (outcome, count))
            .collect::<BTreeMap<u64, u64>>(),
        error_events: outcome.error_events,
        dd_nodes_avg: outcome.dd_nodes_avg,
        dd_nodes_peak: outcome.dd_nodes_peak,
        unique_trajectories: match (&outcome.weighted, &outcome.dedup) {
            (Some(stats), _) => stats.enumerated_trajectories + stats.tail_shots,
            (None, Some(stats)) => stats.unique_trajectories,
            (None, None) => outcome.shots as u64,
        },
        dedup_hit_rate: outcome.dedup_hit_rate(),
        covered_mass: outcome
            .weighted
            .as_ref()
            .map_or(0.0, |stats| stats.covered_mass),
        enumerated_trajectories: outcome
            .weighted
            .as_ref()
            .map_or(0, |stats| stats.enumerated_trajectories),
        wall_time: outcome.wall_time,
        // Timing fields never reach the payload (results_value drops them);
        // the per-stage breakdown lives in the job envelope instead.
        stage_timings: Default::default(),
    };
    let Value::Object(mut pairs) = report.results_value() else {
        unreachable!("results_value always builds an object");
    };
    pairs.push((
        "live_shots".to_string(),
        Value::from(outcome.dedup.map_or(0, |stats| stats.live_shots)),
    ));
    if let Some(stats) = &outcome.weighted {
        pairs.push(("tail_shots".to_string(), Value::from(stats.tail_shots)));
        // The exact weighted distribution (outcome -> probability), the
        // quantity the enumeration computed; counts above are its
        // largest-remainder rounding to integer shots.
        pairs.push((
            "distribution".to_string(),
            Value::Object(
                stats
                    .distribution
                    .iter()
                    .map(|&(outcome, probability)| (format!("{outcome}"), Value::from(probability)))
                    .collect(),
            ),
        ));
    }
    if !input.observables.is_empty() {
        pairs.push((
            "observable_estimates".to_string(),
            Value::Array(
                outcome
                    .observable_estimates
                    .iter()
                    .map(|&estimate| Value::from(estimate))
                    .collect(),
            ),
        ));
    }
    Value::Object(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_core::{execute, ExecMode, ExecPlan, Placement};

    fn ghz_request(extra: &str) -> String {
        format!(r#"{{"circuit":{{"generator":"ghz","qubits":5}},"shots":200,"seed":7{extra}}}"#)
    }

    #[test]
    fn parses_a_generator_submission_with_defaults() {
        let input = parse_job_request(&ghz_request("")).unwrap();
        assert_eq!(input.circuit.num_qubits(), 5);
        assert_eq!(input.shots, 200);
        assert_eq!(input.seed, 7);
        assert_eq!(input.backend, BackendKind::Auto);
        assert_eq!(input.opt, OptLevel::O0);
        assert!(!input.noise.is_noiseless());
        assert!(input.observables.is_empty());
        assert!(input.circuit_qasm.is_some());
    }

    #[test]
    fn intra_threads_is_rejected_as_an_unknown_field() {
        // Shots are the only parallel axis: a per-job width is a typo like
        // any other, not a silently ignored knob.
        for width in ["1", "8"] {
            let extra = format!(r#","intra_threads":{width}"#);
            let err = parse_job_request(&ghz_request(&extra)).unwrap_err();
            assert_eq!(err, "unknown field `intra_threads`");
        }
    }

    #[test]
    fn parses_inline_qasm_and_noise_overrides() {
        let body = r#"{
            "circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n"},
            "backend": "dense",
            "opt": 2,
            "noise": {"depolarizing": 0.01, "phaseflip": 0},
            "observables": [{"qubit_excitation": 1}, {"basis_probability": 3}]
        }"#;
        let input = parse_job_request(body).unwrap();
        assert_eq!(input.circuit.num_qubits(), 2);
        assert_eq!(input.backend, BackendKind::Statevector);
        assert_eq!(input.opt, OptLevel::O2);
        assert!((input.noise.depolarizing_prob() - 0.01).abs() < 1e-12);
        assert_eq!(input.noise.phase_flip_prob(), 0.0);
        // Unset channels keep the paper defaults.
        assert_eq!(
            input.noise.amplitude_damping_prob(),
            NoiseModel::paper_defaults().amplitude_damping_prob()
        );
        assert_eq!(input.observables.len(), 2);
    }

    #[test]
    fn rejects_invalid_submissions_with_messages() {
        let cases: &[(&str, &str)] = &[
            ("not json", "invalid JSON"),
            ("[]", "must be a JSON object"),
            ("{}", "missing `circuit`"),
            (r#"{"circuit":{}}"#, "exactly one of"),
            (
                r#"{"circuit":{"generator":"nope","qubits":4}}"#,
                "unknown generator",
            ),
            (
                r#"{"circuit":{"generator":"grover","qubits":1}}"#,
                "at least 2",
            ),
            (
                r#"{"circuit":{"qasm":"OPENQASM 2.0; qreg q[1]; boom q[0];"}}"#,
                "unknown gate",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"shot":1}"#,
                "unknown field `shot`",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"shots":99999999999}"#,
                "exceeds the limit",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":30},"backend":"dense"}"#,
                "limit of 24",
            ),
            // Oversized counts are rejected before any construction work
            // (a qft at this size would otherwise build ~5e13 gates).
            (
                r#"{"circuit":{"generator":"qft","qubits":9999999}}"#,
                "exceed the limit",
            ),
            (
                r#"{"circuit":{"qasm":"OPENQASM 2.0; qreg q[9999999]; h q;"}}"#,
                "limit of 63",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"opt":9}"#,
                "`opt` must be",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"noise":{"damping":1.5}}"#,
                "[0, 1]",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"noise":{"noiseless":"true"}}"#,
                "`noiseless` must be a boolean",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"observables":[{"qubit_excitation":9}]}"#,
                "out of range",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"observables":[{"what":1}]}"#,
                "unknown field `what` in `observables`",
            ),
            // Nested objects are as strict as the top level: a typo must
            // not silently fall back to a default.
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"noise":{"depolarising":0.2}}"#,
                "unknown field `depolarising` in `noise`",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4,"shot":5000}}"#,
                "unknown field `shot` in `circuit`",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"observables":[{"qubit_excitation":1,"basis_probability":0}]}"#,
                "each observable",
            ),
            // Weighted knobs are validated as strictly as the rest.
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":"yes"}"#,
                "`weighted` must be an object",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":{"cutoff":0.9}}"#,
                "unknown field `cutoff` in `weighted`",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":{"mass_cutoff":0}}"#,
                "(0, 1]",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":{"mass_cutoff":1.5}}"#,
                "(0, 1]",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":{"max_patterns":100000000}}"#,
                "exceeds the limit of 100000",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"weighted":{"exact_histogram":1}}"#,
                "`exact_histogram` must be a boolean",
            ),
            (
                r#"{"circuit":{"generator":"ghz","qubits":4},"shots":0,"weighted":true}"#,
                "must set `exact_histogram`",
            ),
        ];
        for (body, needle) in cases {
            let err = parse_job_request(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    /// Like [`ghz_request`] but without a fixed seed, so variant fields can
    /// override any knob without producing duplicate JSON keys.
    fn bare_request(extra: &str) -> String {
        format!(r#"{{"circuit":{{"generator":"ghz","qubits":5}},"shots":200{extra}}}"#)
    }

    #[test]
    fn canonical_keys_identify_identical_jobs() {
        let a = parse_job_request(&bare_request("")).unwrap();
        let b = parse_job_request(&bare_request("")).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.content_address(), b.content_address());
        // Every knob participates in the key.
        for extra in [
            r#","seed":8"#,
            r#","backend":"dense""#,
            r#","opt":1"#,
            r#","noise":{"noiseless":true}"#,
            r#","observables":[{"qubit_excitation":0}]"#,
            r#","weighted":true"#,
            r#","weighted":{"mass_cutoff":0.5}"#,
            r#","weighted":{"max_patterns":16}"#,
            r#","weighted":{"exact_histogram":true}"#,
            r#","timeout_ms":5000"#,
        ] {
            let other = parse_job_request(&bare_request(extra)).unwrap();
            assert_ne!(
                a.canonical_key(),
                other.canonical_key(),
                "{extra} did not change the key"
            );
        }
        let other =
            parse_job_request(&bare_request("").replace(r#""qubits":5"#, r#""qubits":6"#)).unwrap();
        assert_ne!(a.canonical_key(), other.canonical_key());
        // `"weighted": false` means ordinary sampling, exactly like leaving
        // the field out — the two spellings share one cache cell.
        let disabled = parse_job_request(&bare_request(r#","weighted":false"#)).unwrap();
        assert_eq!(a.canonical_key(), disabled.canonical_key());
    }

    #[test]
    fn a_default_submission_keeps_its_content_address() {
        let input = parse_job_request(&bare_request("")).unwrap();
        assert_eq!(
            input.canonical_key(),
            "q=5;c=5;h,t0;x,c0,t1;x,c0,t2;x,c0,t3;x,c0,t4|backend=auto|shots=200|seed=2021\
             |opt=O0|dedup=true|noise=3f50624dd2f1a9fc,3f60624dd2f1a9fc,3f50624dd2f1a9fc"
        );
        assert_eq!(input.content_address(), "j236e13de3e1690f5");
        // Deduplication is no longer a knob: the field is a typo like any
        // other, not a silently ignored switch.
        for value in ["false", "true"] {
            let extra = format!(r#","dedup":{value}"#);
            let err = parse_job_request(&bare_request(&extra)).unwrap_err();
            assert_eq!(err, "unknown field `dedup`");
        }
    }

    #[test]
    fn timeout_ms_is_validated_and_joins_the_key_only_when_present() {
        // Absent by default, and an absent timeout keeps the historical key
        // (no trailing `|timeout_ms=` marker) so persisted results stay
        // addressable across upgrades.
        let unbounded = parse_job_request(&bare_request("")).unwrap();
        assert_eq!(unbounded.timeout_ms, None);
        assert!(!unbounded.canonical_key().contains("timeout_ms"));
        // Present: parses and distinguishes the key per budget.
        let bounded = parse_job_request(&bare_request(r#","timeout_ms":250"#)).unwrap();
        assert_eq!(bounded.timeout_ms, Some(250));
        let other = parse_job_request(&bare_request(r#","timeout_ms":251"#)).unwrap();
        assert_ne!(bounded.canonical_key(), other.canonical_key());
        // Invalid budgets are rejected with pointed messages.
        let zero = parse_job_request(&bare_request(r#","timeout_ms":0"#)).unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        let text = parse_job_request(&bare_request(r#","timeout_ms":"soon""#)).unwrap_err();
        assert!(text.contains("positive integer"), "{text}");
    }

    #[test]
    fn weighted_submissions_parse_their_knobs() {
        let input = parse_job_request(&bare_request(r#","weighted":true"#)).unwrap();
        assert_eq!(input.weighted, Some(WeightedOptions::default()));
        let input = parse_job_request(&bare_request(
            r#","weighted":{"mass_cutoff":0.75,"max_patterns":32,"exact_histogram":true}"#,
        ))
        .unwrap();
        let options = input.weighted.unwrap();
        assert_eq!(options.mass_cutoff, 0.75);
        assert_eq!(options.max_patterns, 32);
        assert!(options.exact_histogram);
        // Zero shots are fine once the exact histogram is requested.
        let body = r#"{"circuit":{"generator":"ghz","qubits":5},"shots":0,"weighted":{"exact_histogram":true}}"#;
        assert!(parse_job_request(body).is_ok());
    }

    #[test]
    fn equivalent_spellings_share_a_canonical_key() {
        // A generator submission and the equivalent inline QASM collapse to
        // the same content address (same operations, same knobs).
        let generated = parse_job_request(&ghz_request("")).unwrap();
        let qasm = generated.circuit_qasm.clone().unwrap();
        let inline = parse_job_request(&format!(
            r#"{{"circuit":{{"qasm":{}}},"shots":200,"seed":7}}"#,
            Value::from(qasm.as_str())
        ))
        .unwrap();
        assert_eq!(generated.content_address(), inline.content_address());
    }

    #[test]
    fn result_payload_is_deterministic_and_parseable() {
        let input = parse_job_request(&ghz_request("")).unwrap();
        let engine = qsdd_core::ShotEngine::new(
            &input.circuit,
            input.backend,
            input.noise,
            input.seed,
            input.opt,
        );
        let mut ctx = engine.new_context();
        let plan = ExecPlan::new(ExecMode::Dedup, input.shots, &input.observables);
        let outcome = execute(&engine, &plan, Placement::Inline(&mut ctx)).unwrap();
        let payload = result_payload(&input, &outcome);
        let again = execute(&engine, &plan, Placement::Inline(&mut ctx)).unwrap();
        assert_eq!(payload, result_payload(&input, &again));
        let parsed = qsdd_json::parse(&payload).unwrap();
        assert_eq!(
            parsed.get("shots_executed").and_then(Value::as_u64),
            Some(200)
        );
        assert!(
            parsed.get("wall_time_secs").is_none(),
            "timing must stay out"
        );
        // The JobReport core of the payload parses back through the batch
        // crate's own reader.
        assert!(JobReport::from_value(&parsed).is_ok());
    }
}
