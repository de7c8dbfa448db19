//! The metric catalogue and the result one run prints.
//!
//! `BENCHMARK.json` lists exactly the names below; `--manifest` prints them
//! so the file is generated from this table rather than kept in step by
//! hand.

use std::collections::BTreeMap;

use crate::stats;
use crate::trace::Trace;
use crate::workloads::WORKLOADS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: name, unit, which direction is better, and the
/// share of the parent's median it may worsen by.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one of them.
///
/// The timing bounds are the widest the contract allows: on the machine the
/// baseline was taken on, ten-run spreads of the timing metrics were 3 to
/// 15 % within a quiet period and the machine itself shifted by up to 40 %
/// between periods (see `BASELINE.json`). Memory repeats within 7 %.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// The per-layer metrics of a `--trace 1` run: `(name, unit, better)`.
/// Names are `<layer>.<metric>` with the crate names as layers. A layer the
/// workload never enters reports `0`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("machine.calibration_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    // Self time per operation, from the span tree.
    ("bench.self_ms_per_op", "ms", "lower"),
    ("circuit.self_ms_per_op", "ms", "lower"),
    ("transpile.self_ms_per_op", "ms", "lower"),
    ("noise.self_ms_per_op", "ms", "lower"),
    ("core.self_ms_per_op", "ms", "lower"),
    ("batch.self_ms_per_op", "ms", "lower"),
    ("server.self_ms_per_op", "ms", "lower"),
    ("json.self_ms_per_op", "ms", "lower"),
    // circuit / transpile: the front end.
    ("circuit.qasm_parse_us_per_gate", "us", "lower"),
    ("circuit.qasm_write_us_per_gate", "us", "lower"),
    ("transpile.o2_us_per_gate", "us", "lower"),
    ("transpile.gates_kept_share", "share", "lower"),
    // noise.
    ("noise.presample_ns_per_shot", "ns", "lower"),
    ("noise.enumerate_us_per_pattern", "us", "lower"),
    // dd: the kernel micro-layer on the benchmark's own package.
    ("dd.mat_vec_ns_per_call.h", "ns", "lower"),
    ("dd.mat_vec_ns_per_call.cx", "ns", "lower"),
    ("dd.mat_vec_ns_per_call.cphase", "ns", "lower"),
    ("dd.mat_vec_ns_per_call.kraus", "ns", "lower"),
    ("dd.vec_add_ns_per_call", "ns", "lower"),
    ("dd.nodes_created_per_gate", "count", "lower"),
    ("dd.compute_hit_rate", "share", "higher"),
    ("dd.unique_hit_rate", "share", "higher"),
    ("dd.complex_lookup_ns", "ns", "lower"),
    ("dd.complex_values", "count", "lower"),
    ("dd.reset_transient_ns", "ns", "lower"),
    ("dd.sample_plan_us", "us", "lower"),
    ("dd.sample_ns_per_draw", "ns", "lower"),
    ("dd.measure_qubit_us", "us", "lower"),
    ("dd.clone_from_us", "us", "lower"),
    ("dd.peak_nodes", "count", "lower"),
    // core: compile and the trajectory drivers.
    ("core.compile_ms", "ms", "lower"),
    ("core.replay_us_per_trajectory", "us", "lower"),
    ("core.live_us_per_shot", "us", "lower"),
    ("core.unique_trajectory_share", "share", "lower"),
    ("core.live_share", "share", "lower"),
    ("core.scaling_2t", "share", "higher"),
    ("core.dense_ms_per_shot", "ms", "lower"),
    ("core.weighted_ms", "ms", "lower"),
    ("core.weighted_covered_mass", "share", "higher"),
    // batch / cli.
    ("batch.jobfile_parse_us", "us", "lower"),
    ("batch.run_batch_s", "s", "lower"),
    ("batch.interleave_gain", "ratio", "higher"),
    ("batch.report_json_us", "us", "lower"),
    ("batch.early_stop_shot_share", "share", "lower"),
    ("batch.frontend_stage_share", "share", "lower"),
    ("cli.spawn_ms", "ms", "lower"),
    // server / store.
    ("server.healthz_rtt_us_p50", "us", "lower"),
    ("server.parse_job_request_us", "us", "lower"),
    ("server.submit_rtt_us_p50", "us", "lower"),
    ("server.result_get_rtt_us_p50", "us", "lower"),
    ("server.result_payload_us", "us", "lower"),
    ("server.polls_per_cold_job", "count", "lower"),
    ("server.queue_wait_ms_p50", "ms", "lower"),
    ("server.cold_latency_ms_p50", "ms", "lower"),
    ("server.cold_latency_ms_p99", "ms", "lower"),
    ("server.hit_latency_ms_p50", "ms", "lower"),
    ("server.hit_latency_ms_p99", "ms", "lower"),
    ("server.cache_hit_share", "share", "higher"),
    ("server.evictions", "count", "lower"),
    ("server.rejected_429", "count", "lower"),
    ("server.coalesced", "count", "lower"),
    ("server.response_bytes_p50", "bytes", "lower"),
    ("store.append_ms_per_job", "ms", "lower"),
    ("store.log_bytes_per_record", "bytes", "lower"),
    ("store.restart_restore_ms", "ms", "lower"),
    // json.
    ("json.parse_mb_per_s", "MB/s", "higher"),
    ("json.write_mb_per_s", "MB/s", "higher"),
];

/// Drift of the machine control beyond which a run cannot be judged.
const DRIFT_LIMIT: f64 = 0.10;

/// What one run of one workload found.
pub struct Report {
    /// Operations attempted (timed operations plus the ones the output
    /// checks ran).
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Metric values with their sample counts, by catalogue name.
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    /// The machine control before and after the workload.
    pub calibration_ms: (f64, f64),
}

impl Report {
    /// An empty report carrying the calibration taken before the workload.
    pub fn new(calibration_before_ms: f64) -> Self {
        Report {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
            calibration_ms: (calibration_before_ms, calibration_before_ms),
        }
    }

    /// Records a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Records the four end-to-end metrics: the median operation wall time,
    /// operations per second of `elapsed_s` (summed operation wall for one
    /// caller, phase wall for concurrent clients), the peak resident set
    /// and the median set-up time.
    pub fn set_end_to_end(
        &mut self,
        walls_ms: &[f64],
        elapsed_s: f64,
        peak_rss_mb: f64,
        setups_s: &[f64],
    ) {
        let ops = walls_ms.len();
        self.set("op_wall_ms_p50", stats::median(walls_ms), ops);
        self.set("ops_per_s", ops as f64 / elapsed_s, ops);
        self.set("peak_rss_mb", peak_rss_mb, 1);
        self.set("setup_s", stats::median(setups_s), setups_s.len());
    }

    /// Records `<layer>.self_ms_per_op` for every layer the operation lanes
    /// of the span tree entered, and the span count.
    pub fn set_self_times(&mut self, trace: &Trace, ops: usize) {
        for (layer, self_ns) in trace.self_ns_by_layer() {
            let name = match layer {
                "bench" => "bench.self_ms_per_op",
                "circuit" => "circuit.self_ms_per_op",
                "transpile" => "transpile.self_ms_per_op",
                "noise" => "noise.self_ms_per_op",
                "core" => "core.self_ms_per_op",
                "batch" => "batch.self_ms_per_op",
                "server" => "server.self_ms_per_op",
                "json" => "json.self_ms_per_op",
                other => panic!("operation span in uncatalogued layer `{other}`"),
            };
            self.set(name, self_ns as f64 / 1e6 / ops as f64, ops);
        }
        self.set("trace.spans", trace.span_count() as f64, 1);
    }

    /// Records an output check; a failed check also counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push((name.into(), passed));
    }

    /// Counts one timed operation.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// Relative drift of the machine control across the workload.
    pub fn drift(&self) -> f64 {
        let (before, after) = self.calibration_ms;
        (after - before).abs() / before.min(after)
    }

    /// Prints the human-readable lines and, last, the one JSON line the
    /// driver reads. `traced` selects which catalogue the run must cover.
    pub fn print(&self, workload: &str, traced: bool) {
        for (name, passed) in &self.checks {
            println!("check {name}: {}", if *passed { "ok" } else { "FAILED" });
        }
        let (before, after) = self.calibration_ms;
        println!(
            "machine.calibration_ms before={before:.3} after={after:.3} drift={:.1}%",
            self.drift() * 100.0
        );
        if self.drift() > DRIFT_LIMIT {
            println!("unresolved: machine drift ({workload})");
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_ops_share = {failed_share} ({} of {})",
            self.failed, self.attempted
        );
        let catalogue: Vec<(&str, &str)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut rendered = Vec::new();
        for (name, unit) in catalogue {
            let (value, samples) = match name {
                "machine.calibration_ms" => ((before + after) / 2.0, 2),
                _ => self.metrics.get(name).copied().unwrap_or((0.0, 0)),
            };
            println!("{name} = {value} {unit} (n={samples})");
            rendered.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            rendered.join(",")
        );
    }
}

/// Runs the machine control in a child of this executable, so its 32 MiB
/// buffer never shows up in the workload's own peak resident set.
pub fn calibrate_in_child() -> f64 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = std::process::Command::new(exe)
        .arg("--calibrate")
        .output()
        .expect("the benchmark can spawn itself");
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("the calibration child prints one number")
}

/// The `--calibrate` child: the fastest of five control loops. The loop is
/// fixed work and interference only ever adds time, so the minimum is the
/// steadiest reading of what the machine can do right now.
pub fn print_calibration() {
    let fastest = (0..5)
        .map(|_| stats::calibration_ms())
        .fold(f64::INFINITY, f64::min);
    println!("{fastest}");
}

/// Renders `BENCHMARK.json` from the catalogue and the workload table.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"qsdd_benchmark/run.sh\"],\n  \"paths\": [\"qsdd_benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
