//! `serve_mixed`: the HTTP API of a `qsdd_cli serve` child under a mix of
//! cold submissions and cache hits.
//!
//! Two closed-loop keep-alive clients each run blocks of one cold
//! operation — POST a never-seen job, then poll its status until it
//! completes — and four hit operations — re-POST a body completed among
//! the client's last 256, then GET its result. Cold inserts overflow the
//! 1 024-entry cache while the re-read working set must stay resident.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qsdd_circuit::generators::qft;
use qsdd_circuit::qasm;
use qsdd_core::StochasticSimulator;
use qsdd_json::{self as json, Value};
use qsdd_server::client::Client;
use qsdd_server::{parse_job_request, result_payload};

use crate::report::{calibrate_in_child, Report};
use crate::stats::{self, SplitMix};
use crate::trace::{span_cost_ns, Recorder, Trace, PROBE_LANE};
use crate::workloads::THREADS;
use crate::Args;

const SETUP_REPEATS: usize = 5;
/// Completed results the server retains (`--cache-entries`).
const CACHE_ENTRIES: usize = 1024;
/// Completed bodies each client keeps to re-read.
const RECENT: usize = 256;
const HITS_PER_BLOCK: usize = 4;
const POLL_INTERVAL: Duration = Duration::from_micros(200);
/// Cold jobs of the warm-up, each re-read once.
const WARMUP_COLDS: usize = 20;
/// A cold job that has not completed by then counts as failed.
const COLD_DEADLINE: Duration = Duration::from_secs(20);

/// A `qsdd_cli serve` child; killed on drop so no run leaves one behind.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns the server on an ephemeral port and waits for its banner and
    /// a healthy reply.
    fn spawn(cli: &Path, store_dir: &Path) -> ServerChild {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--threads", &THREADS.to_string()])
            .args(["--cache-entries", &CACHE_ENTRIES.to_string()])
            .arg("--store-dir")
            .arg(store_dir)
            // End-to-end numbers are taken with the program's tracing off.
            .env("QSDD_TRACE", "0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("qsdd_cli serve spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            let read = stderr.read_line(&mut line).expect("the banner is readable");
            assert!(
                read > 0,
                "qsdd_cli serve exited before printing its address"
            );
            addr = line
                .trim()
                .strip_prefix("qsdd-server listening on http://")
                .map(|addr| addr.parse().expect("the banner carries a socket address"));
        }
        // Keep the pipe open and drained: the server's later diagnostics
        // must not hit a closed pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|read| read > 0) {
                sink.clear();
            }
        });
        let server = ServerChild {
            child,
            addr: addr.expect("loop exits with an address"),
            stderr_drain: Some(stderr_drain),
        };
        let (status, _) = server
            .connect()
            .request("GET", "/v1/healthz", None)
            .expect("healthz answers");
        assert_eq!(status, 200, "the server is healthy");
        server
    }

    fn connect(&self) -> Client {
        Client::connect(self.addr).expect("the server accepts connections")
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful shutdown over HTTP; returns whether the process exited
    /// cleanly.
    fn shutdown(mut self) -> bool {
        let _ = self.connect().request("POST", "/v1/shutdown", None);
        let clean = self.child.wait().is_ok_and(|status| status.success());
        self.join_drain();
        clean
    }

    /// `kill -9`, as a crash would.
    fn kill(mut self) {
        self.child.kill().expect("the server child can be killed");
        self.child.wait().expect("the killed child is reaped");
        self.join_drain();
    }

    fn join_drain(&mut self) {
        if let Some(drain) = self.stderr_drain.take() {
            drain.join().expect("the stderr drain does not panic");
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Only reached with the child still running when a check panicked.
        if self.stderr_drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.join_drain();
        }
    }
}

/// The two job shapes of the traffic: a generator spec and inline OpenQASM
/// with observables.
struct Bodies {
    qft8_qasm: String,
}

impl Bodies {
    fn new() -> Self {
        let source = qasm::write_source(&qft(8)).expect("qft-8 is in the OpenQASM subset");
        Bodies {
            qft8_qasm: Value::String(source).to_string(),
        }
    }

    /// The `index`-th cold body of a client: alternating shapes, fresh seed.
    fn cold(&self, index: usize, seed: u64) -> String {
        if index.is_multiple_of(2) {
            format!(r#"{{"circuit":{{"generator":"ghz","qubits":12}},"shots":2000,"seed":{seed}}}"#)
        } else {
            format!(
                r#"{{"circuit":{{"qasm":{}}},"shots":500,"seed":{seed},"observables":[{{"qubit_excitation":3}},{{"basis_probability":0}}]}}"#,
                self.qft8_qasm
            )
        }
    }
}

const ID_FIELD: &str = "\"id\":\"";
const STATUS_FIELD: &str = "\"status\":\"";

/// The word after the first occurrence of `field` (a `"key":"` marker) in a
/// body. The envelope's own `id` and `status` come first in the program's
/// output, so no JSON parse sits in the clients' timed path.
fn string_field<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let start = body.find(field)? + field.len();
    let end = body[start..].find('"')?;
    Some(&body[start..start + end])
}

/// The cacheable part of a job envelope: everything from `"result":` on.
/// The envelope's `timings` are per request path and not part of it.
fn result_bytes(envelope: &str) -> Option<&str> {
    envelope.find(",\"result\":").map(|at| &envelope[at..])
}

/// A completed job a client can re-read.
struct Completed {
    body: String,
    id: String,
    result: String,
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    polls: u64,
    requests: u64,
    failed: u64,
    completed_envelopes: Vec<String>,
}

/// One cold operation: submit, then poll to completion. Returns the job as
/// a client can re-read it, and the completed envelope.
fn cold_operation(
    session: &mut Client,
    recorder: &mut Recorder,
    body: String,
    log: &mut ClientLog,
) -> Result<(Completed, String), String> {
    let submit = recorder.open("server", "submit");
    let response = session.request("POST", "/v1/jobs", Some(&body));
    recorder.close(submit);
    log.requests += 1;
    let (status, response) = response.map_err(|error| error.to_string())?;
    if status != 202 {
        return Err(format!("cold submit answered {status}: {response}"));
    }
    let id = string_field(&response, ID_FIELD)
        .ok_or("the submit response carries no id")?
        .to_string();
    let path = format!("/v1/jobs/{id}");
    let started = Instant::now();
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let poll = recorder.open("server", "poll");
        let response = session.request("GET", &path, None);
        recorder.close(poll);
        log.requests += 1;
        log.polls += 1;
        let (status, envelope) = response.map_err(|error| error.to_string())?;
        if status != 200 {
            return Err(format!("poll answered {status}"));
        }
        match string_field(&envelope, STATUS_FIELD) {
            Some("completed") => {
                let result = result_bytes(&envelope)
                    .ok_or("the completed envelope carries no result")?
                    .to_string();
                return Ok((Completed { body, id, result }, envelope));
            }
            Some("queued" | "running") if started.elapsed() < COLD_DEADLINE => {}
            other => return Err(format!("job {id} ended as {other:?}")),
        }
    }
}

/// One hit operation: re-submit a completed body, then read its result.
fn hit_operation(
    session: &mut Client,
    recorder: &mut Recorder,
    known: &Completed,
    log: &mut ClientLog,
) -> Result<(), String> {
    let submit = recorder.open("server", "submit");
    let response = session.request("POST", "/v1/jobs", Some(&known.body));
    recorder.close(submit);
    log.requests += 1;
    let (status, response) = response.map_err(|error| error.to_string())?;
    if status != 200 || string_field(&response, ID_FIELD) != Some(known.id.as_str()) {
        return Err(format!("re-submit answered {status}: {response}"));
    }
    let get = recorder.open("server", "result_get");
    let response = session.request("GET", &format!("/v1/jobs/{}", known.id), None);
    recorder.close(get);
    log.requests += 1;
    let (status, envelope) = response.map_err(|error| error.to_string())?;
    if status != 200 || result_bytes(&envelope) != Some(known.result.as_str()) {
        return Err(format!("hit on {} differs from its cold result", known.id));
    }
    Ok(())
}

/// One client's closed loop: blocks of one cold and four hit operations
/// until the deadline.
fn client_loop(
    addr: SocketAddr,
    recorder: &mut Recorder,
    bodies: &Bodies,
    mut script: SplitMix,
    seconds: f64,
    keep_envelopes: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut session = Client::connect(addr).expect("the server accepts connections");
    let mut recent: VecDeque<Completed> = VecDeque::with_capacity(RECENT);
    let phase = Instant::now();
    let mut block = 0usize;
    while phase.elapsed().as_secs_f64() < seconds {
        let block_span = recorder.open("bench", "block");
        let body = bodies.cold(block, script.next_seed());
        let started = Instant::now();
        match cold_operation(&mut session, recorder, body, &mut log) {
            Ok((completed, envelope)) => {
                log.cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
                if recent.len() == RECENT {
                    recent.pop_front();
                }
                recent.push_back(completed);
                if keep_envelopes {
                    log.completed_envelopes.push(envelope);
                }
            }
            Err(error) => {
                eprintln!("cold operation failed: {error}");
                log.failed += 1;
            }
        }
        for _ in 0..HITS_PER_BLOCK {
            if recent.is_empty() {
                log.failed += 1;
                continue;
            }
            let known = &recent[script.below(recent.len())];
            let started = Instant::now();
            match hit_operation(&mut session, recorder, known, &mut log) {
                Ok(()) => log.hit_ms.push(started.elapsed().as_secs_f64() * 1e3),
                Err(error) => {
                    eprintln!("hit operation failed: {error}");
                    log.failed += 1;
                }
            }
        }
        recorder.close(block_span);
        block += 1;
    }
    log
}

/// Runs both clients for `seconds` and returns their logs, recorders and
/// the wall time of the phase.
fn traffic(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Vec<ClientLog>, Vec<Recorder>, f64) {
    let bodies = Bodies::new();
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..THREADS)
        .map(|lane| Recorder::new(traced, lane as u32 + 1, epoch))
        .collect();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .iter_mut()
            .enumerate()
            .map(|(index, recorder)| {
                let bodies = &bodies;
                let script = SplitMix::new(seed, 0xC11E + index as u64);
                scope.spawn(move || client_loop(addr, recorder, bodies, script, seconds, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, recorders, epoch.elapsed().as_secs_f64())
}

fn stats_document(server: &ServerChild) -> Value {
    let (status, body) = server
        .connect()
        .request("GET", "/v1/stats", None)
        .expect("/v1/stats answers");
    assert_eq!(status, 200);
    json::parse(&body).expect("/v1/stats is JSON")
}

fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Boots a server on a fresh store directory and warms it up: both job
/// shapes cold, each re-read once.
fn boot_and_warm(args: &Args, store_dir: &Path) -> ServerChild {
    let _ = std::fs::remove_dir_all(store_dir);
    std::fs::create_dir_all(store_dir).expect("the store directory can be created");
    let server = ServerChild::spawn(&args.cli, store_dir);
    let bodies = Bodies::new();
    let mut session = server.connect();
    let mut recorder = Recorder::new(false, 0, Instant::now());
    let mut log = ClientLog::default();
    let mut warm = SplitMix::new(args.seed, 0x3A93);
    for index in 0..WARMUP_COLDS {
        let body = bodies.cold(index, warm.next_seed());
        let (known, _) = cold_operation(&mut session, &mut recorder, body, &mut log)
            .expect("the warm-up job completes");
        hit_operation(&mut session, &mut recorder, &known, &mut log)
            .expect("the warm-up hit matches");
    }
    server
}

fn store_dir(args: &Args, life: usize) -> PathBuf {
    args.work_dir.join(format!("store-{life}"))
}

/// Post-traffic checks shared by both modes.
fn check_traffic(report: &mut Report, logs: &[ClientLog], stats: &Value) {
    let colds: u64 = logs.iter().map(|log| log.cold_ms.len() as u64).sum();
    let hits: u64 = logs.iter().map(|log| log.hit_ms.len() as u64).sum();
    let failed: u64 = logs.iter().map(|log| log.failed).sum();
    report.attempted += colds + hits + failed;
    report.failed += failed;
    report.check(
        "every hit returned its cold result's bytes and no request was refused",
        failed == 0 && hits == colds * HITS_PER_BLOCK as u64,
    );
    report.check(
        "/v1/stats: simulations == distinct cold jobs, none failed",
        stat(stats, "simulations") == (colds + WARMUP_COLDS as u64) as f64
            && stat(stats, "jobs_failed") == 0.0,
    );
    println!(
        "{colds} cold + {hits} hit operations; cache_entries={} (cap {CACHE_ENTRIES})",
        stat(stats, "cache_entries")
    );
}

/// The end-to-end run: program tracing off, benchmark recorder off.
pub fn run_end_to_end(args: &Args) -> Report {
    let mut report = Report::new(calibrate_in_child());
    let mut setups = Vec::new();
    let mut booted: Option<ServerChild> = None;
    for life in 0..SETUP_REPEATS {
        if let Some(previous) = booted.take() {
            report.check("set-up server shuts down cleanly", previous.shutdown());
        }
        let started = Instant::now();
        booted = Some(boot_and_warm(args, &store_dir(args, life)));
        setups.push(started.elapsed().as_secs_f64());
    }
    let server = booted.expect("at least one set-up ran");

    let (logs, _, wall_s) = traffic(server.addr, args.seed, args.seconds, false);
    let stats = stats_document(&server);
    let peak_rss = stats::vm_hwm_mb(server.pid()).unwrap_or(0.0);
    check_traffic(&mut report, &logs, &stats);
    report.check("server shuts down cleanly", server.shutdown());
    report.calibration_ms.1 = calibrate_in_child();

    let all_ms: Vec<f64> = logs
        .iter()
        .flat_map(|log| log.cold_ms.iter().chain(&log.hit_ms).copied())
        .collect();
    let requests: u64 = logs.iter().map(|log| log.requests).sum();
    println!(
        "{requests} HTTP requests in {wall_s:.2} s: {:.0} requests/s, {THREADS} closed-loop clients",
        requests as f64 / wall_s
    );
    report.set_end_to_end(&all_ms, wall_s, peak_rss, &setups);
    report
}

/// First value of a Prometheus series on the metrics page.
fn series(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Median round trip of `count` requests on one connection, microseconds.
fn rtt_us(session: &mut Client, recorder: &mut Recorder, name: &'static str, path: &str) -> f64 {
    let samples: Vec<f64> = (0..300)
        .map(|_| {
            let span = recorder.open("server", name);
            let started = Instant::now();
            let reply = session.request("GET", path, None);
            let elapsed = started.elapsed().as_secs_f64() * 1e6;
            recorder.close(span);
            assert!(reply.is_ok_and(|(status, _)| status == 200));
            elapsed
        })
        .collect();
    stats::median(&samples)
}

/// The traced run: the same traffic with a span around every client call,
/// plus the request-path functions called in process.
pub fn run_traced(args: &Args) -> (Report, Trace) {
    let mut report = Report::new(calibrate_in_child());
    let dir = store_dir(args, 0);
    let server = boot_and_warm(args, &dir);
    let epoch = Instant::now();
    let mut main_lane = Recorder::new(true, PROBE_LANE, epoch);

    let mut session = server.connect();
    report.set(
        "server.healthz_rtt_us_p50",
        rtt_us(&mut session, &mut main_lane, "healthz", "/v1/healthz"),
        300,
    );

    let (logs, mut recorders, wall_s) = traffic(server.addr, args.seed, args.seconds, true);
    let stats = stats_document(&server);
    check_traffic(&mut report, &logs, &stats);

    let cold_ms: Vec<f64> = logs.iter().flat_map(|log| log.cold_ms.clone()).collect();
    let hit_ms: Vec<f64> = logs.iter().flat_map(|log| log.hit_ms.clone()).collect();
    report.set(
        "server.cold_latency_ms_p50",
        stats::median(&cold_ms),
        cold_ms.len(),
    );
    report.set(
        "server.hit_latency_ms_p50",
        stats::median(&hit_ms),
        hit_ms.len(),
    );
    if let Some(p99) = stats::percentile(&cold_ms, 99.0) {
        report.set("server.cold_latency_ms_p99", p99, cold_ms.len());
    }
    if let Some(p99) = stats::percentile(&hit_ms, 99.0) {
        report.set("server.hit_latency_ms_p99", p99, hit_ms.len());
    }
    let polls: u64 = logs.iter().map(|log| log.polls).sum();
    report.set(
        "server.polls_per_cold_job",
        polls as f64 / cold_ms.len() as f64,
        cold_ms.len(),
    );
    for (metric, span) in [
        ("server.submit_rtt_us_p50", "submit"),
        ("server.result_get_rtt_us_p50", "result_get"),
    ] {
        let samples: Vec<f64> = recorders
            .iter()
            .flat_map(|recorder| recorder.durations_ns(span))
            .map(|ns| ns / 1e3)
            .collect();
        report.set(metric, stats::median(&samples), samples.len());
    }

    // Reported by the program: the job envelopes and the stats and metrics
    // pages.
    let envelopes: Vec<&String> = logs
        .iter()
        .flat_map(|log| &log.completed_envelopes)
        .collect();
    let queue_waits: Vec<f64> = envelopes
        .iter()
        .step_by(8)
        .filter_map(|envelope| {
            json::parse(envelope)
                .ok()?
                .get("timings")?
                .get("queue_wait")?
                .as_f64()
        })
        .map(|seconds| seconds * 1e3)
        .collect();
    report.set(
        "server.queue_wait_ms_p50",
        stats::median_or_zero(&queue_waits),
        queue_waits.len(),
    );
    let sizes: Vec<f64> = envelopes
        .iter()
        .map(|envelope| envelope.len() as f64)
        .collect();
    report.set(
        "server.response_bytes_p50",
        stats::median(&sizes),
        sizes.len(),
    );
    report.set("server.cache_hit_share", stat(&stats, "cache_hit_rate"), 1);
    report.set("server.rejected_429", stat(&stats, "rejected_jobs"), 1);
    report.set("server.coalesced", stat(&stats, "coalesced"), 1);
    let (_, page) = session
        .request("GET", "/v1/metrics", None)
        .expect("/v1/metrics answers");
    report.set(
        "server.evictions",
        series(&page, "qsdd_cache_evictions_total"),
        1,
    );
    let appends = series(&page, "qsdd_store_append_seconds_count");
    report.set(
        "store.append_ms_per_job",
        series(&page, "qsdd_store_append_seconds_sum") * 1e3 / appends.max(1.0),
        appends as usize,
    );
    let records = stats
        .get("store")
        .and_then(|store| store.get("records"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let log_bytes = std::fs::metadata(dir.join("results.log")).map_or(0, |meta| meta.len());
    report.set(
        "store.log_bytes_per_record",
        log_bytes as f64 / records.max(1.0),
        records as usize,
    );

    // The request path's own functions, called in process on both shapes.
    let bodies = Bodies::new();
    let mut parse_us = Vec::new();
    let mut payload_us = Vec::new();
    for index in 0..2 {
        let body = bodies.cold(index, 7 + index as u64);
        for _ in 0..200 {
            let started = Instant::now();
            let input = main_lane.leaf("server", "parse_job_request", || parse_job_request(&body));
            parse_us.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&input);
        }
        let input = parse_job_request(&body).expect("the benchmark's bodies are valid");
        let outcome = StochasticSimulator::new()
            .with_shots(input.shots)
            .with_seed(input.seed)
            .with_threads(1)
            .run_with_observables(&input.circuit, &input.observables);
        for _ in 0..200 {
            let started = Instant::now();
            let payload = main_lane.leaf("server", "result_payload", || {
                result_payload(&input, &outcome)
            });
            payload_us.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&payload);
        }
    }
    report.set(
        "server.parse_job_request_us",
        stats::median(&parse_us),
        parse_us.len(),
    );
    report.set(
        "server.result_payload_us",
        stats::median(&payload_us),
        payload_us.len(),
    );

    // json on a completed envelope.
    if let Some(envelope) = envelopes.first() {
        let (parse, write) = json_throughput(&mut main_lane, envelope);
        report.set("json.parse_mb_per_s", parse, envelope.len());
        report.set("json.write_mb_per_s", write, envelope.len());
    }

    // Crash and restart on the populated store: spawn to first healthy
    // reply, and the restored bytes must be the served bytes.
    let probe = logs
        .iter()
        .find_map(|log| log.completed_envelopes.last().cloned());
    server.kill();
    let started = Instant::now();
    let restarted = ServerChild::spawn(&args.cli, &dir);
    report.set(
        "store.restart_restore_ms",
        started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    if let Some(envelope) = probe {
        let id = string_field(&envelope, ID_FIELD).unwrap_or("").to_string();
        let reply = restarted
            .connect()
            .request("GET", &format!("/v1/jobs/{id}"), None);
        report.check(
            "a kill -9 restart answers a job id with the same result bytes",
            reply.is_ok_and(|(status, body)| {
                status == 200 && result_bytes(&body) == result_bytes(&envelope)
            }),
        );
    }
    report.check("restarted server shuts down cleanly", restarted.shutdown());
    report.calibration_ms.1 = calibrate_in_child();

    recorders.push(main_lane);
    let trace = Trace::from_recorders(recorders);
    let operations = cold_ms.len() + hit_ms.len();
    report.set_self_times(&trace, operations);
    report.set(
        "trace.overhead_share",
        trace.span_count() as f64 * span_cost_ns() / (wall_s * THREADS as f64 * 1e9),
        trace.span_count(),
    );
    (report, trace)
}

/// Parse and write throughput of the shared JSON crate on `text`, MB/s.
pub fn json_throughput(recorder: &mut Recorder, text: &str) -> (f64, f64) {
    let value = json::parse(text).expect("the program's own output parses");
    let parse = megabytes_per_second(text.len(), || {
        std::hint::black_box(recorder.leaf("json", "parse", || json::parse(text)).is_ok());
    });
    let write = megabytes_per_second(text.len(), || {
        std::hint::black_box(recorder.leaf("json", "write", || value.to_string()).len());
    });
    (parse, write)
}

/// Throughput of `work` over `bytes` per call: at least three calls, then
/// as many as fit in a quarter of a second.
fn megabytes_per_second(bytes: usize, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0;
    while calls < 3 || started.elapsed().as_secs_f64() < 0.25 {
        work();
        calls += 1;
    }
    (bytes * calls) as f64 / 1e6 / started.elapsed().as_secs_f64()
}
