//! The HTTP service: listener, router, worker pool and lifecycle.
//!
//! # Request lifecycle
//!
//! 1. A single **acceptor** thread owns the [`TcpListener`] and spawns one
//!    short-lived handler thread per connection (keep-alive: a handler
//!    serves every request of its connection).
//! 2. `POST /v1/jobs` parses and validates the body ([`crate::api`]), then
//!    resolves it against the content-addressed cache ([`crate::cache`]):
//!    a completed identical job answers from the cache, an in-flight one
//!    coalesces, and a genuinely new one is pushed onto the **bounded
//!    execution queue** — or rejected with `429` when the queue is full.
//! 3. **Worker** threads pop cells off the queue. Each worker owns one
//!    long-lived [`ExecContext`] for its entire lifetime and executes every
//!    job through [`execute`] at [`Placement::Inline`] in it, so
//!    decision-diagram arenas, amplitude buffers and operator caches are
//!    rewound — never rebuilt — across requests (the PR-3 reuse path), and
//!    the PR-4 trajectory-dedup body runs whenever the job allows it.
//! 4. Completion publishes the deterministic result payload to the cell
//!    (waking every coalesced submission at once) and registers it with the
//!    cache's LRU for eviction accounting.
//!
//! # Shutdown
//!
//! `POST /v1/shutdown` (or [`Server::shutdown`]) flips the shutdown flag,
//! wakes the workers (which drain the queue, then exit) and unblocks the
//! acceptor with a loopback wakeup connection. In-flight connections finish
//! their current request; new connections are no longer accepted.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsdd_core::{
    execute, Deadline, ExecContext, ExecMode, ExecPlan, Placement, ShotEngine, TimedOut,
};
use qsdd_json::Value;
use qsdd_telemetry::spans::record_stage;
use qsdd_telemetry::trace::{self, AttrValue, TraceStore, Tracer};
use qsdd_telemetry::{log_kv, Level, Stage, StageTimings};

use crate::api::{self, JobInput};
use crate::cache::{CellState, ExecutionCell, ResultCache, Submission};
use crate::http::{self, DeadlineStream, Request, RequestError};
use crate::metrics::ServerMetrics;
use crate::store::{AppendOutcome, RestoredRecord, ResultStore};

/// Default total budget for reading one request (idle keep-alive waiting
/// and trickled bytes draw down the same clock — see
/// [`DeadlineStream`]), so neither a silent nor a slow-loris client can
/// hold a handler thread indefinitely.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Concurrent connections served at once; beyond this the acceptor answers
/// `503` inline instead of spawning a handler thread, so a connection
/// flood cannot exhaust OS threads (job load is bounded separately by the
/// queue depth).
const MAX_CONNECTIONS: usize = 1024;
/// How long [`Server::join`] waits for detached connection handlers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Completed traces retained by the in-memory ring buffer behind
/// `GET /v1/jobs/<id>/trace`. Volatile by design — traces are a
/// diagnostics side channel and are re-recorded when a job re-executes.
const TRACE_CAPACITY: usize = 256;

/// Server configuration (every knob has a CLI flag on `qsdd_cli serve`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Simulation worker threads; `0` uses all available cores.
    pub threads: usize,
    /// Completed results retained by the cache.
    pub cache_entries: usize,
    /// Maximum queued (not yet running) jobs before `429`.
    pub queue_depth: usize,
    /// Durable result store directory (`--store-dir`). `None` runs
    /// memory-only; `Some` persists every completed result and replays
    /// them into the cache at the next boot.
    pub store_dir: Option<String>,
    /// Total time a client gets to deliver one request before its
    /// connection is dropped (no CLI flag; tests shrink it to exercise the
    /// slow-loris defence quickly).
    pub request_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            cache_entries: 1024,
            queue_depth: 256,
            store_dir: None,
            request_timeout: REQUEST_TIMEOUT,
        }
    }
}

/// Monotonic service counters, all updated with relaxed atomics (the stats
/// endpoint is informational, not a synchronisation point).
#[derive(Debug, Default)]
struct Stats {
    http_requests: AtomicU64,
    /// Accepted submissions (new + coalesced + cache hits).
    jobs_accepted: AtomicU64,
    /// Submissions answered from a completed cache entry.
    cache_hits: AtomicU64,
    /// Submissions attached to an in-flight identical job.
    coalesced: AtomicU64,
    /// Submissions rejected with `429`.
    rejected: AtomicU64,
    /// Simulations actually started by workers.
    simulations: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
}

/// Everything the acceptor, handlers and workers share.
struct ServerState {
    addr: SocketAddr,
    workers: usize,
    queue_depth: usize,
    started: Instant,
    shutdown: AtomicBool,
    cache: ResultCache,
    queue: Mutex<std::collections::VecDeque<Arc<ExecutionCell>>>,
    queue_wake: Condvar,
    stats: Stats,
    active_connections: AtomicUsize,
    /// This instance's Prometheus registry (`GET /v1/metrics`); private per
    /// server so concurrent instances in one process never mix counters.
    metrics: ServerMetrics,
    /// The durable result store (`None` when running memory-only).
    store: Option<ResultStore>,
    /// Ring buffer of recently completed job traces (`GET /v1/traces`,
    /// `GET /v1/jobs/<id>/trace`). In-memory only; restarts lose it.
    traces: TraceStore,
    request_timeout: Duration,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running simulation service.
///
/// # Examples
///
/// ```
/// use qsdd_server::{Server, ServerConfig};
///
/// let server = Server::start(ServerConfig::default()).unwrap();
/// let addr = server.addr();
/// let (status, body) =
///     qsdd_server::client::request(addr, "GET", "/v1/healthz", None).unwrap();
/// assert_eq!(status, 200);
/// assert!(body.contains("\"ok\""));
/// server.shutdown_and_join();
/// ```
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, spawns the worker pool and the acceptor, and
    /// returns the running server.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // Serving mode turns the process-global telemetry on: the per-stage
        // histograms and decision-diagram counters the simulation layers
        // publish become part of this server's `/v1/metrics` page.
        qsdd_telemetry::set_enabled(true);
        // Tracing defaults on while serving (coarse spans; `QSDD_TRACE=off`
        // or `QSDD_TRACE_SAMPLE=<n>` tune it down for high-QPS fleets).
        trace::configure_trace_from_env(true);
        // Arm the fault-injection seam from `QSDD_FAULTS` (a no-op outside
        // the robustness tests; the checks it leaves behind are two relaxed
        // atomic loads).
        qsdd_store::fault::init_from_env();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = qsdd_core::resolve_threads(config.threads);
        // Open the durable store (when configured) and replay every
        // surviving record into the cache as an already-completed entry, so
        // a restarted server answers previously finished jobs byte-for-byte
        // identically from the first request.
        let cache = ResultCache::new(config.cache_entries);
        let restore_started = Instant::now();
        let mut restored_records = 0usize;
        let store = config.store_dir.as_ref().map(|dir| {
            let (store, restored) = ResultStore::open(std::path::Path::new(dir));
            for record in restored {
                restored_records += 1;
                cache.restore_completed(
                    &record.id,
                    &record.key,
                    record.circuit_qasm,
                    Arc::new(record.payload),
                    record.timings,
                );
            }
            store
        });
        let restore_elapsed = restore_started.elapsed();
        let metrics = ServerMetrics::new();
        let traces = TraceStore::new(TRACE_CAPACITY);
        if let Some(store) = &store {
            metrics.store_records.set(store.records() as i64);
            metrics.store_degraded.set(store.is_degraded() as i64);
            metrics
                .store_restore_millis
                .set(restore_elapsed.as_millis() as i64);
            metrics.store_restored_records.set(restored_records as i64);
            // A synthetic boot trace makes the restore visible in the same
            // span vocabulary as live jobs (`GET /v1/jobs/boot/trace`).
            if trace::trace_enabled() {
                let boot = Tracer::forced_at("boot", "boot", restore_started);
                boot.record_span_at(
                    0,
                    "store_restore",
                    Duration::from_secs(0),
                    restore_elapsed,
                    vec![("records", AttrValue::U64(restored_records as u64))],
                );
                traces.insert(boot.finish("boot"));
            }
        }
        let state = Arc::new(ServerState {
            addr,
            workers,
            queue_depth: config.queue_depth.max(1),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            cache,
            queue: Mutex::new(std::collections::VecDeque::new()),
            queue_wake: Condvar::new(),
            stats: Stats::default(),
            active_connections: AtomicUsize::new(0),
            metrics,
            store,
            traces,
            request_timeout: config.request_timeout,
        });
        log_kv(
            Level::Info,
            "server.start",
            &[
                ("addr", &addr.to_string()),
                ("workers", &workers.to_string()),
            ],
        );

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let state = Arc::clone(&state);
            worker_handles.push(std::thread::spawn(move || worker_loop(&state)));
        }
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::spawn(move || accept_loop(listener, &acceptor_state));

        Ok(Server {
            state,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (the actual port when `addr` requested port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One human-readable line describing the durable store's status —
    /// `None` when the server runs without one. Printed under the serve
    /// banner so restarts and degraded (memory-only) operation are visible
    /// without scraping `/v1/stats`.
    pub fn store_banner(&self) -> Option<String> {
        self.state.store.as_ref().map(|store| {
            if store.is_degraded() {
                format!(
                    "store: DEGRADED to memory-only ({} unusable)",
                    store.path().display()
                )
            } else {
                let boot = store.boot_report();
                format!(
                    "store: {} ({} records restored, {} bytes recovered)",
                    store.path().display(),
                    boot.records_restored,
                    boot.truncated_bytes,
                )
            }
        })
    }

    /// Initiates graceful shutdown: stop accepting, drain the queue, then
    /// let every thread exit. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }

    /// Waits until the server has shut down (triggered by
    /// [`shutdown`](Self::shutdown) or `POST /v1/shutdown`) and all worker
    /// and acceptor threads have exited.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Connection handlers are detached; give in-flight ones a bounded
        // window to finish their current response.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.state.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// [`shutdown`](Self::shutdown) followed by [`join`](Self::join).
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Flips the shutdown flag, wakes the workers and unblocks the acceptor.
fn initiate_shutdown(state: &Arc<ServerState>) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake workers blocked on an empty queue (they drain, then exit).
    {
        let _queue = state.queue.lock().expect("queue lock");
        state.queue_wake.notify_all();
    }
    // Unblock the acceptor's `accept()` with a throwaway loopback
    // connection; it observes the flag and exits. A wildcard bind
    // (0.0.0.0 / [::]) is not a connectable destination everywhere, so
    // aim at the loopback of the same family instead.
    let mut target = state.addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect(target);
}

/// The acceptor: accepts until shutdown, one detached handler thread per
/// connection.
fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if state.active_connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            // Shed load without spawning: one thread per connection is the
            // model, so the connection count must be bounded.
            let _ = http::write_response(
                &mut stream,
                503,
                &error_body("connection limit reached, retry later"),
                false,
            );
            continue;
        }
        let state = Arc::clone(state);
        state.active_connections.fetch_add(1, Ordering::SeqCst);
        std::thread::spawn(move || {
            handle_connection(stream, &state);
            state.active_connections.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Serves one connection's keep-alive session.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(DeadlineStream::new(read_half));
    let mut writer = stream;
    loop {
        // One *total* budget per request: a client that goes silent and one
        // that trickles a byte at a time (slow-loris) are both cut off at
        // the same deadline, instead of resetting a per-read timeout with
        // every byte.
        reader.get_mut().arm(state.request_timeout);
        let request = match http::read_request(&mut reader) {
            Ok(request) => request,
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
            Err(RequestError::Malformed(message)) => {
                let _ = http::write_response(&mut writer, 400, &error_body(&message), false);
                return;
            }
            Err(RequestError::BodyTooLarge(size)) => {
                let _ = http::write_response(
                    &mut writer,
                    413,
                    &error_body(&format!("request body of {size} bytes is too large")),
                    false,
                );
                return;
            }
        };
        state.stats.http_requests.fetch_add(1, Ordering::Relaxed);
        let (status, body) = route(state, &request);
        state.metrics.observe_request(&request.path, status);
        log_kv(
            Level::Debug,
            "server.request",
            &[
                ("method", &request.method),
                ("path", &request.path),
                ("status", &status.to_string()),
            ],
        );
        // Finish the session once shutdown started: handlers must not
        // outlive the acceptor indefinitely.
        let keep_alive = request.keep_alive && !state.shutting_down();
        // A rejected job is retryable as soon as a worker frees a queue
        // slot — tell clients how long to back off.
        let retry_after: [(&str, &str); 1] = [("retry-after", "1")];
        let extra_headers: &[(&str, &str)] = if status == 429 { &retry_after } else { &[] };
        let content_type = if request.path == "/v1/metrics" && status == 200 {
            "text/plain; version=0.0.4; charset=utf-8"
        } else {
            "application/json"
        };
        let written = http::write_response_with(
            &mut writer,
            status,
            content_type,
            extra_headers,
            &body,
            keep_alive,
        );
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatches one request to its endpoint handler.
fn route(state: &Arc<ServerState>, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => (200, r#"{"status":"ok"}"#.to_string()),
        ("GET", "/v1/stats") => (200, stats_body(state)),
        ("GET", "/v1/metrics") => (200, metrics_body(state)),
        ("POST", "/v1/jobs") => submit_job(state, &request.body),
        ("GET", "/v1/traces") => (200, traces_body(state)),
        // The `/trace` sub-resource must match before the generic job arm.
        ("GET", path) if path.starts_with("/v1/jobs/") && path.ends_with("/trace") => {
            job_trace(state, &path["/v1/jobs/".len()..path.len() - "/trace".len()])
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            job_status(state, &path["/v1/jobs/".len()..])
        }
        ("POST", "/v1/shutdown") => {
            initiate_shutdown(state);
            (200, r#"{"status":"shutting-down"}"#.to_string())
        }
        (
            _,
            "/v1/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/jobs" | "/v1/shutdown"
            | "/v1/traces",
        ) => (405, error_body("method not allowed")),
        (_, path) if path.starts_with("/v1/jobs/") => (405, error_body("method not allowed")),
        _ => (404, error_body("no such endpoint")),
    }
}

/// `POST /v1/jobs`: validate, content-address, coalesce or enqueue.
fn submit_job(state: &Arc<ServerState>, body: &str) -> (u16, String) {
    if state.shutting_down() {
        return (503, error_body("server is shutting down"));
    }
    let parse_started = Instant::now();
    let input = match api::parse_job_request(body) {
        Ok(input) => input,
        Err(message) => return (400, error_body(&message)),
    };
    let parse_time = parse_started.elapsed();
    let lookup_started = Instant::now();
    let body_bytes = body.len() as u64;
    let submission = state.cache.submit_with(input, |cell| {
        // Stamp the parse time before the cell becomes visible to a
        // worker: a fast worker can complete (and persist) the job before
        // this thread runs again, and a record written without the parse
        // stage would make the restored envelope differ from the live one.
        cell.record_stage(Stage::Parse, parse_time);
        // Start the job's trace (gated + sampled) with the request arrival
        // as its epoch, so the parse span begins at offset zero. The
        // handler-side stages are recorded here and the tracer rides the
        // cell to the worker — all before the cell is queued, so the
        // worker can never pop it tracer-less.
        if let Some(tracer) = Tracer::start_at(&cell.id, &cell.id, parse_started) {
            tracer.record_span_at(
                0,
                "parse",
                Duration::from_secs(0),
                parse_time,
                vec![("bytes", AttrValue::U64(body_bytes))],
            );
            tracer.record_span_at(
                0,
                "cache_lookup",
                lookup_started.saturating_duration_since(parse_started),
                parse_started.elapsed(),
                Vec::new(),
            );
            cell.attach_tracer(tracer);
        }
        let mut queue = state.queue.lock().expect("queue lock");
        // Re-check shutdown under the queue lock: workers only observe the
        // flag while holding it, so a cell enqueued here is guaranteed to
        // be drained — a check outside the lock could accept a job after
        // the last worker already found the queue empty and exited.
        if state.shutting_down() || queue.len() >= state.queue_depth {
            return false;
        }
        queue.push_back(Arc::clone(cell));
        state.metrics.queue_depth.set(queue.len() as i64);
        state.queue_wake.notify_one();
        true
    });
    record_stage(Stage::CacheLookup, lookup_started.elapsed());
    let stats = &state.stats;
    let metrics = &state.metrics;
    match submission {
        Submission::New(cell) => {
            stats.jobs_accepted.fetch_add(1, Ordering::Relaxed);
            metrics.cache_misses.inc();
            log_kv(Level::Info, "server.accept", &[("id", &cell.id)]);
            (202, submission_body(&cell, false))
        }
        Submission::Coalesced(cell) => {
            stats.jobs_accepted.fetch_add(1, Ordering::Relaxed);
            stats.coalesced.fetch_add(1, Ordering::Relaxed);
            metrics.coalesced.inc();
            (202, submission_body(&cell, false))
        }
        Submission::Hit(cell) => {
            stats.jobs_accepted.fetch_add(1, Ordering::Relaxed);
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            metrics.cache_hits.inc();
            (200, submission_body(&cell, true))
        }
        Submission::Rejected if state.shutting_down() => {
            (503, error_body("server is shutting down"))
        }
        Submission::Rejected => {
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            metrics.rejected.inc();
            log_kv(Level::Warn, "server.reject", &[("reason", "queue_full")]);
            (429, error_body("job queue is full, retry later"))
        }
    }
}

/// The `POST /v1/jobs` response body.
fn submission_body(cell: &ExecutionCell, cached: bool) -> String {
    format!(
        r#"{{"id":{},"status":{},"cached":{cached}}}"#,
        Value::from(cell.id.as_str()),
        Value::from(cell.state().status()),
    )
}

/// `GET /v1/jobs/<id>`: the job envelope around the cached result payload.
fn job_status(state: &Arc<ServerState>, id: &str) -> (u16, String) {
    let Some(cell) = state.cache.get(id) else {
        return (
            404,
            error_body(&format!("no job `{id}` (unknown or evicted)")),
        );
    };
    // One state snapshot for the whole envelope: reading twice could race
    // with the worker's completion and emit "status":"running" next to a
    // "result" field.
    let snapshot = cell.state();
    let mut body = format!(
        r#"{{"id":{},"status":{}"#,
        Value::from(cell.id.as_str()),
        Value::from(snapshot.status()),
    );
    if let Some(qasm) = cell.circuit_qasm() {
        body.push_str(&format!(r#","circuit_qasm":{}"#, Value::from(qasm)));
    }
    // The stage breakdown accumulated so far (parse and queue wait while
    // pending; the full simulation stages once terminal). Lives in the
    // envelope, never in the cached result payload, which must stay a pure
    // function of the job's canonical key.
    body.push_str(&format!(
        r#","timings":{}"#,
        timings_json(&cell.stage_timings())
    ));
    match snapshot {
        CellState::Done(payload) => {
            body.push_str(",\"result\":");
            body.push_str(&payload);
        }
        CellState::Failed(message) => {
            body.push_str(&format!(r#","error":{}"#, Value::from(message.as_str())));
        }
        _ => {}
    }
    body.push('}');
    (200, body)
}

/// `GET /v1/jobs/<id>/trace`: the job's recorded span tree. Served from
/// the volatile ring buffer — a restart clears it until the job
/// re-executes (results, by contrast, survive via the durable store).
fn job_trace(state: &Arc<ServerState>, id: &str) -> (u16, String) {
    // A trace is visible no later than the job's terminal status: once the
    // status reads completed or failed, wait for the worker to file it.
    let finished = state
        .cache
        .get(id)
        .is_some_and(|cell| matches!(cell.state(), CellState::Done(_) | CellState::Failed(_)));
    let trace = if finished {
        state.traces.get_filed(id)
    } else {
        state.traces.get(id)
    };
    match trace {
        Some(trace) => (200, trace.to_json().to_string()),
        None => (
            404,
            error_body(&format!(
                "no trace for job `{id}` (tracing off, sampled out, \
                 not yet executed, or evicted from the ring buffer)"
            )),
        ),
    }
}

/// `GET /v1/traces`: an index of resident traces, most recent first.
fn traces_body(state: &Arc<ServerState>) -> String {
    let traces = state.traces.recent();
    Value::object(vec![
        ("count".to_string(), Value::from(traces.len())),
        (
            "traces".to_string(),
            Value::Array(
                traces
                    .iter()
                    .map(|trace| {
                        Value::object(vec![
                            ("trace_id".to_string(), Value::from(trace.trace_id.as_str())),
                            ("job_id".to_string(), Value::from(trace.job_id.as_str())),
                            ("duration_ns".to_string(), Value::from(trace.duration_ns())),
                            ("span_count".to_string(), Value::from(trace.spans.len())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// `GET /v1/stats`.
fn stats_body(state: &Arc<ServerState>) -> String {
    let stats = &state.stats;
    let accepted = stats.jobs_accepted.load(Ordering::Relaxed);
    let served_from_cache =
        stats.cache_hits.load(Ordering::Relaxed) + stats.coalesced.load(Ordering::Relaxed);
    let hit_rate = if accepted == 0 {
        0.0
    } else {
        served_from_cache as f64 / accepted as f64
    };
    let queue_len = state.queue.lock().expect("queue lock").len();
    Value::object(vec![
        (
            "uptime_secs".to_string(),
            Value::from(state.started.elapsed().as_secs_f64()),
        ),
        ("workers".to_string(), Value::from(state.workers)),
        ("queue_len".to_string(), Value::from(queue_len)),
        ("queue_depth".to_string(), Value::from(state.queue_depth)),
        (
            "cache_entries".to_string(),
            Value::from(state.cache.completed_entries()),
        ),
        (
            "http_requests".to_string(),
            Value::from(stats.http_requests.load(Ordering::Relaxed)),
        ),
        ("jobs_accepted".to_string(), Value::from(accepted)),
        (
            "cache_hits".to_string(),
            Value::from(stats.cache_hits.load(Ordering::Relaxed)),
        ),
        (
            "coalesced".to_string(),
            Value::from(stats.coalesced.load(Ordering::Relaxed)),
        ),
        ("cache_hit_rate".to_string(), Value::from(hit_rate)),
        (
            "rejected".to_string(),
            Value::from(stats.rejected.load(Ordering::Relaxed)),
        ),
        (
            // The explicit name clients alert on; `rejected` above is the
            // original spelling, kept for compatibility.
            "rejected_jobs".to_string(),
            Value::from(stats.rejected.load(Ordering::Relaxed)),
        ),
        (
            "simulations".to_string(),
            Value::from(stats.simulations.load(Ordering::Relaxed)),
        ),
        (
            "jobs_completed".to_string(),
            Value::from(stats.jobs_completed.load(Ordering::Relaxed)),
        ),
        (
            "jobs_failed".to_string(),
            Value::from(stats.jobs_failed.load(Ordering::Relaxed)),
        ),
        (
            "shutting_down".to_string(),
            Value::from(state.shutting_down()),
        ),
        ("store".to_string(), store_stats(state)),
    ])
    .to_string()
}

/// The `store` object inside `/v1/stats` (`null` when memory-only by
/// configuration; `degraded: true` when memory-only by disk failure).
fn store_stats(state: &Arc<ServerState>) -> Value {
    let Some(store) = &state.store else {
        return Value::Null;
    };
    let boot = store.boot_report();
    Value::object(vec![
        (
            "path".to_string(),
            Value::from(store.path().display().to_string().as_str()),
        ),
        ("records".to_string(), Value::from(store.records())),
        ("writes".to_string(), Value::from(store.writes())),
        (
            "write_failures".to_string(),
            Value::from(store.write_failures()),
        ),
        ("degraded".to_string(), Value::from(store.is_degraded())),
        (
            "restored_at_boot".to_string(),
            Value::from(boot.records_restored),
        ),
        (
            "truncated_bytes_at_boot".to_string(),
            Value::from(boot.truncated_bytes),
        ),
        ("compacted_at_boot".to_string(), Value::from(boot.compacted)),
    ])
}

/// `GET /v1/metrics`: Prometheus text — this instance's registry (request,
/// cache and queue series) followed by the process-global one (stage
/// histograms, decision-diagram table traffic). The name sets are disjoint.
fn metrics_body(state: &Arc<ServerState>) -> String {
    // Refresh the depth gauge at scrape time so an idle server reports the
    // true (empty) queue even though no push/pop sampled it recently.
    let queue_len = state.queue.lock().expect("queue lock").len();
    state.metrics.queue_depth.set(queue_len as i64);
    let mut page = state.metrics.render();
    page.push_str(&qsdd_telemetry::global().render());
    page
}

/// The job envelope's `timings` object: every pipeline stage in order (in
/// seconds, zero when the stage did not run) plus the total.
fn timings_json(timings: &StageTimings) -> String {
    let mut fields: Vec<(String, Value)> = timings
        .iter()
        .map(|(stage, elapsed)| (stage.name().to_string(), Value::from(elapsed.as_secs_f64())))
        .collect();
    fields.push((
        "total".to_string(),
        Value::from(timings.total().as_secs_f64()),
    ));
    Value::object(fields).to_string()
}

fn error_body(message: &str) -> String {
    format!(r#"{{"error":{}}}"#, Value::from(message))
}

/// One worker: pop → compile (once per job) → execute in the worker's
/// long-lived context → publish.
fn worker_loop(state: &Arc<ServerState>) {
    // The worker's whole point: this context lives as long as the worker,
    // so every job it executes reuses the warmed per-backend-kind state.
    let mut ctx = ExecContext::new();
    loop {
        let cell = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if let Some(cell) = queue.pop_front() {
                    state.metrics.queue_depth.set(queue.len() as i64);
                    break Some(cell);
                }
                if state.shutting_down() {
                    break None;
                }
                queue = state.queue_wake.wait(queue).expect("queue lock");
            }
        };
        let Some(cell) = cell else { return };
        let waited = cell.mark_running();
        state.metrics.queue_wait.observe_duration(waited);
        state.stats.simulations.fetch_add(1, Ordering::Relaxed);
        // Take the job's tracer (attached at submission): record the queue
        // wait retroactively, then trace the execution on lane 0 of this
        // worker's thread. `finish` merges and publishes the span tree.
        let tracer = cell.take_tracer();
        // `execute_job` publishes the result before it appends to the store
        // and before the trace is filed below; announcing the recording
        // first lets `job_trace` wait out that gap instead of answering 404
        // for a job whose status already reads completed.
        let recording = tracer.as_ref().map(|_| state.traces.recording(&cell.id));
        if let Some(tracer) = &tracer {
            let picked_up = tracer.elapsed();
            tracer.record_span_at(
                0,
                "queue_wait",
                picked_up.saturating_sub(waited),
                picked_up,
                Vec::new(),
            );
        }
        {
            let _traced = tracer.as_ref().map(|tracer| tracer.install(0));
            execute_job(state, &cell, &mut ctx);
        }
        if let (Some(tracer), Some(recording)) = (tracer, recording) {
            recording.file(tracer.finish("job"));
        }
    }
}

/// Runs one job to completion and publishes the result (or failure) to
/// its cell.
///
/// A panic anywhere in compilation or execution must not take the worker
/// down with the job: the cell would be stuck in `running` forever (it is
/// exempt from LRU eviction while in flight), every coalesced submitter
/// would poll a job that can never finish, and the pool would shrink by
/// one worker for the server's lifetime. So the simulation runs under
/// `catch_unwind`, a panic publishes [`CellState::Failed`], and the
/// worker's context — whose rewind invariants cannot be trusted after an
/// unwind — is replaced with a fresh one.
fn execute_job(state: &Arc<ServerState>, cell: &Arc<ExecutionCell>, ctx: &mut ExecContext) {
    let input: &JobInput = cell
        .input()
        .expect("queued cells always carry their input (only restored cells do not)");
    // The job's deadline (when it set one). Cancellation is cooperative —
    // the drivers check at chunk and trajectory boundaries — so the context
    // stays reusable after a timeout, unlike after a panic.
    let deadline = match input.timeout_ms {
        Some(ms) => Deadline::from_millis(ms),
        None => Deadline::unbounded(),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<(String, StageTimings), TimedOut> {
            if qsdd_store::fault::should_panic_worker() {
                panic!("injected worker fault (QSDD_FAULTS worker_panic)");
            }
            let _execute = trace::span("execute");
            trace::attr("shots", input.shots as u64);
            let engine = {
                let _compile = trace::span("compile");
                let (circuit, backend) = (&input.circuit, input.backend);
                let engine = ShotEngine::new(circuit, backend, input.noise, input.seed, input.opt);
                trace::attr("engine", engine.backend_kind().to_string().as_str());
                if let Some(handoff) = engine.handoff() {
                    trace::attr("handoff_step", handoff.step);
                    trace::attr("handoff_nodes", handoff.nodes);
                }
                engine
            };
            let mode = (input.weighted.clone()).map_or(ExecMode::Dedup, ExecMode::Weighted);
            let plan = ExecPlan::new(mode, input.shots, &input.observables).with_deadline(deadline);
            let outcome = execute(&engine, &plan, Placement::Inline(ctx))?;
            // The payload is timing-free by contract (byte-identical cache
            // serving); the breakdown rides alongside into the job envelope.
            Ok((api::result_payload(input, &outcome), outcome.stage_timings))
        },
    ));
    match result {
        Ok(Ok((payload, timings))) => {
            cell.merge_timings(&timings);
            let payload = Arc::new(payload);
            cell.complete(Arc::clone(&payload));
            state.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            state.metrics.jobs_completed.inc();
            state.metrics.job_duration.observe_duration(cell.age());
            log_kv(
                Level::Info,
                "server.complete",
                &[
                    ("id", &cell.id),
                    ("secs", &format!("{:.6}", cell.age().as_secs_f64())),
                ],
            );
            // Persist behind the cache: the client is already served from
            // memory, so store trouble can only cost durability.
            if let Some(store) = &state.store {
                let record = RestoredRecord {
                    id: cell.id.clone(),
                    key: cell.key.clone(),
                    circuit_qasm: input.circuit_qasm.clone(),
                    payload: (*payload).clone(),
                    // The merged breakdown, so a restored envelope reports
                    // the same timings the original run did.
                    timings: cell.stage_timings(),
                };
                let append_span = trace::span("store_append");
                let append_started = Instant::now();
                let outcome = store.record_completion(&record);
                state
                    .metrics
                    .store_append
                    .observe_duration(append_started.elapsed());
                drop(append_span);
                match outcome {
                    AppendOutcome::Written => {
                        state.metrics.store_writes.inc();
                        state.metrics.store_records.set(store.records() as i64);
                    }
                    AppendOutcome::Failed => {
                        state.metrics.store_write_failures.inc();
                        state.metrics.store_degraded.set(store.is_degraded() as i64);
                    }
                    AppendOutcome::Skipped => {}
                }
            }
        }
        Ok(Err(TimedOut)) => {
            let budget = input.timeout_ms.unwrap_or(0);
            cell.fail(format!("timed_out: exceeded the {budget} ms deadline"));
            state.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
            state.metrics.jobs_failed.inc();
            state.metrics.jobs_timed_out.inc();
            log_kv(
                Level::Warn,
                "server.job_timed_out",
                &[("id", &cell.id), ("timeout_ms", &budget.to_string())],
            );
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "simulation panicked".to_string());
            cell.fail(format!("simulation failed: {message}"));
            state.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
            state.metrics.jobs_failed.inc();
            log_kv(
                Level::Error,
                "server.job_failed",
                &[("id", &cell.id), ("message", &message)],
            );
            *ctx = ExecContext::new();
        }
    }
    let evicted = state.cache.mark_terminal(&cell.id);
    if evicted > 0 {
        state.metrics.evictions.add(evicted as u64);
    }
}

/// Runs the server until shutdown is requested (via `POST /v1/shutdown` or
/// a [`Server::shutdown`] call from another thread), logging the bound
/// address to `out` first. This is the `qsdd_cli serve` entry point.
pub fn serve_forever(config: ServerConfig, out: &mut impl Write) -> io::Result<()> {
    let server = Server::start(config)?;
    writeln!(out, "qsdd-server listening on http://{}", server.addr())?;
    writeln!(
        out,
        "endpoints: POST /v1/jobs, GET /v1/jobs/<id>, GET /v1/jobs/<id>/trace, GET /v1/traces, GET /v1/healthz, GET /v1/stats, GET /v1/metrics, POST /v1/shutdown"
    )?;
    if let Some(line) = server.store_banner() {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    server.join();
    Ok(())
}
