//! In-process robustness tests for the `qsdd-server` service: job
//! deadlines, the durable result store behind the cache, and graceful
//! degradation when the store directory is unusable.
//!
//! The subprocess `kill -9` suite lives in `tests/store_restart.rs`; this
//! file covers the same durability contract ("a restart never changes the
//! bytes a job id answers with") through clean in-process restarts, where
//! assertions can reach the typed `Server` API (`store_banner`, stats).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use qsdd::circuit::generators::qft;
use qsdd::circuit::{qasm, Circuit};
use qsdd::json::{self, Value};
use qsdd::server::{client, Server, ServerConfig};

/// A unique per-test scratch directory under the system temp dir,
/// recreated empty on every run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsdd-robustness-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot_with_store(store_dir: &std::path::Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Submits `body` and returns the job id.
fn submit(addr: std::net::SocketAddr, body: &str) -> String {
    let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert!(status == 200 || status == 202, "submit failed: {response}");
    json::parse(&response)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

/// Polls until the job is terminal; returns the raw envelope body (the
/// byte-comparable unit for the restart contract).
fn poll_terminal(addr: std::net::SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut session = client::Client::connect(addr).expect("connect");
    loop {
        let (status, body) = session
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .expect("poll");
        assert_eq!(status, 200, "poll failed: {body}");
        let envelope = json::parse(&body).expect("envelope json");
        match envelope.get("status").and_then(Value::as_str) {
            Some("completed") | Some("failed") => return body,
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn stats(addr: std::net::SocketAddr) -> Value {
    let (status, body) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(status, 200);
    json::parse(&body).unwrap()
}

#[test]
fn deadlined_jobs_fail_fast_with_a_timed_out_reason() {
    // A job that would take far longer than its deadline: dense-backend
    // QFT shots are expensive, and 100k of them run for minutes in a debug
    // build. The 100 ms deadline must cut the run off cooperatively.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let body = format!(
        r#"{{"circuit":{},"backend":"dense","shots":100000,"seed":1,"timeout_ms":100}}"#,
        per_shot_qft(10)
    );
    let started = Instant::now();
    let id = submit(addr, &body);
    let envelope = json::parse(&poll_terminal(addr, &id)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        envelope.get("status").and_then(Value::as_str),
        Some("failed")
    );
    let error = envelope
        .get("error")
        .and_then(Value::as_str)
        .expect("failed envelope carries an error");
    assert!(error.contains("timed_out"), "{error}");
    assert!(error.contains("100 ms"), "{error}");
    // Cooperative cancellation is prompt: submit-to-terminal stays within a
    // small multiple of the deadline (the uncancelled run takes minutes).
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?}"
    );

    // The deadline is part of the canonical key: the same job under a
    // different budget is a different content address.
    let other = submit(
        addr,
        &body.replace("\"timeout_ms\":100", "\"timeout_ms\":101"),
    );
    assert_ne!(id, other, "timeout_ms must feed the content address");
    poll_terminal(addr, &other);

    // The failure is observable: the dedicated stat and metric both moved.
    let stats = stats(addr);
    assert_eq!(stats.get("jobs_failed").and_then(Value::as_u64), Some(2));
    let (status, metrics) = client::request(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("qsdd_jobs_timed_out_total 2"),
        "metrics missing the timeout counter: {metrics}"
    );

    // A timed-out worker context is reused, not torn down: the next job on
    // the same (single) worker completes normally.
    let ok = submit(
        addr,
        r#"{"circuit":{"generator":"ghz","qubits":4},"shots":50,"seed":2}"#,
    );
    let envelope = json::parse(&poll_terminal(addr, &ok)).unwrap();
    assert_eq!(
        envelope.get("status").and_then(Value::as_str),
        Some("completed")
    );
    server.shutdown_and_join();
}

#[test]
fn results_survive_a_clean_restart_byte_for_byte() {
    let dir = scratch_dir("clean-restart");
    let jobs: Vec<String> = (0..3)
        .map(|seed| {
            format!(r#"{{"circuit":{{"generator":"ghz","qubits":5}},"shots":200,"seed":{seed}}}"#)
        })
        .collect();

    // First life: run the jobs to completion and capture the exact bytes
    // each GET answers with.
    let server = boot_with_store(&dir);
    let addr = server.addr();
    let ids: Vec<String> = jobs.iter().map(|body| submit(addr, body)).collect();
    let before: Vec<String> = ids.iter().map(|id| poll_terminal(addr, id)).collect();
    // The append happens just after the cell completes, so give the last
    // write a moment to land before pinning the counter.
    let wait_deadline = Instant::now() + Duration::from_secs(10);
    let stats_before = loop {
        let stats = stats(addr);
        let writes = stats
            .get("store")
            .and_then(|store| store.get("writes"))
            .and_then(Value::as_u64);
        if writes == Some(3) || Instant::now() > wait_deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let store = stats_before.get("store").expect("stats report the store");
    assert_eq!(store.get("writes").and_then(Value::as_u64), Some(3));
    assert_eq!(store.get("degraded").and_then(Value::as_bool), Some(false));
    assert_eq!(
        store.get("restored_at_boot").and_then(Value::as_u64),
        Some(0)
    );
    server.shutdown_and_join();

    // Second life: same directory, no resubmission. Every GET must answer
    // with byte-identical envelopes, served from the store-warmed cache
    // without running a single simulation.
    let server = boot_with_store(&dir);
    let addr = server.addr();
    let banner = server
        .store_banner()
        .expect("a store-backed server banners");
    assert!(
        banner.contains("3 records restored"),
        "banner drifted: {banner}"
    );
    for (id, before) in ids.iter().zip(&before) {
        let after = poll_terminal(addr, id);
        assert_eq!(&after, before, "restart changed the bytes of {id}");
    }
    let stats_after = stats(addr);
    assert_eq!(
        stats_after.get("simulations").and_then(Value::as_u64),
        Some(0)
    );
    let store = stats_after.get("store").unwrap();
    assert_eq!(
        store.get("restored_at_boot").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(
        store.get("truncated_bytes_at_boot").and_then(Value::as_u64),
        Some(0)
    );
    // Resubmitting one of the jobs is a pure cache hit.
    let resubmitted = submit(addr, &jobs[1]);
    assert_eq!(resubmitted, ids[1]);
    assert_eq!(
        stats(addr).get("simulations").and_then(Value::as_u64),
        Some(0)
    );
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unusable_store_degrades_to_memory_only_without_failing_jobs() {
    // Point --store-dir at a *file*: the directory cannot be created, so
    // the server must boot degraded (memory-only) and still serve jobs.
    let dir = scratch_dir("degraded");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, b"occupied").unwrap();

    let server = boot_with_store(&blocker);
    let addr = server.addr();
    let banner = server.store_banner().unwrap();
    assert!(banner.contains("DEGRADED"), "banner drifted: {banner}");

    let id = submit(
        addr,
        r#"{"circuit":{"generator":"ghz","qubits":4},"shots":100,"seed":9}"#,
    );
    let envelope = json::parse(&poll_terminal(addr, &id)).unwrap();
    assert_eq!(
        envelope.get("status").and_then(Value::as_str),
        Some("completed")
    );
    let store = stats(addr).get("store").unwrap().clone();
    assert_eq!(store.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(store.get("writes").and_then(Value::as_u64), Some(0));
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn servers_without_a_store_report_a_null_store_object() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    assert!(server.store_banner().is_none());
    let body = stats(server.addr());
    assert!(
        matches!(body.get("store"), Some(Value::Null)),
        "store stats must be null without --store-dir: {body:?}"
    );
    server.shutdown_and_join();
}

/// The `circuit` object of a QFT-`n` job whose shots all run live: it
/// measures a qubit before its first gate, so no prefix is worth sharing
/// and the job declines trajectory deduplication.
fn per_shot_qft(n: usize) -> String {
    let mut circuit = Circuit::new(n);
    circuit.measure(0, 0).append(&qft(n));
    let source = qasm::write_source(&circuit).expect("QFT is expressible in QASM");
    format!(r#"{{"qasm":{}}}"#, Value::from(source.as_str()))
}
