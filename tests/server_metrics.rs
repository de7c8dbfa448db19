//! Exact-value tests of the observability surface: `GET /v1/metrics`
//! (Prometheus text exposition) and the extended `GET /v1/stats`, under a
//! scripted mix of cache hits, misses, coalesces and 429 sheds, across
//! 1/2/8 server threads.
//!
//! Every server instance owns a private metrics registry, so the counters
//! asserted here are exact — no tolerance windows, no cross-test bleed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qsdd::circuit::generators::qft;
use qsdd::circuit::{qasm, Circuit};
use qsdd::json::{self, Value};
use qsdd::server::{client, Server, ServerConfig};

/// Boots a server on an ephemeral loopback port.
fn boot(threads: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Polls `GET /v1/jobs/<id>` until the job completes; returns its result
/// payload.
fn wait_completed(addr: std::net::SocketAddr, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut session = client::Client::connect(addr).expect("connect");
    loop {
        let (status, body) = session
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .expect("poll");
        assert_eq!(status, 200, "poll failed: {body}");
        let envelope = json::parse(&body).expect("envelope json");
        match envelope.get("status").and_then(Value::as_str) {
            Some("completed") => return envelope.get("result").expect("a result").clone(),
            Some("failed") => panic!("job {id} failed: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Submits a job and returns `(status, id)`.
fn submit(addr: std::net::SocketAddr, body: &str) -> (u16, Option<String>) {
    let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
    let id = json::parse(&response)
        .ok()
        .and_then(|value| value.get("id").and_then(Value::as_str).map(str::to_string));
    (status, id)
}

/// Scrapes `/v1/metrics` into a `series -> value` map (`series` is the
/// full sample key including labels, e.g.
/// `qsdd_http_requests_total{endpoint="/v1/jobs",status="202"}`).
fn scrape(addr: std::net::SocketAddr) -> (Vec<(String, String)>, HashMap<String, f64>, String) {
    let mut session = client::Client::connect(addr).expect("connect");
    let (status, headers, body) = session
        .request_with_headers("GET", "/v1/metrics", None)
        .expect("scrape");
    assert_eq!(status, 200, "{body}");
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // Exposition format: `<series> <value>` — anything else is invalid.
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("malformed exposition line `{line}`");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample in `{line}`"));
        samples.insert(series.to_string(), value);
    }
    (headers, samples, body)
}

/// Asserts one exact sample value.
fn assert_sample(samples: &HashMap<String, f64>, series: &str, expected: f64, context: &str) {
    let actual = samples
        .get(series)
        .unwrap_or_else(|| panic!("{context}: series `{series}` not exposed"));
    assert_eq!(*actual, expected, "{context}: `{series}`");
}

/// The decision-diagram table series, recorded from each job's table
/// traffic in its worker's context.
const DD_SERIES: [&str; 8] = [
    "qsdd_dd_vec_unique_hits_total",
    "qsdd_dd_vec_unique_misses_total",
    "qsdd_dd_mat_unique_hits_total",
    "qsdd_dd_mat_unique_misses_total",
    "qsdd_dd_compute_hits_total",
    "qsdd_dd_compute_misses_total",
    "qsdd_dd_complex_lookups_total",
    "qsdd_dd_complex_inserts_total",
];

/// `qsdd_stage_seconds_count` of one stage.
fn stage_count(stage: &str) -> String {
    format!("qsdd_stage_seconds_count{{stage=\"{stage}\"}}")
}

/// Asserts the job series of a page against the results of the jobs the
/// server executed: shots, error events, trajectories and node peaks are
/// the sums (the peak the maximum) of the results' own fields.
fn assert_job_series(samples: &HashMap<String, f64>, results: &[Value], context: &str) {
    let field = |result: &Value, name: &str| {
        let value = result.get(name).and_then(Value::as_f64);
        value.unwrap_or_else(|| panic!("{context}: result field `{name}`"))
    };
    let sum = |name: &str| {
        results
            .iter()
            .map(|result| field(result, name))
            .sum::<f64>()
    };
    let shots = sum("shots_executed");
    assert_sample(samples, "qsdd_jobs_shots_total", shots, context);
    let events = sum("error_events");
    assert_sample(samples, "qsdd_jobs_error_events_total", events, context);
    let unique = sum("unique_trajectories");
    assert_sample(
        samples,
        "qsdd_dedup_unique_trajectories_total",
        unique,
        context,
    );
    let live = sum("live_shots");
    assert_sample(samples, "qsdd_dedup_live_shots_total", live, context);
    let peak = (results.iter()).fold(0.0, |peak: f64, result| {
        peak.max(field(result, "dd_nodes_peak"))
    });
    assert_sample(samples, "qsdd_dd_peak_nodes", peak, context);
}

#[test]
fn exact_hit_and_miss_counters_across_thread_counts() {
    let mut dd_counts: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 8] {
        let context = format!("{threads} threads");
        let server = boot(threads, 256);
        let addr = server.addr();
        // On the decision-diagram engine, so that the table series count.
        let bodies: Vec<String> = (0..3)
            .map(|i| {
                format!(
                    r#"{{"circuit":{{"generator":"ghz","qubits":6}},"backend":"dd","shots":300,"seed":{}}}"#,
                    100 + i
                )
            })
            .collect();

        // 3 distinct submissions: all misses, each executed to completion.
        let mut results = Vec::new();
        for body in &bodies {
            let (status, id) = submit(addr, body);
            assert_eq!(status, 202, "{context}");
            results.push(wait_completed(addr, &id.unwrap()));
        }
        // The same 3 again: all served from the completed cache cells.
        for body in &bodies {
            let (status, id) = submit(addr, body);
            assert_eq!(status, 200, "{context}: expected a cache hit");
            assert!(id.is_some());
        }

        let (headers, samples, page) = scrape(addr);
        let content_type = headers
            .iter()
            .find(|(name, _)| name == "content-type")
            .map(|(_, value)| value.as_str());
        assert_eq!(
            content_type,
            Some("text/plain; version=0.0.4; charset=utf-8"),
            "{context}"
        );
        // Counters match the scripted workload exactly.
        assert_sample(&samples, "qsdd_cache_misses_total", 3.0, &context);
        assert_sample(&samples, "qsdd_cache_hits_total", 3.0, &context);
        assert_sample(&samples, "qsdd_cache_coalesced_total", 0.0, &context);
        assert_sample(&samples, "qsdd_cache_evictions_total", 0.0, &context);
        assert_sample(&samples, "qsdd_jobs_rejected_total", 0.0, &context);
        assert_sample(&samples, "qsdd_jobs_completed_total", 3.0, &context);
        assert_sample(&samples, "qsdd_jobs_failed_total", 0.0, &context);
        assert_sample(&samples, "qsdd_queue_depth", 0.0, &context);
        // Histograms saw one sample per executed job, the submit path's
        // stages one per submission.
        assert_sample(&samples, "qsdd_job_duration_seconds_count", 3.0, &context);
        for (stage, count) in [
            ("parse", 6.0),
            ("cache_lookup", 6.0),
            ("queue_wait", 3.0),
            ("transpile", 0.0),
            ("compile", 3.0),
            ("presample", 3.0),
            ("execute", 3.0),
            ("aggregate", 3.0),
        ] {
            assert_sample(&samples, &stage_count(stage), count, &context);
        }
        // 900 shots, and the rest as the three results report them.
        assert_sample(&samples, "qsdd_jobs_shots_total", 900.0, &context);
        assert_job_series(&samples, &results, &context);
        // The table traffic of the same three jobs is the same on any
        // number of workers.
        let dd: Vec<f64> = DD_SERIES.iter().map(|series| samples[*series]).collect();
        assert!(dd[5] > 0.0, "{context}: no compute-table miss counted");
        match &dd_counts {
            None => dd_counts = Some(dd),
            Some(first) => assert_eq!(&dd, first, "{context}: DD table series"),
        }
        // Per-endpoint request counters (the poll endpoint's count depends
        // on scheduling, so only the deterministic series are asserted).
        assert_sample(
            &samples,
            "qsdd_http_requests_total{endpoint=\"/v1/jobs\",status=\"202\"}",
            3.0,
            &context,
        );
        assert_sample(
            &samples,
            "qsdd_http_requests_total{endpoint=\"/v1/jobs\",status=\"200\"}",
            3.0,
            &context,
        );
        // HELP/TYPE metadata renders for the asserted series.
        assert!(
            page.contains("# TYPE qsdd_cache_hits_total counter"),
            "{context}"
        );
        assert!(
            page.contains("# TYPE qsdd_stage_seconds histogram"),
            "{context}"
        );
        assert!(page.contains("# TYPE qsdd_queue_depth gauge"), "{context}");
        // The cumulative bucket invariant holds: +Inf bucket == _count.
        assert_sample(
            &samples,
            "qsdd_stage_seconds_bucket{stage=\"queue_wait\",le=\"+Inf\"}",
            3.0,
            &context,
        );

        // A second scrape sees the first one's request counted (a request
        // is observed after its response body is rendered, so a scrape
        // never counts itself).
        let (_, samples, _) = scrape(addr);
        assert_sample(
            &samples,
            "qsdd_http_requests_total{endpoint=\"/v1/metrics\",status=\"200\"}",
            1.0,
            &context,
        );

        // `/v1/stats` agrees with the registry.
        let (status, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        assert_eq!(status, 200);
        let stats = json::parse(&stats).unwrap();
        for (field, expected) in [
            ("jobs_accepted", 6),
            ("simulations", 3),
            ("cache_hits", 3),
            ("coalesced", 0),
            ("rejected", 0),
            ("rejected_jobs", 0),
        ] {
            assert_eq!(
                stats.get(field).and_then(Value::as_u64),
                Some(expected),
                "{context}: stats `{field}`"
            );
        }
        // Every accepted submission is one scraped hit, miss or coalesce.
        let scraped = samples["qsdd_cache_hits_total"]
            + samples["qsdd_cache_misses_total"]
            + samples["qsdd_cache_coalesced_total"];
        assert_eq!(
            stats.get("jobs_accepted").and_then(Value::as_u64),
            Some(scraped as u64),
            "{context}: stats `jobs_accepted` against the scrape"
        );
        server.shutdown_and_join();
    }
}

#[test]
fn deterministic_backpressure_counts_under_concurrent_load() {
    // Scripted 429s: fill every worker with a slow job, put one more in the
    // 1-deep queue, then probe. A blocker's duration comes from the job, not
    // from kernel speed: a million per-shot dense QFT-10 runs (measured
    // first, so no trajectory is shared) take minutes
    // in any profile, and the deadline — checked between shots — ends the
    // job after `BLOCK_MS`. The probe phase takes tens of milliseconds, so
    // the counts below are deterministic, not timing-lucky.
    const BLOCK_MS: u64 = 2000;
    let circuit = per_shot_qft(10);
    let blocker = |seed: usize| {
        format!(
            r#"{{"circuit":{circuit},"backend":"dense","shots":1000000,"timeout_ms":{BLOCK_MS},"seed":{seed}}}"#
        )
    };
    for threads in [1usize, 2, 8] {
        let context = format!("{threads} threads");
        let server = boot(threads, 1);
        let addr = server.addr();

        // One blocker per worker, each submitted only once the queue is
        // empty again (so none bounces off the 1-deep queue).
        for seed in 0..threads {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let (_, samples, _) = scrape(addr);
                if samples["qsdd_queue_depth"] == 0.0 {
                    break;
                }
                assert!(Instant::now() < deadline, "{context}: queue never drained");
                std::thread::sleep(Duration::from_millis(2));
            }
            let (status, _) = submit(addr, &blocker(seed));
            assert_eq!(status, 202, "{context}: blocker {seed}");
        }
        // Wait until every blocker was picked up by a worker...
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, samples, _) = scrape(addr);
            if samples[&stage_count("queue_wait")] == threads as f64 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{context}: workers never started"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // ... then fill the queue with one more,
        let (status, _) = submit(addr, &blocker(threads));
        assert_eq!(status, 202, "{context}: queued blocker");
        // shed exactly 3 distinct probes,
        for probe in 0..3 {
            let (status, _) = submit(
                addr,
                &format!(
                    r#"{{"circuit":{{"generator":"ghz","qubits":4}},"shots":50,"seed":{probe}}}"#
                ),
            );
            assert_eq!(status, 429, "{context}: probe {probe}");
        }
        // and coalesce one duplicate onto the in-flight first blocker.
        let (status, _) = submit(addr, &blocker(0));
        assert_eq!(status, 202, "{context}: duplicate should coalesce");

        let (_, samples, _) = scrape(addr);
        let n = threads as f64;
        assert_sample(&samples, "qsdd_cache_misses_total", n + 1.0, &context);
        assert_sample(&samples, "qsdd_cache_coalesced_total", 1.0, &context);
        assert_sample(&samples, "qsdd_cache_hits_total", 0.0, &context);
        assert_sample(&samples, "qsdd_jobs_rejected_total", 3.0, &context);
        assert_sample(&samples, "qsdd_jobs_completed_total", 0.0, &context);
        assert_sample(&samples, &stage_count("queue_wait"), n, &context);
        assert_sample(&samples, "qsdd_job_duration_seconds_count", 0.0, &context);
        assert_sample(&samples, "qsdd_queue_depth", 1.0, &context);
        assert_sample(
            &samples,
            "qsdd_http_requests_total{endpoint=\"/v1/jobs\",status=\"202\"}",
            n + 2.0,
            &context,
        );
        assert_sample(
            &samples,
            "qsdd_http_requests_total{endpoint=\"/v1/jobs\",status=\"429\"}",
            3.0,
            &context,
        );

        // `/v1/stats` reports the sheds under both spellings.
        let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        let stats = json::parse(&stats).unwrap();
        assert_eq!(stats.get("rejected").and_then(Value::as_u64), Some(3));
        assert_eq!(stats.get("rejected_jobs").and_then(Value::as_u64), Some(3));
        // Both spellings equal the scraped rejection series.
        let scraped = samples["qsdd_jobs_rejected_total"] as u64;
        for field in ["rejected", "rejected_jobs"] {
            assert_eq!(
                stats.get(field).and_then(Value::as_u64),
                Some(scraped),
                "{context}: stats `{field}` against the scrape"
            );
        }

        // Shutdown drains the accepted blockers.
        server.shutdown_and_join();
    }
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

#[test]
fn two_servers_in_one_process_each_count_only_their_own_job() {
    let jobs = [
        r#"{"circuit":{"generator":"ghz","qubits":5},"backend":"dd","shots":200,"seed":11}"#,
        r#"{"circuit":{"generator":"qft","qubits":4},"backend":"dd","shots":300,"seed":12}"#,
    ];
    let servers = [boot(1, 16), boot(2, 16)];
    let ids: Vec<String> = (servers.iter().zip(jobs))
        .map(|(server, body)| {
            let (status, id) = submit(server.addr(), body);
            assert_eq!(status, 202);
            id.expect("a job id")
        })
        .collect();
    for (index, (server, id)) in servers.iter().zip(&ids).enumerate() {
        let context = format!("server {index}");
        let result = wait_completed(server.addr(), id);
        let (_, samples, _) = scrape(server.addr());
        let shots = [200.0, 300.0][index];
        assert_sample(&samples, "qsdd_jobs_shots_total", shots, &context);
        assert_job_series(&samples, &[result], &context);
        for stage in ["parse", "cache_lookup", "queue_wait", "compile", "execute"] {
            assert_sample(&samples, &stage_count(stage), 1.0, &context);
        }
    }
    for server in servers {
        server.shutdown_and_join();
    }
}
