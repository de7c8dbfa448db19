//! Per-server-instance Prometheus metrics.
//!
//! Each [`Server`](crate::Server) owns its own
//! [`Registry`](qsdd_telemetry::Registry), the only one in the process:
//! several servers in one process (the test suite boots them side by side)
//! never mix series, and `GET /v1/metrics` can assert exact values against
//! a scripted workload. The library layers publish nothing; they return
//! counts (the job's [`StochasticOutcome`], the worker context's
//! [`TableStats`]), and [`ServerMetrics::record_job`] records them here.

use std::sync::Arc;
use std::time::Duration;

use qsdd_core::StochasticOutcome;
use qsdd_dd::TableStats;
use qsdd_telemetry::{Counter, Gauge, Histogram, Registry, Stage, LATENCY_BOUNDS};

/// Pre-resolved handles into the server's private registry (resolving a
/// metric by name takes the registry lock, so the fixed-name series are
/// looked up once at startup).
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    registry: Registry,
    /// Submissions answered from a completed cache entry.
    pub cache_hits: Arc<Counter>,
    /// Submissions that created a new cell (a cache miss).
    pub cache_misses: Arc<Counter>,
    /// Submissions attached to an identical in-flight job.
    pub coalesced: Arc<Counter>,
    /// Completed entries dropped by the cache's LRU bound.
    pub evictions: Arc<Counter>,
    /// Submissions shed with `429` because the queue was full.
    pub rejected: Arc<Counter>,
    /// Jobs whose simulation finished and published a result.
    pub jobs_completed: Arc<Counter>,
    /// Jobs whose simulation panicked.
    pub jobs_failed: Arc<Counter>,
    /// Jobs cancelled at their `timeout_ms` deadline (a subset of failed).
    pub jobs_timed_out: Arc<Counter>,
    /// Completed results appended to the durable store.
    pub store_writes: Arc<Counter>,
    /// Store appends that failed (the job still completed in memory).
    pub store_write_failures: Arc<Counter>,
    /// Records in the durable store (restored at boot + written since).
    pub store_records: Arc<Gauge>,
    /// 1 when the store has degraded to memory-only, else 0 (also 0 when
    /// the server runs without a store).
    pub store_degraded: Arc<Gauge>,
    /// Seconds each durable-store append took (fsync included).
    pub store_append: Arc<Histogram>,
    /// Milliseconds the boot-time store replay took (0 without a store).
    pub store_restore_millis: Arc<Gauge>,
    /// Records replayed from the durable store at the last boot.
    pub store_restored_records: Arc<Gauge>,
    /// Seconds per pipeline stage, in [`Stage::ALL`] order.
    stage_seconds: Vec<Arc<Histogram>>,
    /// Decision-diagram table traffic of executed jobs, in
    /// [`dd_counts`] order.
    dd_tables: Vec<Arc<Counter>>,
    /// Shots aggregated into executed jobs.
    jobs_shots: Arc<Counter>,
    /// Error events over executed jobs.
    jobs_error_events: Arc<Counter>,
    /// The highest node count any executed job reached.
    dd_peak_nodes: Arc<Gauge>,
    /// Trajectories simulated by deduplicated jobs.
    dedup_unique_trajectories: Arc<Counter>,
    /// Shots of deduplicated jobs that ran live.
    dedup_live_shots: Arc<Counter>,
    /// Seconds from submission to published result (end-to-end).
    pub job_duration: Arc<Histogram>,
    /// Jobs currently waiting in the bounded execution queue.
    pub queue_depth: Arc<Gauge>,
}

impl ServerMetrics {
    /// Creates the registry and registers every fixed-name series (so the
    /// metrics page lists them from the first scrape, at zero).
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        let cache_hits = registry.counter(
            "qsdd_cache_hits_total",
            "Submissions answered from a completed cache entry",
        );
        let cache_misses = registry.counter(
            "qsdd_cache_misses_total",
            "Submissions that created a new job (cache miss)",
        );
        let coalesced = registry.counter(
            "qsdd_cache_coalesced_total",
            "Submissions attached to an identical in-flight job",
        );
        let evictions = registry.counter(
            "qsdd_cache_evictions_total",
            "Completed results evicted by the cache's LRU bound",
        );
        let rejected = registry.counter(
            "qsdd_jobs_rejected_total",
            "Submissions shed with 429 because the queue was full",
        );
        let jobs_completed = registry.counter(
            "qsdd_jobs_completed_total",
            "Jobs that finished and published a result",
        );
        let jobs_failed =
            registry.counter("qsdd_jobs_failed_total", "Jobs whose simulation failed");
        let jobs_timed_out = registry.counter(
            "qsdd_jobs_timed_out_total",
            "Jobs cancelled at their timeout_ms deadline",
        );
        let store_writes = registry.counter(
            "qsdd_store_writes_total",
            "Completed results appended to the durable store",
        );
        let store_write_failures = registry.counter(
            "qsdd_store_write_failures_total",
            "Durable-store appends that failed",
        );
        let store_records = registry.gauge(
            "qsdd_store_records",
            "Records in the durable store (restored + written)",
        );
        let store_degraded = registry.gauge(
            "qsdd_store_degraded",
            "1 when the durable store has fallen back to memory-only",
        );
        let store_append = registry.histogram(
            "qsdd_store_append_seconds",
            "Time to append one completed result to the durable store",
            LATENCY_BOUNDS,
        );
        let store_restore_millis = registry.gauge(
            "qsdd_store_restore_millis",
            "Milliseconds the boot-time durable-store replay took",
        );
        let store_restored_records = registry.gauge(
            "qsdd_store_restored_records",
            "Records replayed from the durable store at the last boot",
        );
        let stage_seconds = (Stage::ALL.iter())
            .map(|stage| {
                registry.histogram_with(
                    "qsdd_stage_seconds",
                    "Time spent per pipeline stage",
                    &[("stage", stage.name())],
                    LATENCY_BOUNDS,
                )
            })
            .collect();
        let dd_tables = (dd_counts(&TableStats::default()).iter())
            .map(|&(name, help, _)| registry.counter(name, help))
            .collect();
        let jobs_shots = registry.counter(
            "qsdd_jobs_shots_total",
            "Stochastic shots aggregated into finished jobs",
        );
        let jobs_error_events = registry.counter(
            "qsdd_jobs_error_events_total",
            "Stochastic error events over all finished jobs",
        );
        let dd_peak_nodes = registry.gauge(
            "qsdd_dd_peak_nodes",
            "Highest decision-diagram node count any job reached",
        );
        let dedup_unique_trajectories = registry.counter(
            "qsdd_dedup_unique_trajectories_total",
            "Distinct trajectories actually simulated by deduplicated jobs",
        );
        let dedup_live_shots = registry.counter(
            "qsdd_dedup_live_shots_total",
            "Shots that fell back to live execution in deduplicated jobs",
        );
        let job_duration = registry.histogram(
            "qsdd_job_duration_seconds",
            "Time from job submission to published result",
            LATENCY_BOUNDS,
        );
        let queue_depth = registry.gauge(
            "qsdd_queue_depth",
            "Jobs currently waiting in the execution queue",
        );
        ServerMetrics {
            registry,
            cache_hits,
            cache_misses,
            coalesced,
            evictions,
            rejected,
            jobs_completed,
            jobs_failed,
            jobs_timed_out,
            store_writes,
            store_write_failures,
            store_records,
            store_degraded,
            store_append,
            store_restore_millis,
            store_restored_records,
            stage_seconds,
            dd_tables,
            jobs_shots,
            jobs_error_events,
            dd_peak_nodes,
            dedup_unique_trajectories,
            dedup_live_shots,
            job_duration,
            queue_depth,
        }
    }

    /// Counts one finished HTTP exchange under its normalized endpoint and
    /// status labels (label resolution takes the registry lock — fine at
    /// per-request granularity).
    pub fn observe_request(&self, path: &str, status: u16) {
        self.registry
            .counter_with(
                "qsdd_http_requests_total",
                "HTTP requests served, by endpoint and status",
                &[
                    ("endpoint", normalize_endpoint(path)),
                    ("status", status_label(status)),
                ],
            )
            .inc();
    }

    /// Observes `elapsed` in the stage's `qsdd_stage_seconds` histogram.
    pub fn observe_stage(&self, stage: Stage, elapsed: Duration) {
        // `Stage::ALL` lists the stages in declaration order.
        self.stage_seconds[stage as usize].observe_duration(elapsed);
    }

    /// Records one executed job: the stages its run timed, the `dd` table
    /// traffic of its worker context, and its shot, error-event, node-peak
    /// and trajectory counts.
    pub fn record_job(&self, outcome: &StochasticOutcome, dd: &TableStats) {
        for (stage, elapsed) in outcome.stage_timings.iter() {
            if !elapsed.is_zero() {
                self.observe_stage(stage, elapsed);
            }
        }
        for (counter, (_, _, value)) in self.dd_tables.iter().zip(dd_counts(dd)) {
            counter.add(value);
        }
        self.jobs_shots.add(outcome.shots as u64);
        self.jobs_error_events.add(outcome.error_events);
        self.dd_peak_nodes.set_max(outcome.dd_nodes_peak as i64);
        if let Some(stats) = &outcome.dedup {
            self.dedup_unique_trajectories
                .add(stats.unique_trajectories);
            self.dedup_live_shots.add(stats.live_shots);
        }
    }

    /// Renders this server's registry as Prometheus text.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// The `qsdd_dd_*_total` series: name, help text and value in `stats`.
fn dd_counts(stats: &TableStats) -> [(&'static str, &'static str, u64); 8] {
    [
        (
            "qsdd_dd_vec_unique_hits_total",
            "Vector unique-table lookups that found an existing node",
            stats.vec_unique_hits,
        ),
        (
            "qsdd_dd_vec_unique_misses_total",
            "Vector unique-table lookups that created a new node",
            stats.vec_unique_misses,
        ),
        (
            "qsdd_dd_mat_unique_hits_total",
            "Matrix unique-table lookups that found an existing node",
            stats.mat_unique_hits,
        ),
        (
            "qsdd_dd_mat_unique_misses_total",
            "Matrix unique-table lookups that created a new node",
            stats.mat_unique_misses,
        ),
        (
            "qsdd_dd_compute_hits_total",
            "Compute-table lookups that hit a cached result",
            stats.compute_hits,
        ),
        (
            "qsdd_dd_compute_misses_total",
            "Compute-table lookups that missed and computed",
            stats.compute_misses,
        ),
        (
            "qsdd_dd_complex_lookups_total",
            "Complex-table tolerance-ball searches (values not near 0 or 1)",
            stats.complex_lookups,
        ),
        (
            "qsdd_dd_complex_inserts_total",
            "Complex values interned",
            stats.complex_inserts,
        ),
    ]
}

/// Collapses request paths onto a bounded endpoint label set, so an
/// attacker probing random paths cannot grow the registry without bound.
pub(crate) fn normalize_endpoint(path: &str) -> &'static str {
    match path {
        "/v1/healthz" => "/v1/healthz",
        "/v1/stats" => "/v1/stats",
        "/v1/metrics" => "/v1/metrics",
        "/v1/jobs" => "/v1/jobs",
        "/v1/shutdown" => "/v1/shutdown",
        "/v1/traces" => "/v1/traces",
        path if path.starts_with("/v1/jobs/") && path.ends_with("/trace") => "/v1/jobs/{id}/trace",
        path if path.starts_with("/v1/jobs/") => "/v1/jobs/{id}",
        _ => "other",
    }
}

/// The bounded status-label set (every status the server emits).
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        202 => "202",
        400 => "400",
        404 => "404",
        405 => "405",
        413 => "413",
        429 => "429",
        503 => "503",
        _ => "500",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_normalize_onto_a_bounded_label_set() {
        assert_eq!(normalize_endpoint("/v1/jobs"), "/v1/jobs");
        assert_eq!(normalize_endpoint("/v1/jobs/j0123abc"), "/v1/jobs/{id}");
        assert_eq!(
            normalize_endpoint("/v1/jobs/j0123abc/trace"),
            "/v1/jobs/{id}/trace"
        );
        assert_eq!(normalize_endpoint("/v1/traces"), "/v1/traces");
        assert_eq!(normalize_endpoint("/v1/metrics"), "/v1/metrics");
        assert_eq!(normalize_endpoint("/etc/passwd"), "other");
        assert_eq!(normalize_endpoint(""), "other");
    }

    #[test]
    fn request_counters_render_with_labels() {
        let metrics = ServerMetrics::new();
        metrics.observe_request("/v1/jobs", 202);
        metrics.observe_request("/v1/jobs", 202);
        metrics.observe_request("/v1/jobs/jdeadbeef", 200);
        let text = metrics.render();
        assert!(
            text.contains("qsdd_http_requests_total{endpoint=\"/v1/jobs\",status=\"202\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qsdd_http_requests_total{endpoint=\"/v1/jobs/{id}\",status=\"200\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn fixed_series_are_present_from_the_first_scrape() {
        let text = ServerMetrics::new().render();
        for name in [
            "qsdd_cache_hits_total",
            "qsdd_cache_misses_total",
            "qsdd_cache_coalesced_total",
            "qsdd_cache_evictions_total",
            "qsdd_jobs_rejected_total",
            "qsdd_jobs_completed_total",
            "qsdd_jobs_failed_total",
            "qsdd_jobs_timed_out_total",
            "qsdd_store_writes_total",
            "qsdd_store_write_failures_total",
            "qsdd_store_records",
            "qsdd_store_degraded",
            "qsdd_store_append_seconds_count",
            "qsdd_store_restore_millis",
            "qsdd_store_restored_records",
            "qsdd_stage_seconds_count{stage=\"queue_wait\"}",
            "qsdd_dd_compute_misses_total",
            "qsdd_jobs_shots_total",
            "qsdd_dedup_live_shots_total",
            "qsdd_job_duration_seconds_count",
            "qsdd_queue_depth",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
