//! Dependency-free observability for the qsdd pipeline.
//!
//! Four small, orthogonal pieces:
//!
//! * **Metrics** ([`metrics`], [`registry`]) — atomic counters, gauges
//!   and fixed-bucket histograms, registered by name in a [`Registry`]
//!   and rendered in Prometheus text exposition format. A registry is a
//!   plain value with no process-wide instance: the server owns one and
//!   records into it what the library layers return (stage timings,
//!   decision-diagram table counts, shot and trajectory counts), so its
//!   `/v1/metrics` page is exact per server. The library layers publish
//!   no metrics.
//! * **Spans** ([`spans`]) — a [`Stage`] vocabulary for the pipeline
//!   (parse → transpile → compile → presample → execute → aggregate, plus
//!   cache-lookup and queue-wait on the serving path) and a
//!   [`StageTimings`] accumulator for per-job breakdowns.
//! * **Logging** ([`log`]) — level-filtered `key=value` lines on stderr,
//!   controlled by the `QSDD_LOG` environment variable. Lines emitted
//!   inside a traced job automatically carry `trace_id`/`job_id`.
//! * **Tracing** ([`trace`]) — hierarchical per-job span trees
//!   (request lifecycle → trajectory groups → worker lanes) behind the
//!   crate's one process-wide gate (`QSDD_TRACE`), merged at job end into
//!   a [`trace::Trace`] that renders as Chrome trace-event JSON.
//!
//! The build environment is offline, so everything here is hand-rolled on
//! `std` — no `prometheus`, no `tracing`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod log;
pub mod metrics;
pub mod registry;
pub mod spans;
pub mod trace;

pub use log::{log_enabled, log_kv, Level};
pub use metrics::{Counter, Gauge, Histogram, LATENCY_BOUNDS};
pub use registry::Registry;
pub use spans::{Stage, StageTimings};
pub use trace::{set_trace_enabled, trace_enabled, Trace, TraceStore, Tracer};
