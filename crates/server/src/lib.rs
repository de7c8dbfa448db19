//! # qsdd-server — a dependency-free HTTP simulation service
//!
//! The ROADMAP's north star is a service "serving heavy traffic from
//! millions of users"; this crate is that deployment shape. It wraps the
//! stochastic simulator in a long-lived HTTP/1.1 + JSON job service,
//! hand-rolled on [`std::net`] (the build environment is offline, so there
//! is no hyper, no serde — the JSON layer is the shared [`qsdd_json`]
//! crate also backing `qsdd-batch`'s reports):
//!
//! * **[`http`]** — minimal HTTP/1.1 request parsing and response writing
//!   (keep-alive, `Content-Length` framing, size caps).
//! * **[`api`]** — the job schema: submissions name a circuit (built-in
//!   generator or inline OpenQASM 2.0), noise model, seed, shots, back-end,
//!   optimization level and observables; results are shaped
//!   like `qsdd-batch`'s per-job reports.
//! * **[`cache`]** — the content-addressed result cache: jobs are
//!   identified by the FxHash of their canonical key, so identical
//!   submissions share one cell — concurrent ones **coalesce** onto a
//!   single simulation and later ones are served the byte-identical cached
//!   payload.
//! * **[`server`]** — listener, router and the worker pool. Each worker
//!   owns one long-lived [`ExecContext`](qsdd_core::ExecContext) reused
//!   across every job it executes (the compile/execute split of
//!   `qsdd-core` amortises across requests) and runs the
//!   trajectory-deduplicating driver whenever the job supports it.
//! * **[`store`]** — the durable result store: completed results are
//!   appended to a checksummed on-disk log (`qsdd-store`) *behind* the
//!   cache and replayed into it at the next boot, so a restart — including
//!   `kill -9` — never changes the bytes a job id answers with. Disk
//!   trouble degrades the server to memory-only; it never fails jobs.
//! * **[`client`]** — a small blocking HTTP client for loopback tests,
//!   the CI smoke check and the benchmark load generator (including
//!   [`client::with_retry`], the bounded-backoff retry helper).
//!
//! Determinism is the backbone: a job's result payload is a pure function
//! of its canonical key (seeded shots, single-context execution, ordered
//! JSON emission), which is what makes cache entries safe to serve
//! byte-for-byte and lets the integration suite diff HTTP responses
//! against direct library runs.
//!
//! ## Quick start
//!
//! ```
//! use qsdd_server::{client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let (status, body) = client::request(
//!     server.addr(),
//!     "POST",
//!     "/v1/jobs",
//!     Some(r#"{"circuit":{"generator":"ghz","qubits":4},"shots":64,"seed":1}"#),
//! )
//! .unwrap();
//! assert_eq!(status, 202);
//! assert!(body.contains("\"id\""));
//! server.shutdown_and_join();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
mod metrics;
pub mod server;
pub mod store;

pub use api::{parse_job_request, result_payload, JobInput};
pub use cache::{CellState, ExecutionCell, ResultCache, Submission};
pub use server::{serve_forever, Server, ServerConfig};
