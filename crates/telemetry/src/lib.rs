//! Dependency-free observability for the qsdd pipeline.
//!
//! Three small, orthogonal pieces:
//!
//! * **Metrics** ([`metrics`], [`registry`]) — atomic counters, gauges
//!   and fixed-bucket histograms, registered by name in a [`Registry`]
//!   and rendered in Prometheus text exposition format.
//!   Registries are plain values: the server owns one per instance (so
//!   tests can assert exact counts), while library layers share the
//!   process-wide [`global()`] registry.
//! * **Spans** ([`spans`]) — a [`Stage`] vocabulary for the pipeline
//!   (parse → transpile → compile → presample → group → execute →
//!   aggregate, plus cache-lookup and queue-wait on the serving path),
//!   [`spans::record_stage`], which records elapsed time into the global
//!   registry's per-stage histograms, and a [`StageTimings`] accumulator
//!   for per-job breakdowns.
//! * **Logging** ([`log`]) — level-filtered `key=value` lines on stderr,
//!   controlled by the `QSDD_LOG` environment variable. Lines emitted
//!   inside a traced job automatically carry `trace_id`/`job_id`.
//! * **Tracing** ([`trace`]) — hierarchical per-job span trees
//!   (request lifecycle → trajectory groups → worker lanes) behind an
//!   independent gate, merged at job end into a [`trace::Trace`] that
//!   renders as Chrome trace-event JSON.
//!
//! # The enabled gate
//!
//! Recording into the *global* registry is gated on a process-wide flag
//! ([`enabled()`], default **off**) so the shot loop pays one relaxed
//! atomic load — nothing else — when nobody is watching. The server and
//! the CLI's `--profile` flag turn the gate on. Per-instance registries
//! (the server's request counters) are not gated: their updates happen
//! once per HTTP request, not per shot.
//!
//! The build environment is offline, so everything here is hand-rolled on
//! `std` — no `prometheus`, no `tracing`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod log;
pub mod metrics;
pub mod registry;
pub mod spans;
pub mod trace;

pub use log::{log_enabled, log_kv, Level};
pub use metrics::{Counter, Gauge, Histogram, LATENCY_BOUNDS, SIZE_BOUNDS};
pub use registry::Registry;
pub use spans::{Stage, StageTimings};
pub use trace::{set_trace_enabled, trace_enabled, Trace, TraceStore, Tracer};

/// Process-wide switch for recording into the [`global()`] registry.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether global-registry recording is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global-registry recording on or off.
///
/// The server and `qsdd_cli --profile` call this with `true`; everything
/// recorded before that is simply dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry shared by the library layers (stage
/// histograms, decision-diagram table counters, batch-scheduler gauges).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `body` with the metrics gate set to `on`, then restores it.
    /// The whole test binary shares the gate, so every test that flips it
    /// goes through here, one at a time (as `trace`'s `with_tracing` does
    /// for the trace gate).
    pub(crate) fn with_gate<T>(on: bool, body: impl FnOnce() -> T) -> T {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        let before = enabled();
        set_enabled(on);
        let out = body();
        set_enabled(before);
        out
    }

    #[test]
    fn the_gate_defaults_off_and_toggles() {
        with_gate(true, || assert!(enabled()));
        with_gate(false, || assert!(!enabled()));
    }

    #[test]
    fn the_global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
