//! Named metric registration and Prometheus text rendering.
//!
//! A [`Registry`] is a plain value with no process-wide instance:
//! `qsdd-server` owns one per server, so integration tests can assert
//! *exact* counter values even when several servers run in one test
//! process.
//!
//! Handles returned by the registration methods are `Arc`s; callers keep
//! them and update lock-free. The registry's own lock is touched only at
//! registration (get-or-create) and render time.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};

/// One registered time series.
struct Entry {
    name: String,
    help: String,
    /// Rendered label pairs (`key="value",...`), empty for unlabelled
    /// series.
    labels: String,
    kind: Kind,
}

enum Kind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Default)]
struct Inner {
    /// Series in registration order (render order is deterministic).
    entries: Vec<Entry>,
    /// `(name, labels)` → slot in `entries`.
    index: HashMap<(String, String), usize>,
}

/// A collection of named metrics, rendered as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("Registry")
            .field("series", &inner.entries.len())
            .finish()
    }
}

/// Renders label pairs as `key="value",...` with Prometheus escaping.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out
}

/// Formats a float the way Prometheus expects (`1`, `0.25`, `+Inf`).
fn render_f64(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        let mut text = format!("{value}");
        if !text.contains('.') && !text.contains('e') {
            text.push_str(".0");
        }
        text
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> (Kind, Arc<T>),
        extract: impl FnOnce(&Kind) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let labels = render_labels(labels);
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(&slot) = inner.index.get(&(name.to_string(), labels.clone())) {
            return extract(&inner.entries[slot].kind)
                .unwrap_or_else(|| panic!("metric `{name}` re-registered with a different type"));
        }
        let (kind, handle) = make();
        let slot = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.clone(),
            kind,
        });
        inner.index.insert((name.to_string(), labels), slot);
        handle
    }

    /// Registers (or fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or fetches) a counter with label pairs.
    ///
    /// Label values are part of the series identity: each distinct
    /// combination is its own counter. Keep cardinality bounded (the
    /// server normalises request paths before labelling).
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            labels,
            || {
                let counter = Arc::new(Counter::new());
                (Kind::Counter(Arc::clone(&counter)), counter)
            },
            |kind| match kind {
                Kind::Counter(counter) => Some(Arc::clone(counter)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or fetches) a gauge with label pairs.
    ///
    /// As with [`counter_with`](Registry::counter_with), each distinct
    /// label combination is its own series; keep cardinality bounded.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            labels,
            || {
                let gauge = Arc::new(Gauge::new());
                (Kind::Gauge(Arc::clone(&gauge)), gauge)
            },
            |kind| match kind {
                Kind::Gauge(gauge) => Some(Arc::clone(gauge)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) an unlabelled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Registers (or fetches) a histogram with label pairs.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            || {
                let histogram = Arc::new(Histogram::new(bounds));
                (Kind::Histogram(Arc::clone(&histogram)), histogram)
            },
            |kind| match kind {
                Kind::Histogram(histogram) => Some(Arc::clone(histogram)),
                _ => None,
            },
        )
    }

    /// Renders every series in Prometheus text exposition format.
    ///
    /// Series render in registration order; `# HELP` / `# TYPE` headers
    /// are emitted once per metric name, before its first series.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        for entry in &inner.entries {
            if !described.contains(&entry.name.as_str()) {
                described.push(&entry.name);
                let type_name = match entry.kind {
                    Kind::Counter(_) => "counter",
                    Kind::Gauge(_) => "gauge",
                    Kind::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", entry.name, entry.help));
                out.push_str(&format!("# TYPE {} {}\n", entry.name, type_name));
            }
            match &entry.kind {
                Kind::Counter(counter) => {
                    out.push_str(&series_line(&entry.name, &entry.labels, None));
                    out.push_str(&format!(" {}\n", counter.get()));
                }
                Kind::Gauge(gauge) => {
                    out.push_str(&series_line(&entry.name, &entry.labels, None));
                    out.push_str(&format!(" {}\n", gauge.get()));
                }
                Kind::Histogram(histogram) => {
                    let cumulative = histogram.cumulative_buckets();
                    for (bound, count) in histogram
                        .bounds()
                        .iter()
                        .copied()
                        .chain(std::iter::once(f64::INFINITY))
                        .zip(cumulative)
                    {
                        let le = render_f64(bound);
                        out.push_str(&series_line(
                            &format!("{}_bucket", entry.name),
                            &entry.labels,
                            Some(&format!("le=\"{le}\"")),
                        ));
                        out.push_str(&format!(" {count}\n"));
                    }
                    out.push_str(&series_line(
                        &format!("{}_sum", entry.name),
                        &entry.labels,
                        None,
                    ));
                    out.push_str(&format!(" {}\n", render_f64(histogram.sum())));
                    out.push_str(&series_line(
                        &format!("{}_count", entry.name),
                        &entry.labels,
                        None,
                    ));
                    out.push_str(&format!(" {}\n", histogram.count()));
                }
            }
        }
        out
    }
}

/// Renders `name{labels,extra}` (or bare `name` when both are empty).
fn series_line(name: &str, labels: &str, extra: Option<&str>) -> String {
    match (labels.is_empty(), extra) {
        (true, None) => name.to_string(),
        (true, Some(extra)) => format!("{name}{{{extra}}}"),
        (false, None) => format!("{name}{{{labels}}}"),
        (false, Some(extra)) => format!("{name}{{{labels},{extra}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let registry = Registry::new();
        let a = registry.counter("jobs_total", "jobs");
        let b = registry.counter("jobs_total", "jobs");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles must address one counter");
    }

    #[test]
    fn labelled_series_are_distinct() {
        let registry = Registry::new();
        let ok = registry.counter_with("req_total", "requests", &[("status", "200")]);
        let bad = registry.counter_with("req_total", "requests", &[("status", "429")]);
        ok.add(5);
        bad.inc();
        let text = registry.render();
        assert!(text.contains("req_total{status=\"200\"} 5\n"), "{text}");
        assert!(text.contains("req_total{status=\"429\"} 1\n"), "{text}");
        // One header for the shared name.
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
    }

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let registry = Registry::new();
        registry.counter("c_total", "a counter").add(7);
        registry.gauge("depth", "a gauge").set(-3);
        let h = registry.histogram("latency_seconds", "a histogram", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(20.0);
        let text = registry.render();
        assert!(text.contains("# HELP c_total a counter\n"));
        assert!(text.contains("# TYPE c_total counter\n"));
        assert!(text.contains("c_total 7\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth -3\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_seconds_sum 20.55\n"));
        assert!(text.contains("latency_seconds_count 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with("odd_total", "odd", &[("path", "a\"b\\c")])
            .inc();
        let text = registry.render();
        assert!(
            text.contains("odd_total{path=\"a\\\"b\\\\c\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn every_rendered_line_is_well_formed() {
        // A light structural validation of the exposition format: each
        // line is a comment or `name[{labels}] value`.
        let registry = Registry::new();
        registry.counter("a_total", "a").inc();
        registry
            .histogram_with("b_seconds", "b", &[("stage", "execute")], &[0.5])
            .observe(0.2);
        for line in registry.render().lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample lines carry a value");
            assert!(!series.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value `{value}`"
            );
        }
    }
}
