//! The benchmark's own span recorder.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions — from the benchmark's files, not from inside the program — and
//! kept in memory until the run ends. A span carries the layer (crate) it
//! enters, a name, start and end offsets and the span that caused it; a
//! layer's *self time* is its spans' duration minus what their children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer (crate name) the span enters; `bench` for the benchmark's
    /// own glue between layers.
    pub layer: &'static str,
    /// What ran.
    pub name: &'static str,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Offsets from the recorder's epoch.
    pub start_ns: u64,
    /// `start_ns` until the span is closed.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The lane of spans that stand beside the operations — single-layer probes
/// such as a round-trip loop — and so stay out of the per-operation self
/// times. Operation lanes count from 1.
pub const PROBE_LANE: u32 = 0;

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// A per-thread span buffer. A disabled recorder accepts the same calls and
/// records nothing, which is how the untraced twin of a traced run is made.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    lane: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose offsets count from `epoch` (threads of one run share
    /// it, so their lanes line up in the exported trace).
    pub fn new(enabled: bool, lane: u32, epoch: Instant) -> Self {
        Recorder {
            enabled,
            lane,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in nanoseconds (`0` when the
    /// recorder is disabled).
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the benchmark.
    pub fn close(&mut self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id.0].end_ns = now;
        self.spans[id.0].duration_ns()
    }

    /// Runs `work` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, name);
        let value = work();
        self.close(id);
        value
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in nanoseconds of every closed span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64)
            .collect()
    }
}

/// The merged spans of a finished run, one lane per recorder.
#[derive(Debug, Default)]
pub struct Trace {
    lanes: Vec<(u32, Vec<Span>)>,
}

impl Trace {
    /// Collects finished recorders.
    pub fn from_recorders(recorders: Vec<Recorder>) -> Self {
        Trace {
            lanes: recorders
                .into_iter()
                .map(|recorder| {
                    assert!(recorder.open.is_empty(), "a span was left open");
                    (recorder.lane, recorder.spans)
                })
                .collect(),
        }
    }

    /// Total number of spans.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|(_, spans)| spans.len()).sum()
    }

    /// Self time per layer in nanoseconds over the operation lanes: each
    /// span's duration minus the durations of its direct children (children
    /// of one lane never overlap, so the sum is the covered interval).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (_, spans) in self.lanes.iter().filter(|(lane, _)| *lane != PROBE_LANE) {
            let mut covered = vec![0u64; spans.len()];
            for span in spans {
                if let Some(parent) = span.parent {
                    covered[parent] += span.duration_ns();
                }
            }
            for (span, covered) in spans.iter().zip(covered) {
                *by_layer.entry(span.layer).or_insert(0) += span.duration_ns() - covered;
            }
        }
        by_layer
    }

    /// Renders the spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (lane, spans) in &self.lanes {
            for (index, span) in spans.iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                let parent = span.parent.map_or(-1, |parent| parent as i64);
                write!(
                    out,
                    "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{lane},\"args\":{{\"id\":{index},\"parent\":{parent}}}}}",
                    span.name,
                    span.layer,
                    span.start_ns as f64 / 1e3,
                    span.duration_ns() as f64 / 1e3,
                )
                .expect("writing to a String cannot fail");
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What recording one span costs, in nanoseconds: the median of several
/// batches of empty leaf spans on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut recorder = Recorder::new(true, 0, Instant::now());
        let started = Instant::now();
        for _ in 0..20_000 {
            recorder.leaf("bench", "empty", || ());
        }
        batches.push(started.elapsed().as_nanos() as f64 / 20_000.0);
    }
    crate::stats::median(&batches)
}
