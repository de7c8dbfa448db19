//! Hierarchical span tracing for end-to-end job visibility.
//!
//! A [`Tracer`] records one **trace** per job: a tree of spans with
//! nanosecond start/end offsets (relative to the trace epoch), parent
//! links, a per-span **lane** (0 = the driver or serving thread,
//! `n + 1` = shot-worker `n`), and `key=value` attributes. Layers emit
//! spans through a thread-local cursor — [`span`] opens a child of the
//! innermost open span on the calling thread — so the engine drivers
//! need no extra parameters: a worker closure calls [`propagate`]
//! before spawning and installs the returned handle on its own thread.
//!
//! # Determinism
//!
//! Span ids encode `(lane + 1) << 32 | sequence`, with the sequence
//! allocated per lane in span-start order. [`Tracer::finish`] merges
//! the per-thread records and sorts them by id, so the *structure* of a
//! trace (ids, names, parents, lanes, attribute keys) is a pure
//! function of the execution plan — identical across runs and across
//! server restarts — while timestamps naturally vary. Traces are a
//! diagnostics side channel: nothing here feeds back into results,
//! cache keys or RNG streams.
//!
//! # Cost model
//!
//! Tracing is **off** by default. When off, [`span`] is one relaxed
//! atomic load. When on, spans are coarse by design — per request
//! stage, per trajectory group, per scheduler chunk — never per DD
//! node, and each costs one short mutex lock on the owning tracer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qsdd_json::Value;

/// The synthesized root span's id (`parent == 0` marks the root).
pub const ROOT_SPAN_ID: u64 = 1;

/// Process-wide tracing switch (metrics have none: they are recorded
/// into the serving component's own registry).
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on (one relaxed load — the entire cost of
/// an un-traced [`span`] call).
#[inline]
pub fn trace_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns span recording on or off.
pub fn set_trace_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Seeds the gate from `QSDD_TRACE` (`0`/`off`/`false` disable,
/// anything else — or unset — leaves `default_on`). The server calls
/// this with `default_on = true` at startup; the CLI with the
/// `--trace-out` decision.
pub fn configure_trace_from_env(default_on: bool) {
    let on = match std::env::var("QSDD_TRACE") {
        Ok(value) => !matches!(
            value.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
        Err(_) => default_on,
    };
    set_trace_enabled(on);
}

/// A span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counts, node totals, worker indices).
    U64(u64),
    /// A float (masses, ratios).
    F64(f64),
    /// A short piece of text (backend names, job kinds).
    Text(String),
}

impl From<u64> for AttrValue {
    fn from(value: u64) -> AttrValue {
        AttrValue::U64(value)
    }
}

impl From<usize> for AttrValue {
    fn from(value: usize) -> AttrValue {
        AttrValue::U64(value as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(value: f64) -> AttrValue {
        AttrValue::F64(value)
    }
}

impl From<&str> for AttrValue {
    fn from(value: &str) -> AttrValue {
        AttrValue::Text(value.to_string())
    }
}

impl AttrValue {
    fn to_json(&self) -> Value {
        match self {
            AttrValue::U64(value) => Value::from(*value),
            AttrValue::F64(value) => Value::from(*value),
            AttrValue::Text(value) => Value::from(value.as_str()),
        }
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// `(lane + 1) << 32 | sequence`; [`ROOT_SPAN_ID`] for the root.
    pub id: u64,
    /// Parent span id; `0` on the root span only.
    pub parent: u64,
    /// Span name from the fixed vocabulary (`docs/tracing.md`).
    pub name: &'static str,
    /// Thread lane: 0 = driver/serving thread, `n + 1` = worker `n`.
    pub lane: u32,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace epoch, nanoseconds.
    pub end_ns: u64,
    /// `key=value` attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// A completed, merged trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The trace id (the job content address on the serving path).
    pub trace_id: String,
    /// The job id the trace belongs to (usually equal to `trace_id`).
    pub job_id: String,
    /// Spans sorted by id; `spans[0]` is the synthesized root.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Whole-trace duration: the root span's end offset.
    pub fn duration_ns(&self) -> u64 {
        self.spans.first().map(|root| root.end_ns).unwrap_or(0)
    }

    /// The structural signature: ids, parents, names and lanes joined
    /// canonically, timestamps and attribute values excluded. Two runs
    /// of the same job produce the same signature — the property the
    /// restart-replay test pins.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!(
                "{:x}>{:x}:{}@{}",
                span.id, span.parent, span.name, span.lane
            ));
        }
        out
    }

    /// The structural JSON served by `GET /v1/jobs/<id>/trace`.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("trace_id".to_string(), Value::from(self.trace_id.as_str())),
            ("job_id".to_string(), Value::from(self.job_id.as_str())),
            ("duration_ns".to_string(), Value::from(self.duration_ns())),
            ("span_count".to_string(), Value::from(self.spans.len())),
            (
                "spans".to_string(),
                Value::Array(self.spans.iter().map(span_json).collect()),
            ),
        ])
    }

    /// Chrome trace-event JSON (the "JSON object format"): complete
    /// `ph:"X"` events with microsecond `ts`/`dur`, `pid` 1 and the
    /// lane as `tid`. Loads directly in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|span| {
                let mut args = vec![
                    ("span_id".to_string(), Value::from(span.id)),
                    ("parent_id".to_string(), Value::from(span.parent)),
                ];
                for (key, value) in &span.attrs {
                    args.push(((*key).to_string(), value.to_json()));
                }
                Value::object(vec![
                    ("name".to_string(), Value::from(span.name)),
                    ("cat".to_string(), Value::from("qsdd")),
                    ("ph".to_string(), Value::from("X")),
                    ("ts".to_string(), Value::from(span.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::from(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Value::from(1u64)),
                    ("tid".to_string(), Value::from(u64::from(span.lane))),
                    ("args".to_string(), Value::object(args)),
                ])
            })
            .collect();
        Value::object(vec![
            ("displayTimeUnit".to_string(), Value::from("ms")),
            (
                "otherData".to_string(),
                Value::object(vec![
                    ("trace_id".to_string(), Value::from(self.trace_id.as_str())),
                    ("job_id".to_string(), Value::from(self.job_id.as_str())),
                ]),
            ),
            ("traceEvents".to_string(), Value::Array(events)),
        ])
    }
}

fn span_json(span: &SpanRecord) -> Value {
    Value::object(vec![
        ("id".to_string(), Value::from(span.id)),
        ("parent".to_string(), Value::from(span.parent)),
        ("name".to_string(), Value::from(span.name)),
        ("lane".to_string(), Value::from(u64::from(span.lane))),
        ("start_ns".to_string(), Value::from(span.start_ns)),
        ("end_ns".to_string(), Value::from(span.end_ns)),
        (
            "attrs".to_string(),
            Value::object(
                span.attrs
                    .iter()
                    .map(|(key, value)| ((*key).to_string(), value.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// Shared tracer state: the epoch plus per-lane sequence counters and
/// the merged record buffer. Spans are coarse, so one short lock per
/// span boundary is in budget.
#[derive(Debug)]
struct TracerInner {
    trace_id: String,
    job_id: String,
    epoch: Instant,
    state: Mutex<TracerState>,
}

#[derive(Debug, Default)]
struct TracerState {
    /// Next sequence number per lane (index = lane).
    next_seq: Vec<u32>,
    /// Finished spans, flushed here at span close.
    done: Vec<SpanRecord>,
}

impl TracerInner {
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocates the next span id on `lane`.
    fn next_id(state: &mut TracerState, lane: u32) -> u64 {
        let slot = lane as usize;
        if state.next_seq.len() <= slot {
            state.next_seq.resize(slot + 1, 0);
        }
        let seq = state.next_seq[slot];
        state.next_seq[slot] = seq + 1;
        ((u64::from(lane) + 1) << 32) | u64::from(seq)
    }
}

/// Records one job's spans; create per job, [`Tracer::finish`] at the
/// end.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Starts a tracer if tracing is enabled; the epoch is now.
    pub fn start(trace_id: &str, job_id: &str) -> Option<Tracer> {
        Tracer::start_at(trace_id, job_id, Instant::now())
    }

    /// Like [`Tracer::start`] with an explicit epoch — the server uses
    /// the request-arrival instant so the parse span begins at offset 0.
    pub fn start_at(trace_id: &str, job_id: &str, epoch: Instant) -> Option<Tracer> {
        if !trace_enabled() {
            return None;
        }
        Some(Tracer::forced_at(trace_id, job_id, epoch))
    }

    /// Starts a tracer unconditionally (no gate) — the CLI
    /// uses this for an explicit `--trace-out` request. The caller must
    /// still [`set_trace_enabled`] for [`span`] to record.
    pub fn forced(trace_id: &str, job_id: &str) -> Tracer {
        Tracer::forced_at(trace_id, job_id, Instant::now())
    }

    /// [`Tracer::forced`] with an explicit epoch.
    pub fn forced_at(trace_id: &str, job_id: &str, epoch: Instant) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                trace_id: trace_id.to_string(),
                job_id: job_id.to_string(),
                epoch,
                state: Mutex::new(TracerState::default()),
            }),
        }
    }

    /// Time since the trace epoch.
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// The trace id.
    pub fn trace_id(&self) -> &str {
        &self.inner.trace_id
    }

    /// Makes this tracer current on the calling thread for `lane`
    /// until the guard drops; new top-level spans parent to the root.
    pub fn install(&self, lane: u32) -> InstallGuard {
        install_state(TlsState {
            inner: Arc::clone(&self.inner),
            lane,
            default_parent: ROOT_SPAN_ID,
            stack: Vec::new(),
        })
    }

    /// Records a finished span directly, without the thread-local
    /// cursor, from start/end offsets relative to the epoch. The
    /// serving path uses this for stages measured before a worker
    /// installs the tracer (parse, cache lookup, queue wait); such
    /// spans parent to the root.
    pub fn record_span_at(
        &self,
        lane: u32,
        name: &'static str,
        start: Duration,
        end: Duration,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let mut state = self.inner.state.lock().unwrap();
        let id = TracerInner::next_id(&mut state, lane);
        state.done.push(SpanRecord {
            id,
            parent: ROOT_SPAN_ID,
            name,
            lane,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            attrs,
        });
    }

    /// Merges every lane's spans into the finished [`Trace`]: sorted
    /// by id (deterministic structure), under a synthesized root span
    /// covering the whole job.
    pub fn finish(self, root_name: &'static str) -> Trace {
        let elapsed_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        let mut state = self.inner.state.lock().unwrap();
        let mut spans = std::mem::take(&mut state.done);
        drop(state);
        spans.sort_by_key(|span| span.id);
        let end_ns = spans
            .iter()
            .map(|span| span.end_ns)
            .fold(elapsed_ns, u64::max);
        spans.insert(
            0,
            SpanRecord {
                id: ROOT_SPAN_ID,
                parent: 0,
                name: root_name,
                lane: 0,
                start_ns: 0,
                end_ns,
                attrs: Vec::new(),
            },
        );
        Trace {
            trace_id: self.inner.trace_id.clone(),
            job_id: self.inner.job_id.clone(),
            spans,
        }
    }
}

/// A capture of the calling thread's current trace position, made
/// before spawning workers; each worker installs it on its own lane.
#[derive(Clone, Debug)]
pub struct TraceHandle {
    inner: Arc<TracerInner>,
    parent: u64,
}

impl TraceHandle {
    /// Makes the originating tracer current on the calling thread for
    /// `lane`; new top-level spans parent to the span that was open
    /// when [`propagate`] captured the handle.
    pub fn install(&self, lane: u32) -> InstallGuard {
        install_state(TlsState {
            inner: Arc::clone(&self.inner),
            lane,
            default_parent: self.parent,
            stack: Vec::new(),
        })
    }
}

/// Captures the calling thread's tracer and innermost open span, for
/// hand-off to spawned workers. `None` when the thread is not traced.
pub fn propagate() -> Option<TraceHandle> {
    if !trace_enabled() {
        return None;
    }
    CURRENT.with(|current| {
        current.borrow().as_ref().map(|state| TraceHandle {
            inner: Arc::clone(&state.inner),
            parent: state
                .stack
                .last()
                .map(|open| open.id)
                .unwrap_or(state.default_parent),
        })
    })
}

/// Whether the calling thread is actively traced (tracing on *and* a
/// tracer installed). Use to skip computing expensive attribute values.
pub fn active() -> bool {
    trace_enabled() && CURRENT.with(|current| current.borrow().is_some())
}

/// The trace and job ids of the calling thread's current trace, for
/// log correlation. `None` when the thread is not traced.
pub fn current_ids() -> Option<(String, String)> {
    if !trace_enabled() {
        return None;
    }
    CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .map(|state| (state.inner.trace_id.clone(), state.inner.job_id.clone()))
    })
}

/// One open (not yet finished) span on a thread's stack.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// The thread-local cursor: which tracer and lane this thread records
/// into, plus the stack of open spans.
#[derive(Debug)]
struct TlsState {
    inner: Arc<TracerInner>,
    lane: u32,
    default_parent: u64,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<TlsState>> =
        const { std::cell::RefCell::new(None) };
}

fn install_state(state: TlsState) -> InstallGuard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(state));
    InstallGuard { previous }
}

/// Uninstalls the thread-local tracer on drop (restoring any previous
/// one), closing spans left open — e.g. when a panic unwound past
/// their guards — so no record is lost.
#[derive(Debug)]
pub struct InstallGuard {
    previous: Option<TlsState>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let state = CURRENT
            .with(|current| std::mem::replace(&mut *current.borrow_mut(), self.previous.take()));
        if let Some(mut state) = state {
            while let Some(open) = state.stack.pop() {
                close_span(&state.inner, state.lane, open);
            }
        }
    }
}

fn close_span(inner: &Arc<TracerInner>, lane: u32, open: OpenSpan) {
    let end_ns = inner.offset_ns(Instant::now());
    let mut shared = inner.state.lock().unwrap();
    shared.done.push(SpanRecord {
        id: open.id,
        parent: open.parent,
        name: open.name,
        lane,
        start_ns: open.start_ns,
        end_ns,
        attrs: open.attrs,
    });
}

/// Opens a span named `name` as a child of the innermost open span on
/// this thread; the span closes when the guard drops. A no-op costing
/// one relaxed load when tracing is off or the thread is untraced.
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: false };
    }
    let active = CURRENT.with(|current| {
        let mut current = current.borrow_mut();
        let Some(state) = current.as_mut() else {
            return false;
        };
        let now = Instant::now();
        let parent = state
            .stack
            .last()
            .map(|open| open.id)
            .unwrap_or(state.default_parent);
        let (id, start_ns) = {
            let mut shared = state.inner.state.lock().unwrap();
            let id = TracerInner::next_id(&mut shared, state.lane);
            (id, state.inner.offset_ns(now))
        };
        state.stack.push(OpenSpan {
            id,
            parent,
            name,
            start_ns,
            attrs: Vec::new(),
        });
        true
    });
    SpanGuard { active }
}

/// Attaches `key = value` to the innermost open span on this thread
/// (dropped silently when no span is open).
pub fn attr(key: &'static str, value: impl Into<AttrValue>) {
    if !trace_enabled() {
        return;
    }
    let value = value.into();
    CURRENT.with(|current| {
        if let Some(state) = current.borrow_mut().as_mut() {
            if let Some(open) = state.stack.last_mut() {
                open.attrs.push((key, value));
            }
        }
    });
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// Whether this guard actually opened a span (tracing was on and
    /// the thread had a tracer installed).
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT.with(|current| {
            let mut current = current.borrow_mut();
            if let Some(state) = current.as_mut() {
                if let Some(open) = state.stack.pop() {
                    let inner = Arc::clone(&state.inner);
                    let lane = state.lane;
                    close_span(&inner, lane, open);
                }
            }
        });
    }
}

/// A bounded ring buffer of recently completed traces, keyed by job
/// id. **Volatile by design**: traces live in memory only and do not
/// survive a restart (results do, via the durable store — traces are
/// re-recorded when a job re-executes).
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    inner: Mutex<TraceRing>,
    /// Signalled whenever a [`Recording`] ends.
    filed: Condvar,
}

#[derive(Debug, Default)]
struct TraceRing {
    traces: VecDeque<Arc<Trace>>,
    /// Job ids whose trace is being recorded right now.
    recording: Vec<String>,
}

/// Marks a job's trace as being recorded (see [`TraceStore::recording`]).
/// Ends when the trace is [filed](Recording::file) or the guard drops — so
/// a recorder that unwinds cannot leave readers waiting.
#[derive(Debug)]
pub struct Recording<'a> {
    store: &'a TraceStore,
    job_id: String,
}

impl Recording<'_> {
    /// Inserts the finished trace, then ends the recording: a reader woken
    /// by the end of the recording finds the trace.
    pub fn file(self, trace: Trace) {
        self.store.insert(trace);
    }
}

impl Drop for Recording<'_> {
    fn drop(&mut self) {
        // Poison-tolerant: a guard dropped during an unwind must not panic.
        let mut inner = match self.store.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(at) = inner.recording.iter().position(|id| *id == self.job_id) {
            inner.recording.swap_remove(at);
        }
        drop(inner);
        self.store.filed.notify_all();
    }
}

impl TraceStore {
    /// Creates a store keeping at most `capacity` traces (oldest
    /// evicted first).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            inner: Mutex::new(TraceRing::default()),
            filed: Condvar::new(),
        }
    }

    /// Announces that `job_id`'s trace is being recorded, until the
    /// returned guard is filed or dropped. [`get_filed`](Self::get_filed)
    /// waits for it, which lets a recorder publish the job's result before
    /// the trace is complete without the trace ever reading as missing
    /// afterwards.
    pub fn recording(&self, job_id: &str) -> Recording<'_> {
        self.inner
            .lock()
            .unwrap()
            .recording
            .push(job_id.to_string());
        Recording {
            store: self,
            job_id: job_id.to_string(),
        }
    }

    /// Inserts a completed trace, replacing any previous trace for the
    /// same job id.
    pub fn insert(&self, trace: Trace) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .traces
            .retain(|existing| existing.job_id != trace.job_id);
        inner.traces.push_back(Arc::new(trace));
        while inner.traces.len() > self.capacity {
            inner.traces.pop_front();
        }
    }

    /// The trace for `job_id`, if still resident.
    pub fn get(&self, job_id: &str) -> Option<Arc<Trace>> {
        Self::find(&self.inner.lock().unwrap(), job_id)
    }

    /// [`get`](Self::get), but first waits out a
    /// [`recording`](Self::recording) of `job_id` that is in progress.
    pub fn get_filed(&self, job_id: &str) -> Option<Arc<Trace>> {
        let inner = self
            .filed
            .wait_while(self.inner.lock().unwrap(), |inner| {
                inner.recording.iter().any(|id| id == job_id)
            })
            .unwrap();
        Self::find(&inner, job_id)
    }

    fn find(inner: &TraceRing, job_id: &str) -> Option<Arc<Trace>> {
        inner
            .traces
            .iter()
            .find(|trace| trace.job_id == job_id)
            .cloned()
    }

    /// Every resident trace, most recent first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        self.inner
            .lock()
            .unwrap()
            .traces
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// Number of resident traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().traces.len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global gate (the whole test
    /// binary shares it).
    fn with_tracing<T>(body: impl FnOnce() -> T) -> T {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        let out = body();
        set_trace_enabled(false);
        out
    }

    #[test]
    fn spans_nest_and_parent_correctly() {
        let trace = with_tracing(|| {
            let tracer = Tracer::forced("t1", "j1");
            {
                let _install = tracer.install(0);
                let _outer = span("execute");
                attr("shots", 100usize);
                {
                    let _inner = span("trajectory_group");
                    attr("members", 4usize);
                }
                {
                    let _inner = span("aggregate");
                }
            }
            tracer.finish("job")
        });
        assert_eq!(trace.spans.len(), 4);
        let root = &trace.spans[0];
        assert_eq!(root.id, ROOT_SPAN_ID);
        assert_eq!(root.parent, 0);
        assert_eq!(root.name, "job");
        let execute = &trace.spans[1];
        assert_eq!(execute.name, "execute");
        assert_eq!(execute.parent, ROOT_SPAN_ID);
        assert_eq!(execute.attrs, vec![("shots", AttrValue::U64(100))]);
        let group = &trace.spans[2];
        assert_eq!(group.name, "trajectory_group");
        assert_eq!(group.parent, execute.id);
        let aggregate = &trace.spans[3];
        assert_eq!(aggregate.name, "aggregate");
        assert_eq!(aggregate.parent, execute.id);
        // Children start and end within their parent and the root.
        for span in &trace.spans[1..] {
            assert!(span.start_ns <= span.end_ns);
            assert!(span.end_ns <= root.end_ns);
        }
    }

    #[test]
    fn worker_lanes_merge_deterministically() {
        let run = || {
            with_tracing(|| {
                let tracer = Tracer::forced("t2", "j2");
                let _install = tracer.install(0);
                let _job = span("execute");
                let handle = propagate().expect("traced thread propagates");
                std::thread::scope(|scope| {
                    for worker in 0..4u32 {
                        let handle = handle.clone();
                        scope.spawn(move || {
                            let _lane = handle.install(worker + 1);
                            let _span = span("worker_shots");
                            attr("worker", u64::from(worker));
                        });
                    }
                });
                drop(_job);
                drop(_install);
                tracer.finish("job")
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first.structure(), second.structure());
        // One root + execute + four worker spans, each on its own lane,
        // parented to the execute span that propagated.
        assert_eq!(first.spans.len(), 6);
        let execute_id = first.spans[1].id;
        let lanes: Vec<u32> = first.spans[2..].iter().map(|span| span.lane).collect();
        assert_eq!(lanes, vec![1, 2, 3, 4]);
        for span in &first.spans[2..] {
            assert_eq!(span.parent, execute_id);
            assert_eq!(span.name, "worker_shots");
        }
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        set_trace_enabled(false);
        let _span = span("execute");
        attr("shots", 1usize);
        assert!(propagate().is_none());
        assert!(current_ids().is_none());
    }

    #[test]
    fn record_span_at_lands_on_the_requested_lane() {
        let trace = with_tracing(|| {
            let tracer = Tracer::forced("t3", "j3");
            tracer.record_span_at(
                0,
                "parse",
                Duration::from_nanos(0),
                Duration::from_nanos(500),
                vec![("bytes", AttrValue::U64(128))],
            );
            tracer.record_span_at(
                0,
                "queue_wait",
                Duration::from_nanos(600),
                Duration::from_nanos(900),
                Vec::new(),
            );
            tracer.finish("job")
        });
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[1].name, "parse");
        assert_eq!(trace.spans[1].parent, ROOT_SPAN_ID);
        assert_eq!(trace.spans[2].name, "queue_wait");
        assert!(trace.spans[1].id < trace.spans[2].id);
        assert!(trace.duration_ns() >= 900);
    }

    #[test]
    fn chrome_export_has_complete_events() {
        let trace = with_tracing(|| {
            let tracer = Tracer::forced("t4", "j4");
            {
                let _install = tracer.install(0);
                let _span = span("execute");
            }
            tracer.finish("job")
        });
        let chrome = trace.to_chrome_json();
        assert_eq!(
            chrome.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        let events = chrome
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), trace.spans.len());
        for event in events {
            assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
            assert!(event.get("ts").and_then(Value::as_f64).is_some());
            assert!(event.get("dur").and_then(Value::as_f64).is_some());
            assert_eq!(event.get("pid").and_then(Value::as_u64), Some(1));
            assert!(event.get("tid").and_then(Value::as_u64).is_some());
            assert!(event
                .get("args")
                .and_then(|args| args.get("span_id"))
                .and_then(Value::as_u64)
                .is_some());
        }
        // Round-trips through the parser.
        let text = chrome.to_string();
        qsdd_json::parse(&text).expect("chrome export parses back");
    }

    #[test]
    fn trace_store_evicts_oldest_and_replaces_by_job_id() {
        let store = TraceStore::new(2);
        let make = |job: &str| with_tracing(|| Tracer::forced(job, job).finish("job"));
        store.insert(make("a"));
        store.insert(make("b"));
        store.insert(make("c"));
        assert_eq!(store.len(), 2);
        assert!(store.get("a").is_none(), "oldest evicted");
        assert!(store.get("b").is_some());
        store.insert(make("b"));
        assert_eq!(store.len(), 2, "same job id replaces, not grows");
        let recent = store.recent();
        assert_eq!(recent[0].job_id, "b", "most recent first");
    }

    #[test]
    fn get_filed_waits_out_a_recording_in_progress() {
        let store = TraceStore::new(4);
        let trace = with_tracing(|| Tracer::forced("j1", "j1").finish("job"));
        let recording = store.recording("j1");
        assert!(store.get("j1").is_none(), "get never waits");
        std::thread::scope(|scope| {
            // Whether the reader arrives before or after the filing, it
            // must never see the recorded job without its trace.
            let reader = scope.spawn(|| store.get_filed("j1"));
            recording.file(trace);
            assert!(reader.join().expect("reader").is_some());
        });
        // An abandoned recording releases its readers empty-handed, and a
        // job nobody records is not waited for.
        drop(store.recording("j2"));
        assert!(store.get_filed("j2").is_none());
        assert!(store.get_filed("j3").is_none());
    }

    #[test]
    fn log_correlation_ids_follow_the_install_guard() {
        with_tracing(|| {
            assert!(current_ids().is_none());
            let tracer = Tracer::forced("trace-x", "job-x");
            {
                let _install = tracer.install(0);
                assert_eq!(
                    current_ids(),
                    Some(("trace-x".to_string(), "job-x".to_string()))
                );
            }
            assert!(current_ids().is_none());
        });
    }
}
