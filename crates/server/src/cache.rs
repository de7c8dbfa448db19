//! The content-addressed result cache and its request-coalescing cells.
//!
//! Every job is identified by its **content address** — the FxHash of the
//! canonical (circuit, noise, seed, shots, backend, opt level, observables,
//! weighted knobs, timeout) key ([`JobInput::canonical_key`]) — so the cache is
//! simultaneously the job registry: submitting the same work twice yields
//! the same job id, and `GET /v1/jobs/<id>` is a cache lookup.
//!
//! Each entry is an [`ExecutionCell`] moving through
//! queued → running → done/failed exactly once. Coalescing falls out of the
//! addressing: a submission whose cell already exists *attaches* to it —
//! whether the cell is still in flight or already done — so N simultaneous
//! identical submissions cost one simulation and everyone reads the same
//! byte-identical result payload.
//!
//! Completed cells are kept in an LRU list bounded by the configured
//! capacity; in-flight cells are never evicted (evicting one would detach
//! its waiters), so the map size is bounded by
//! `capacity + queue depth + workers`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qsdd_telemetry::trace::Tracer;
use qsdd_telemetry::{Stage, StageTimings};

use crate::api::JobInput;

/// Lifecycle of one content-addressed job.
#[derive(Clone, Debug)]
pub enum CellState {
    /// Waiting in the bounded queue.
    Queued,
    /// A worker is simulating it right now.
    Running,
    /// Finished; the deterministic result payload (shared, never copied).
    Done(Arc<String>),
    /// Execution failed; the client-facing message.
    Failed(String),
}

impl CellState {
    /// The wire-level status string of the state.
    pub fn status(&self) -> &'static str {
        match self {
            CellState::Queued => "queued",
            CellState::Running => "running",
            CellState::Done(_) => "completed",
            CellState::Failed(_) => "failed",
        }
    }
}

/// One content-addressed job: the validated input plus its execution state.
///
/// The cell is the coalescing point — every submission of the same
/// canonical key holds an `Arc` to the same cell, and the worker that
/// executes it publishes the result to all of them at once.
#[derive(Debug)]
pub struct ExecutionCell {
    /// Job id (`j` + 16 hex digits of the canonical key's FxHash).
    pub id: String,
    /// The canonical key the id was derived from (kept to detect the
    /// astronomically unlikely 64-bit hash collision, which is resolved by
    /// probing).
    pub key: String,
    /// The validated job input the worker executes. `None` only for cells
    /// restored from the durable store at boot — those are already terminal
    /// and never execute, so only the envelope fields they carry
    /// ([`Self::circuit_qasm`]) are needed.
    input: Option<JobInput>,
    /// The QASM echo of a *restored* cell (live cells read it from `input`),
    /// persisted so a restart serves the identical job envelope.
    restored_qasm: Option<String>,
    /// When the submission created the cell — the start of its queue wait.
    created_at: Instant,
    state: Mutex<CellState>,
    done: Condvar,
    /// The job's accumulated stage breakdown (parse and queue wait on the
    /// serving path, the simulation stages merged in on completion).
    timings: Mutex<StageTimings>,
    /// The job's tracer, attached at submission when tracing samples the
    /// job; the executing worker takes it, so coalesced submissions never
    /// race over it. Diagnostics only — never part of the result payload.
    tracer: Mutex<Option<Tracer>>,
}

impl ExecutionCell {
    fn new(id: String, key: String, input: JobInput) -> Self {
        ExecutionCell {
            id,
            key,
            input: Some(input),
            restored_qasm: None,
            created_at: Instant::now(),
            state: Mutex::new(CellState::Queued),
            done: Condvar::new(),
            timings: Mutex::new(StageTimings::new()),
            tracer: Mutex::new(None),
        }
    }

    /// A cell rebuilt from a persisted record: born terminal, input-free.
    fn restored(
        id: String,
        key: String,
        circuit_qasm: Option<String>,
        payload: Arc<String>,
        timings: StageTimings,
    ) -> Self {
        ExecutionCell {
            id,
            key,
            input: None,
            restored_qasm: circuit_qasm,
            created_at: Instant::now(),
            state: Mutex::new(CellState::Done(payload)),
            done: Condvar::new(),
            timings: Mutex::new(timings),
            tracer: Mutex::new(None),
        }
    }

    /// The validated input of a live (submitted this process) cell; `None`
    /// for cells restored from the store, which are terminal by
    /// construction and never reach a worker.
    pub fn input(&self) -> Option<&JobInput> {
        self.input.as_ref()
    }

    /// The job's OpenQASM echo for the status envelope, whichever side of a
    /// restart the cell was born on.
    pub fn circuit_qasm(&self) -> Option<&str> {
        match &self.input {
            Some(input) => input.circuit_qasm.as_deref(),
            None => self.restored_qasm.as_deref(),
        }
    }

    /// A snapshot of the current state (the payload `Arc` is shared, not
    /// cloned).
    pub fn state(&self) -> CellState {
        self.state.lock().expect("cell lock").clone()
    }

    /// Marks the cell as picked up by a worker; records and returns how
    /// long it waited in the queue since submission.
    pub fn mark_running(&self) -> Duration {
        *self.state.lock().expect("cell lock") = CellState::Running;
        let waited = self.created_at.elapsed();
        self.record_timing(Stage::QueueWait, waited);
        waited
    }

    /// Adds `elapsed` to one stage of the job's timing breakdown.
    pub fn record_timing(&self, stage: Stage, elapsed: Duration) {
        self.timings
            .lock()
            .expect("cell lock")
            .record(stage, elapsed);
    }

    /// Merges a finished run's stage breakdown into the job's.
    pub fn merge_timings(&self, timings: &StageTimings) {
        self.timings.lock().expect("cell lock").merge(timings);
    }

    /// A snapshot of the job's stage-timing breakdown so far.
    pub fn stage_timings(&self) -> StageTimings {
        *self.timings.lock().expect("cell lock")
    }

    /// Attaches the job's tracer (called at submission, before the cell
    /// becomes visible to a worker).
    pub fn attach_tracer(&self, tracer: Tracer) {
        *self.tracer.lock().expect("cell lock") = Some(tracer);
    }

    /// Takes the job's tracer; the executing worker finishes it.
    pub fn take_tracer(&self) -> Option<Tracer> {
        self.tracer.lock().expect("cell lock").take()
    }

    /// Time since the cell was created (submission → now); at completion
    /// this is the job's end-to-end latency.
    pub fn age(&self) -> Duration {
        self.created_at.elapsed()
    }

    /// Publishes the result payload and wakes synchronous waiters.
    pub fn complete(&self, payload: Arc<String>) {
        *self.state.lock().expect("cell lock") = CellState::Done(payload);
        self.done.notify_all();
    }

    /// Publishes a failure and wakes synchronous waiters.
    pub fn fail(&self, message: String) {
        *self.state.lock().expect("cell lock") = CellState::Failed(message);
        self.done.notify_all();
    }

    /// Blocks until the cell reaches a terminal state and returns it (used
    /// by in-process consumers like the load generator; HTTP clients poll).
    pub fn wait_terminal(&self) -> CellState {
        let mut state = self.state.lock().expect("cell lock");
        loop {
            match &*state {
                CellState::Done(_) | CellState::Failed(_) => return state.clone(),
                _ => state = self.done.wait(state).expect("cell lock"),
            }
        }
    }
}

/// How a submission resolved against the cache.
pub enum Submission {
    /// A new cell was created and handed to `enqueue`.
    New(Arc<ExecutionCell>),
    /// An identical job is already queued or running; this submission
    /// attached to it (request coalescing).
    Coalesced(Arc<ExecutionCell>),
    /// An identical job already completed; the cached result serves
    /// immediately.
    Hit(Arc<ExecutionCell>),
    /// The job was new but `enqueue` reported the queue full (`429`).
    Rejected,
}

/// The bounded, content-addressed cache-cum-registry.
#[derive(Debug)]
pub struct ResultCache {
    /// Maximum number of *completed* entries retained.
    capacity: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    cells: HashMap<String, Arc<ExecutionCell>>,
    /// Lazy LRU order of terminal entries: `(id, stamp)` pairs, least
    /// recently used first. A pair is *current* only when its stamp
    /// matches `stamps[id]`; touching an entry pushes a fresh pair and
    /// bumps the stamp instead of scanning for the old one, keeping the
    /// cache-hit path O(1) amortised (stale pairs are skipped at eviction
    /// and swept by occasional compaction).
    lru_queue: VecDeque<(String, u64)>,
    /// id → current stamp; an id is present exactly while terminal
    /// (evictable).
    stamps: HashMap<String, u64>,
}

impl ResultCache {
    /// A cache retaining at most `capacity` completed results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Resolves a submission: attach to an existing cell or create a new
    /// one.
    ///
    /// `enqueue` is called with the freshly created cell *while the cache
    /// lock is held* — so the existence check and the queue insertion are
    /// one atomic step — and must return `false` when the execution queue
    /// is full, in which case nothing is inserted and the submission is
    /// [`Submission::Rejected`]. Callers must therefore never take the
    /// cache lock from within `enqueue`.
    pub fn submit_with(
        &self,
        input: JobInput,
        enqueue: impl FnOnce(&Arc<ExecutionCell>) -> bool,
    ) -> Submission {
        let key = input.canonical_key();
        // Hash the key we just built instead of re-serializing it via
        // input.content_address() (the canonical string can be megabytes
        // for inline-QASM jobs).
        let mut id = crate::api::content_address_of(&key);
        let mut inner = self.inner.lock().expect("cache lock");
        // Hash-collision probe: distinct canonical keys get distinct ids.
        loop {
            match inner.cells.get(&id).map(Arc::clone) {
                Some(cell) if cell.key == key => {
                    return match cell.state() {
                        CellState::Done(_) | CellState::Failed(_) => {
                            self.touch(&mut inner, &cell.id);
                            Submission::Hit(cell)
                        }
                        _ => Submission::Coalesced(cell),
                    };
                }
                Some(_) => {
                    // Same 64-bit address, different job: probe linearly.
                    id.push('x');
                }
                None => break,
            }
        }
        let cell = Arc::new(ExecutionCell::new(id.clone(), key, input));
        if !enqueue(&cell) {
            return Submission::Rejected;
        }
        inner.cells.insert(id, Arc::clone(&cell));
        Submission::New(cell)
    }

    /// Rebuilds one completed entry from a persisted store record (boot
    /// path). The cell is born terminal and immediately evictable; capacity
    /// is enforced exactly as for freshly completed jobs, so restoring more
    /// records than the cache holds keeps the *latest-restored* entries.
    /// Returns `false` (without touching anything) when the id is already
    /// present — the store replays records oldest-first, so the caller
    /// resolves duplicates by last-wins *before* restoring.
    pub fn restore_completed(
        &self,
        id: &str,
        key: &str,
        circuit_qasm: Option<String>,
        payload: Arc<String>,
        timings: StageTimings,
    ) -> bool {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            if inner.cells.contains_key(id) {
                return false;
            }
            let cell = Arc::new(ExecutionCell::restored(
                id.to_string(),
                key.to_string(),
                circuit_qasm,
                payload,
                timings,
            ));
            inner.cells.insert(id.to_string(), cell);
        }
        self.mark_terminal(id);
        true
    }

    /// Looks up a job by id.
    pub fn get(&self, id: &str) -> Option<Arc<ExecutionCell>> {
        self.inner
            .lock()
            .expect("cache lock")
            .cells
            .get(id)
            .cloned()
    }

    /// Records that `id` reached a terminal state, making it evictable;
    /// evicts the least recently used completed entries beyond capacity.
    /// Returns how many entries were evicted (for the metrics counter).
    pub fn mark_terminal(&self, id: &str) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.stamps.insert(id.to_string(), 0);
        inner.lru_queue.push_back((id.to_string(), 0));
        let mut evicted = 0;
        while inner.stamps.len() > self.capacity {
            let Some((candidate, stamp)) = inner.lru_queue.pop_front() else {
                break;
            };
            // Stale pairs (superseded by a touch) are skipped; only the
            // current pair of an id represents its LRU position.
            if inner.stamps.get(&candidate) == Some(&stamp) {
                inner.stamps.remove(&candidate);
                inner.cells.remove(&candidate);
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of completed entries currently retained.
    pub fn completed_entries(&self) -> usize {
        self.inner.lock().expect("cache lock").stamps.len()
    }

    /// Moves `id` to the most-recently-used end of the eviction order:
    /// bump its stamp and push a fresh pair (O(1); the outdated pair goes
    /// stale in place).
    fn touch(&self, inner: &mut CacheInner, id: &str) {
        let Some(stamp) = inner.stamps.get_mut(id) else {
            return;
        };
        *stamp += 1;
        let stamp = *stamp;
        inner.lru_queue.push_back((id.to_string(), stamp));
        // Bound the garbage: each compaction is O(queue) but runs at most
        // once per ~3·capacity pushes, so touches stay O(1) amortised.
        if inner.lru_queue.len() > 4 * self.capacity + 64 {
            let stamps = &inner.stamps;
            inner
                .lru_queue
                .retain(|(entry, s)| stamps.get(entry) == Some(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_job_request;

    fn input(seed: u64) -> JobInput {
        parse_job_request(&format!(
            r#"{{"circuit":{{"generator":"ghz","qubits":4}},"shots":10,"seed":{seed}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_submissions_coalesce_and_then_hit() {
        let cache = ResultCache::new(8);
        let Submission::New(cell) = cache.submit_with(input(1), |_| true) else {
            panic!("first submission must be new");
        };
        assert!(matches!(cell.state(), CellState::Queued));
        let Submission::Coalesced(same) = cache.submit_with(input(1), |_| true) else {
            panic!("second submission must coalesce");
        };
        assert!(Arc::ptr_eq(&cell, &same));

        cell.complete(Arc::new("{}".to_string()));
        cache.mark_terminal(&cell.id);
        let Submission::Hit(hit) = cache.submit_with(input(1), |_| true) else {
            panic!("post-completion submission must hit");
        };
        assert!(Arc::ptr_eq(&cell, &hit));
        assert_eq!(hit.state().status(), "completed");
    }

    #[test]
    fn distinct_jobs_do_not_share_cells() {
        let cache = ResultCache::new(8);
        let Submission::New(a) = cache.submit_with(input(1), |_| true) else {
            panic!("new");
        };
        let Submission::New(b) = cache.submit_with(input(2), |_| true) else {
            panic!("new");
        };
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn a_full_queue_rejects_without_inserting() {
        let cache = ResultCache::new(8);
        assert!(matches!(
            cache.submit_with(input(1), |_| false),
            Submission::Rejected
        ));
        // The rejected submission left no trace; retrying works.
        assert!(matches!(
            cache.submit_with(input(1), |_| true),
            Submission::New(_)
        ));
    }

    #[test]
    fn eviction_drops_the_least_recently_used_completed_entry() {
        let cache = ResultCache::new(2);
        let mut ids = Vec::new();
        for seed in 0..3 {
            // Touch entry 0 before the third completion so it stays warm
            // while entry 1 goes cold and gets evicted.
            if seed == 2 {
                assert!(matches!(
                    cache.submit_with(input(0), |_| true),
                    Submission::Hit(_)
                ));
            }
            let Submission::New(cell) = cache.submit_with(input(seed), |_| true) else {
                panic!("new");
            };
            cell.complete(Arc::new("{}".to_string()));
            ids.push(cell.id.clone());
            cache.mark_terminal(ids.last().unwrap());
        }
        assert_eq!(cache.completed_entries(), 2);
        assert!(cache.get(&ids[0]).is_some(), "touched entry survives");
        assert!(cache.get(&ids[1]).is_none(), "cold entry evicted");
        assert!(cache.get(&ids[2]).is_some());
        // Re-submitting the evicted job creates a fresh cell (a miss).
        assert!(matches!(
            cache.submit_with(input(1), |_| true),
            Submission::New(_)
        ));
    }

    #[test]
    fn repeated_hits_stay_cheap_and_preserve_lru_order() {
        // The hot path: hammer one completed entry with hits, then push a
        // new completion — the untouched entry must be the one evicted,
        // and the lazy queue must stay bounded by compaction.
        let cache = ResultCache::new(2);
        let mut ids = Vec::new();
        for seed in 0..2 {
            let Submission::New(cell) = cache.submit_with(input(seed), |_| true) else {
                panic!("new");
            };
            cell.complete(Arc::new("{}".to_string()));
            cache.mark_terminal(&cell.id);
            ids.push(cell.id.clone());
        }
        for _ in 0..5_000 {
            assert!(matches!(
                cache.submit_with(input(0), |_| true),
                Submission::Hit(_)
            ));
        }
        {
            let inner = cache.inner.lock().unwrap();
            assert!(
                inner.lru_queue.len() <= 4 * 2 + 64 + 1,
                "lazy queue grew unbounded: {}",
                inner.lru_queue.len()
            );
        }
        let Submission::New(cell) = cache.submit_with(input(7), |_| true) else {
            panic!("new");
        };
        cell.complete(Arc::new("{}".to_string()));
        cache.mark_terminal(&cell.id);
        assert_eq!(cache.completed_entries(), 2);
        assert!(cache.get(&ids[0]).is_some(), "hot entry survives");
        assert!(cache.get(&ids[1]).is_none(), "cold entry evicted");
    }

    #[test]
    fn in_flight_cells_are_never_evicted() {
        let cache = ResultCache::new(1);
        let Submission::New(pending) = cache.submit_with(input(0), |_| true) else {
            panic!("new");
        };
        for seed in 1..5 {
            let Submission::New(cell) = cache.submit_with(input(seed), |_| true) else {
                panic!("new");
            };
            cell.complete(Arc::new("{}".to_string()));
            cache.mark_terminal(&cell.id);
        }
        assert!(cache.get(&pending.id).is_some(), "queued cell survived");
        assert!(matches!(
            cache.submit_with(input(0), |_| true),
            Submission::Coalesced(_)
        ));
    }

    #[test]
    fn restored_entries_serve_hits_like_native_completions() {
        let cache = ResultCache::new(8);
        let job = input(1);
        let key = job.canonical_key();
        let id = job.content_address();
        let payload = Arc::new(r#"{"restored":true}"#.to_string());
        assert!(cache.restore_completed(
            &id,
            &key,
            Some("OPENQASM 2.0;".to_string()),
            Arc::clone(&payload),
            StageTimings::new(),
        ));
        // Duplicate ids are refused (the store resolves last-wins first).
        assert!(!cache.restore_completed(&id, &key, None, payload, StageTimings::new()));
        // A fresh submission of the same job hits the restored entry.
        let Submission::Hit(cell) = cache.submit_with(job, |_| true) else {
            panic!("submission after restore must hit");
        };
        assert!(cell.input().is_none(), "restored cells carry no input");
        assert_eq!(cell.circuit_qasm(), Some("OPENQASM 2.0;"));
        let CellState::Done(served) = cell.state() else {
            panic!("restored cell must be done");
        };
        assert_eq!(served.as_str(), r#"{"restored":true}"#);
    }

    #[test]
    fn restore_enforces_capacity_like_completion() {
        let cache = ResultCache::new(2);
        for seed in 0..4u64 {
            let job = input(seed);
            assert!(cache.restore_completed(
                &job.content_address(),
                &job.canonical_key(),
                None,
                Arc::new("{}".to_string()),
                StageTimings::new(),
            ));
        }
        assert_eq!(cache.completed_entries(), 2, "capacity holds at boot too");
        // The latest-restored entries survive.
        assert!(cache.get(&input(3).content_address()).is_some());
        assert!(cache.get(&input(0).content_address()).is_none());
    }

    #[test]
    fn wait_terminal_blocks_until_completion() {
        let cache = ResultCache::new(2);
        let Submission::New(cell) = cache.submit_with(input(9), |_| true) else {
            panic!("new");
        };
        let waiter = Arc::clone(&cell);
        let handle = std::thread::spawn(move || waiter.wait_terminal());
        cell.mark_running();
        cell.complete(Arc::new("{\"done\":true}".to_string()));
        match handle.join().unwrap() {
            CellState::Done(payload) => assert_eq!(payload.as_str(), "{\"done\":true}"),
            other => panic!("unexpected terminal state {other:?}"),
        }
    }
}
