//! The durable result store behind the cache.
//!
//! When the server is started with a store directory, every job that
//! reaches [`CellState::Done`](crate::cache::CellState) is also appended —
//! *after* the in-memory cache is updated, never on the serving path — to
//! an on-disk [`RecordLog`] (`results.log` in the store directory). On the
//! next boot the log is replayed into the cache, so a restart (including a
//! `kill -9`) serves every previously completed job byte-identically from
//! the first request.
//!
//! One record is one completed job, encoded as a single JSON object:
//!
//! ```json
//! {"format":"qsdd-store-record/1","id":"j…","key":"…","circuit":"…",
//!  "payload":"…","timings":{"parse":1234,"…":…}}
//! ```
//!
//! `payload` is the exact cached result string; `timings` is the job's
//! stage breakdown in integer nanoseconds. The record framing, checksums
//! and torn-write recovery live in `qsdd-store`; this module only encodes,
//! decodes and supervises degradation.
//!
//! # Degradation
//!
//! The store is an accelerator for restarts, not a correctness dependency:
//! any I/O failure makes the server *less durable*, never unavailable. An
//! open failure at boot yields a degraded (memory-only) store; write
//! failures are counted and retried on the next completion, and after
//! `MAX_CONSECUTIVE_FAILURES` (3) consecutive failures the store degrades to
//! memory-only for the rest of the process. Both conditions are visible in
//! `GET /v1/stats`, the serve banner and the `qsdd_store_*` metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use qsdd_json::Value;
use qsdd_store::{RecordLog, SyncPolicy};
use qsdd_telemetry::{log_kv, Level, Stage, StageTimings};

/// Format tag of every persisted record; bump on breaking encoding changes
/// (unknown formats are skipped at boot, not errors).
pub const RECORD_FORMAT: &str = "qsdd-store-record/1";

/// The log's file name inside the store directory.
const LOG_FILE: &str = "results.log";

/// Consecutive write failures after which the store stops trying and runs
/// memory-only (transient failures below the threshold are retried on the
/// next completion).
const MAX_CONSECUTIVE_FAILURES: u64 = 3;

/// One decoded store record — everything needed to rebuild a completed
/// cache entry.
#[derive(Clone, Debug)]
pub struct RestoredRecord {
    /// The job id (`j` + 16 hex digits, plus collision-probe suffixes).
    pub id: String,
    /// The job's canonical key (what the id was hashed from).
    pub key: String,
    /// The job's OpenQASM echo for the status envelope, when it had one.
    pub circuit_qasm: Option<String>,
    /// The exact cached result payload.
    pub payload: String,
    /// The job's stage-timing breakdown at completion.
    pub timings: StageTimings,
}

/// What happened to one [`ResultStore::record_completion`] attempt.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum AppendOutcome {
    /// The record is on disk.
    Written,
    /// The append failed; logged and counted, the job is unaffected.
    Failed,
    /// The store is degraded (memory-only); nothing was attempted.
    Skipped,
}

/// What boot-time recovery found (reported in `/v1/stats` and the banner).
#[derive(Clone, Copy, Debug, Default)]
pub struct BootReport {
    /// Records replayed into the cache (after last-wins dedup).
    pub records_restored: usize,
    /// Bytes of torn or corrupt tail discarded by recovery.
    pub truncated_bytes: u64,
    /// Whether the log was rewritten (compacted) during boot.
    pub compacted: bool,
}

/// The server's handle on the durable result log. All methods are callable
/// concurrently from the worker pool; degradation is sticky and lock-free
/// to observe.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    log: Mutex<Option<RecordLog>>,
    writes: AtomicU64,
    write_failures: AtomicU64,
    consecutive_failures: AtomicU64,
    degraded: AtomicBool,
    boot: BootReport,
}

impl ResultStore {
    /// Opens (or creates) the store under `dir` and decodes every surviving
    /// record, oldest first. Never fails: an unopenable store comes back
    /// degraded (memory-only) with the reason logged, because durability
    /// must never cost availability.
    ///
    /// The caller replays the returned records into the cache (last-wins
    /// per id). When recovery truncated bytes or the log holds superseded
    /// duplicates, the log is compacted before serving.
    pub fn open(dir: &Path) -> (ResultStore, Vec<RestoredRecord>) {
        match Self::try_open(dir) {
            Ok(opened) => opened,
            Err(err) => {
                log_kv(
                    Level::Error,
                    "store.open_failed",
                    &[
                        ("dir", &dir.display().to_string()),
                        ("error", &err.to_string()),
                    ],
                );
                let store = ResultStore {
                    path: dir.join(LOG_FILE),
                    log: Mutex::new(None),
                    writes: AtomicU64::new(0),
                    write_failures: AtomicU64::new(0),
                    consecutive_failures: AtomicU64::new(0),
                    degraded: AtomicBool::new(true),
                    boot: BootReport::default(),
                };
                (store, Vec::new())
            }
        }
    }

    fn try_open(dir: &Path) -> io::Result<(ResultStore, Vec<RestoredRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_FILE);
        let (mut log, raw_records, report) = RecordLog::open(&path, SyncPolicy::Always)?;
        // Decode defensively: a record that frames correctly but does not
        // parse (foreign format, manual tampering that survived the
        // checksum) is skipped and counted, never served.
        let mut decoded: Vec<RestoredRecord> = Vec::with_capacity(raw_records.len());
        let mut undecodable = 0usize;
        for raw in &raw_records {
            match decode_record(raw) {
                Some(record) => decoded.push(record),
                None => undecodable += 1,
            }
        }
        // Last-wins per id: drop every record superseded by a later append.
        let mut survivors = vec![true; decoded.len()];
        {
            let mut last: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
            for (index, record) in decoded.iter().enumerate() {
                if let Some(previous) = last.insert(record.id.as_str(), index) {
                    survivors[previous] = false;
                }
            }
        }
        let duplicates = survivors.iter().filter(|keep| !**keep).count();
        let mut compacted = false;
        if report.truncated_bytes > 0 || duplicates > 0 || undecodable > 0 {
            // Rewrite the log down to exactly the records we will serve.
            compacted = log
                .compact(|raw| decode_record(raw).map(|record| record.id))
                .is_ok();
        }
        let restored: Vec<RestoredRecord> = decoded
            .into_iter()
            .zip(survivors)
            .filter_map(|(record, keep)| keep.then_some(record))
            .collect();
        log_kv(
            Level::Info,
            "store.open",
            &[
                ("path", &path.display().to_string()),
                ("records", &restored.len().to_string()),
                ("truncated_bytes", &report.truncated_bytes.to_string()),
                ("undecodable", &undecodable.to_string()),
            ],
        );
        let store = ResultStore {
            path,
            log: Mutex::new(Some(log)),
            writes: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            boot: BootReport {
                records_restored: restored.len(),
                truncated_bytes: report.truncated_bytes,
                compacted,
            },
        };
        Ok((store, restored))
    }

    /// Appends one completed job behind the cache. Failures are logged and
    /// counted, never propagated — the job already completed in memory and
    /// its client must be served regardless. The outcome feeds the
    /// `qsdd_store_*` metrics.
    pub fn record_completion(&self, record: &RestoredRecord) -> AppendOutcome {
        if self.degraded.load(Ordering::Relaxed) {
            return AppendOutcome::Skipped;
        }
        let frame = encode_record(record);
        let mut guard = self.log.lock().expect("store lock");
        let Some(log) = guard.as_mut() else {
            return AppendOutcome::Skipped;
        };
        match log.append(frame.as_bytes()) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.store(0, Ordering::Relaxed);
                AppendOutcome::Written
            }
            Err(err) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                log_kv(
                    Level::Error,
                    "store.write_failed",
                    &[
                        ("id", &record.id),
                        ("error", &err.to_string()),
                        ("consecutive", &streak.to_string()),
                    ],
                );
                if streak >= MAX_CONSECUTIVE_FAILURES {
                    // The disk is not coming back: stop paying for the
                    // attempts and make the degradation visible.
                    *guard = None;
                    self.degraded.store(true, Ordering::Relaxed);
                    log_kv(
                        Level::Error,
                        "store.degraded",
                        &[("path", &self.path.display().to_string())],
                    );
                }
                AppendOutcome::Failed
            }
        }
    }

    /// The log file's path (for the banner and `/v1/stats`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the store has fallen back to memory-only operation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Records successfully appended since boot.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Appends that failed since boot.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Records currently in the log (restored + written this process).
    pub fn records(&self) -> u64 {
        self.boot.records_restored as u64 + self.writes()
    }

    /// What boot-time recovery found.
    pub fn boot_report(&self) -> BootReport {
        self.boot
    }
}

/// Renders one record as its single-line JSON frame.
fn encode_record(record: &RestoredRecord) -> String {
    let mut fields: Vec<(String, Value)> = vec![
        ("format".to_string(), Value::from(RECORD_FORMAT)),
        ("id".to_string(), Value::from(record.id.as_str())),
        ("key".to_string(), Value::from(record.key.as_str())),
    ];
    if let Some(qasm) = &record.circuit_qasm {
        fields.push(("circuit".to_string(), Value::from(qasm.as_str())));
    }
    fields.push(("payload".to_string(), Value::from(record.payload.as_str())));
    fields.push((
        "timings".to_string(),
        Value::Object(
            record
                .timings
                .iter()
                .filter(|(_, elapsed)| !elapsed.is_zero())
                .map(|(stage, elapsed)| {
                    (
                        stage.name().to_string(),
                        Value::from(elapsed.as_nanos() as u64),
                    )
                })
                .collect(),
        ),
    ));
    Value::object(fields).to_string()
}

/// Decodes one raw log record; `None` for anything that is not a valid
/// record of the current format (skipped at boot, dropped by compaction).
fn decode_record(raw: &[u8]) -> Option<RestoredRecord> {
    let text = std::str::from_utf8(raw).ok()?;
    let value = qsdd_json::parse(text).ok()?;
    if value.get("format")?.as_str()? != RECORD_FORMAT {
        return None;
    }
    let id = value.get("id")?.as_str()?.to_string();
    let key = value.get("key")?.as_str()?.to_string();
    let circuit_qasm = match value.get("circuit") {
        Some(circuit) => Some(circuit.as_str()?.to_string()),
        None => None,
    };
    let payload = value.get("payload")?.as_str()?.to_string();
    let mut timings = StageTimings::new();
    if let Some(Value::Object(pairs)) = value.get("timings") {
        for (name, nanos) in pairs {
            // A stage an older build timed and this one no longer has is
            // skipped: the record's payload, not its breakdown, is what the
            // job id answers with, so it must survive the upgrade.
            let Some(stage) = Stage::ALL.iter().find(|stage| stage.name() == name) else {
                continue;
            };
            timings.record(*stage, Duration::from_nanos(nanos.as_u64()?));
        }
    }
    Some(RestoredRecord {
        id,
        key,
        circuit_qasm,
        payload,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault seam is process-global; every test that appends (whether
    /// it arms faults or not) serializes on this lock so an armed budget
    /// is consumed only by the test that armed it.
    static FAULT_SCOPE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn record(id: &str, payload: &str) -> RestoredRecord {
        let mut timings = StageTimings::new();
        timings.record(Stage::Parse, Duration::from_nanos(1234));
        timings.record(Stage::Execute, Duration::from_micros(56));
        RestoredRecord {
            id: id.to_string(),
            key: format!("key-of-{id}"),
            circuit_qasm: Some("OPENQASM 2.0;\nqreg q[2];\n".to_string()),
            payload: payload.to_string(),
            timings,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "qsdd-result-store-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn records_round_trip_through_the_encoding() {
        let original = record("j0123456789abcdef", r#"{"counts":{"0":7}}"#);
        let decoded = decode_record(encode_record(&original).as_bytes()).unwrap();
        assert_eq!(decoded.id, original.id);
        assert_eq!(decoded.key, original.key);
        assert_eq!(decoded.circuit_qasm, original.circuit_qasm);
        assert_eq!(decoded.payload, original.payload);
        assert_eq!(
            decoded.timings.get(Stage::Parse),
            Duration::from_nanos(1234)
        );
        assert_eq!(
            decoded.timings.get(Stage::Execute),
            Duration::from_micros(56)
        );
        // QASM-free jobs (generator circuits outside the QASM subset)
        // round-trip without the optional field.
        let mut bare = record("jfedcba9876543210", "{}");
        bare.circuit_qasm = None;
        let decoded = decode_record(encode_record(&bare).as_bytes()).unwrap();
        assert_eq!(decoded.circuit_qasm, None);
    }

    #[test]
    fn records_with_a_retired_stage_restore_with_the_known_stages() {
        // Builds with intra-shot kernels timed `intra_execute` next to
        // `execute`; their records must keep answering after an upgrade.
        let original = record("j0123456789abcdef", r#"{"counts":{"0":7}}"#);
        let frame = encode_record(&original);
        let old_frame = frame.replace(
            r#""execute":56000"#,
            r#""execute":56000,"intra_execute":56000"#,
        );
        assert_ne!(old_frame, frame);
        let decoded = decode_record(old_frame.as_bytes()).expect("the record restores");
        assert_eq!(decoded.payload.as_bytes(), original.payload.as_bytes());
        assert_eq!(decoded.id, original.id);
        let kept: Vec<_> = decoded
            .timings
            .iter()
            .filter(|(_, t)| !t.is_zero())
            .collect();
        let expected: Vec<_> = original
            .timings
            .iter()
            .filter(|(_, t)| !t.is_zero())
            .collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn foreign_and_malformed_records_decode_to_none() {
        assert!(decode_record(b"not json").is_none());
        assert!(decode_record(br#"{"format":"something-else/9","id":"x"}"#).is_none());
        assert!(decode_record(br#"{"format":"qsdd-store-record/1"}"#).is_none());
        assert!(decode_record(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn completions_persist_across_reopen_with_last_wins() {
        let _scope = FAULT_SCOPE.lock().unwrap();
        let dir = temp_dir("reopen");
        let _cleanup = Cleanup(dir.clone());
        {
            let (store, restored) = ResultStore::open(&dir);
            assert!(restored.is_empty());
            assert!(!store.is_degraded());
            for (id, payload) in [("j1", "first"), ("j2", "other"), ("j1", "second")] {
                // The repeat of j1 models an eviction + resubmission.
                assert_eq!(
                    store.record_completion(&record(id, payload)),
                    AppendOutcome::Written
                );
            }
            assert_eq!(store.writes(), 3);
        }
        let (store, restored) = ResultStore::open(&dir);
        assert_eq!(restored.len(), 2, "last-wins dedup at boot");
        let j1 = restored.iter().find(|r| r.id == "j1").unwrap();
        assert_eq!(j1.payload, "second");
        assert_eq!(store.boot_report().records_restored, 2);
        // The duplicate forced a compaction, so a third open is clean.
        assert!(store.boot_report().compacted);
        drop(store);
        let (store, restored) = ResultStore::open(&dir);
        assert_eq!(restored.len(), 2);
        assert!(!store.boot_report().compacted);
    }

    #[test]
    fn an_unopenable_directory_degrades_instead_of_failing() {
        let _scope = FAULT_SCOPE.lock().unwrap();
        // A file where the directory should be makes create_dir_all fail.
        let dir = temp_dir("degraded");
        std::fs::write(&dir, b"not a directory").unwrap();
        let _cleanup = Cleanup(dir.clone());
        let (store, restored) = ResultStore::open(&dir);
        assert!(store.is_degraded());
        assert!(restored.is_empty());
        // Writes are silently skipped, not errors.
        assert_eq!(
            store.record_completion(&record("j1", "lost")),
            AppendOutcome::Skipped
        );
        assert_eq!(store.writes(), 0);
    }

    #[test]
    fn repeated_write_failures_degrade_to_memory_only() {
        let _scope = FAULT_SCOPE.lock().unwrap();
        let dir = temp_dir("write-fail");
        let _cleanup = Cleanup(dir.clone());
        let (store, _) = ResultStore::open(&dir);
        qsdd_store::fault::install(qsdd_store::fault::FaultPlan {
            store_write_err: MAX_CONSECUTIVE_FAILURES,
            ..Default::default()
        });
        for _ in 0..MAX_CONSECUTIVE_FAILURES {
            assert_eq!(
                store.record_completion(&record("j1", "x")),
                AppendOutcome::Failed
            );
        }
        qsdd_store::fault::clear();
        assert!(store.is_degraded(), "failure streak must degrade");
        assert_eq!(store.write_failures(), MAX_CONSECUTIVE_FAILURES);
        // Degraded is sticky: even healthy disks are not retried.
        assert_eq!(
            store.record_completion(&record("j1", "x")),
            AppendOutcome::Skipped
        );
    }
}
