//! Pipeline stages and per-job timing breakdowns.
//!
//! The [`Stage`] enum is the shared vocabulary for "where did the time
//! go": the simulation layers time their phases against it, the server
//! adds its serving-path stages, and every consumer (the `/v1/jobs/<id>`
//! `timings` object, the CLI `--profile` table, the server's
//! `qsdd_stage_seconds` histograms) renders the same names.

use std::time::Duration;

/// One stage of the request/simulation pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Request / circuit parsing (QASM or JSON job body).
    Parse,
    /// Circuit transpilation (optimisation passes).
    Transpile,
    /// Back-end compilation (operator diagrams, no-error trajectory).
    Compile,
    /// Presampling every shot's error decisions.
    Presample,
    /// Shot / trajectory execution.
    Execute,
    /// Merging worker partials into the final outcome.
    Aggregate,
    /// Result-cache lookup on the serving path.
    CacheLookup,
    /// Time a job spent queued before a worker picked it up.
    QueueWait,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Parse,
        Stage::Transpile,
        Stage::Compile,
        Stage::Presample,
        Stage::Execute,
        Stage::Aggregate,
        Stage::CacheLookup,
        Stage::QueueWait,
    ];

    /// The stage's stable snake_case name (label value and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Transpile => "transpile",
            Stage::Compile => "compile",
            Stage::Presample => "presample",
            Stage::Execute => "execute",
            Stage::Aggregate => "aggregate",
            Stage::CacheLookup => "cache_lookup",
            Stage::QueueWait => "queue_wait",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A per-job stage-timing breakdown: one duration per [`Stage`].
///
/// Always-on (a handful of `Instant` reads per *job*, nothing per shot):
/// the simulation layers fill it into their outcome, the server copies it
/// into the job envelope, and `--profile` prints it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    nanos: [u64; Stage::ALL.len()],
}

impl StageTimings {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        StageTimings::default()
    }

    /// Adds `elapsed` to a stage.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.nanos[stage.index()] = self.nanos[stage.index()]
            .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The accumulated time of one stage.
    pub fn get(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.nanos[stage.index()])
    }

    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().fold(0u64, |a, &b| a.saturating_add(b)))
    }

    /// Iterates `(stage, duration)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Duration)> + '_ {
        Stage::ALL
            .iter()
            .map(move |&stage| (stage, self.get(stage)))
    }

    /// Merges another breakdown into this one (per-stage addition).
    pub fn merge(&mut self, other: &StageTimings) {
        for (slot, &add) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *slot = slot.saturating_add(add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable_and_distinct() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 8);
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Stage::CacheLookup.name(), "cache_lookup");
    }

    #[test]
    fn timings_accumulate_merge_and_total() {
        let mut t = StageTimings::new();
        t.record(Stage::Execute, Duration::from_millis(5));
        t.record(Stage::Execute, Duration::from_millis(5));
        t.record(Stage::Compile, Duration::from_millis(2));
        assert_eq!(t.get(Stage::Execute), Duration::from_millis(10));
        assert_eq!(t.total(), Duration::from_millis(12));
        let mut other = StageTimings::new();
        other.record(Stage::Compile, Duration::from_millis(1));
        t.merge(&other);
        assert_eq!(t.get(Stage::Compile), Duration::from_millis(3));
        assert_eq!(t.iter().count(), 8);
    }
}
