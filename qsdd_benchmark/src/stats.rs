//! Order statistics, the machine-calibration loop and `/proc` memory reads.

use std::hint::black_box;
use std::time::Instant;

/// Median of the samples (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample by
/// construction, and a silent `0.0` would read as a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`), or `None` when fewer than
/// ten samples lie beyond it — a tail read off a handful of samples is the
/// maximum under another name.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the samples, or `0.0` when the layer was never called.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Size of the buffer the calibration's pointer chase walks: well past the
/// per-core caches, like the simulator's node and compute tables.
const CALIBRATION_BYTES: usize = 32 << 20;

/// The machine control: a fixed amount of integer arithmetic plus a chase
/// of dependent loads through a 32 MiB buffer whose every entry points a
/// pseudo-random stride ahead, in milliseconds. It exercises no code of the
/// system under test, so a change in it between two runs is the machine,
/// not the commit; the chase makes it feel what the decision-diagram tables
/// feel (shared-cache and memory latency), which plain arithmetic does not.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let entries = CALIBRATION_BYTES / 4;
    // `i -> (a*i + c) mod 2^k` with `a % 4 == 1` and odd `c` visits every
    // entry once before it repeats.
    let next: Vec<u32> = (0..entries as u64)
        .map(|i| ((i * 1_664_525 + 1_013_904_223) % entries as u64) as u32)
        .collect();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    let mut acc = u64::from(at);
    for i in 0..40_000_000u64 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of a live process in MiB, read from
/// `/proc/<pid>/status`; `None` once the process is gone.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: the one generator every job seed, sweep circuit and traffic
/// script derives from `--seed` through.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by the run seed and a per-purpose salt, so two
    /// purposes never share values.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A job seed: 53 bits, so it survives a round trip through JSON.
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}
