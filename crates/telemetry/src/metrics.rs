//! The metric primitives: counters, gauges and histograms.
//!
//! All three are plain atomic structures safe to update from any thread
//! without locking. Counters and gauges are one atomic each: counters move
//! per request, per chunk or per job, never per shot, so one cell is all
//! the traffic needs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, active connections, peaks).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is currently lower (peak
    /// tracking).
    pub fn set_max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency buckets, in seconds: 100 µs up to one minute on a
/// roughly 1–2.5–5 ladder. Covers everything from a cached lookup to a
/// large simulation.
pub const LATENCY_BOUNDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0, 60.0,
];

/// A fixed-bucket histogram with a running sum and sample count.
///
/// Bucket counts are **non-cumulative** internally; the Prometheus
/// renderer accumulates them into the `le`-labelled cumulative form.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    /// Sum of all observed values, stored as `f64` bits (updated by CAS;
    /// observations happen per request or per job, never per shot).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over ascending `bounds` (plus an implicit
    /// `+Inf` bucket).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    #[inline]
    pub fn observe_duration(&self, elapsed: std::time::Duration) {
        self.observe(elapsed.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The bucket upper bounds (without `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative bucket counts, one per bound plus the final `+Inf`
    /// entry (which equals [`Histogram::count`] up to racing updates).
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.buckets
            .iter()
            .map(|bucket| {
                total += bucket.load(Ordering::Relaxed);
                total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_sum_across_threads() {
        let counter = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
        counter.add(5);
        assert_eq!(counter.get(), 80_005);
    }

    #[test]
    fn gauges_track_values_and_peaks() {
        let gauge = Gauge::new();
        gauge.set(3);
        gauge.add(-1);
        assert_eq!(gauge.get(), 2);
        gauge.set_max(10);
        gauge.set_max(7);
        assert_eq!(gauge.get(), 10);
    }

    #[test]
    fn histograms_bucket_sum_and_count() {
        let h = Histogram::new(&[1.0, 10.0]);
        for value in [0.5, 0.9, 5.0, 100.0] {
            h.observe(value);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.4).abs() < 1e-9);
        assert_eq!(h.cumulative_buckets(), vec![2, 3, 4]);
    }

    #[test]
    fn histogram_observations_are_thread_safe() {
        let h = Arc::new(Histogram::new(LATENCY_BOUNDS));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe((worker * 1000 + i) as f64 * 1e-6);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(*h.cumulative_buckets().last().unwrap(), 4000);
    }
}
