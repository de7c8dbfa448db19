//! Offline stand-in for the [`parking_lot`](https://crates.io/crates/parking_lot)
//! crate, backed by `std::sync`.
//!
//! Provides the `parking_lot` ergonomics the workspace relies on — an
//! infallible [`Mutex::lock`] with no poisoning — over the standard-library
//! mutex. Swap for the registry crate when network access is available.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// A mutual-exclusion primitive with `parking_lot`'s infallible API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    ///
    /// Unlike `std`, a panic in another thread while holding the lock does
    /// not poison it (matching `parking_lot` semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_into_inner_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn shared_across_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 8000);
    }
}
