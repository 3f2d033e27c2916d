//! A fixed-bucket latency histogram (Prometheus semantics).

use std::sync::atomic::{AtomicU64, Ordering};

/// Default latency buckets in seconds: 1ms .. 10s, roughly log-spaced.
pub const DEFAULT_BUCKETS: [f64; 12] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
];

/// A lock-free histogram of seconds with static upper bounds plus an
/// implicit `+Inf` bucket. Observations are wall-clock timings and are
/// outside the engine's determinism contract.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries, the
    /// last being `+Inf`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A point-in-time histogram snapshot with Prometheus-style *cumulative*
/// bucket counts.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// `(upper_bound_seconds, cumulative_count)` per finite bucket.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations (the `+Inf` cumulative count).
    pub count: u64,
    /// Sum of observed values in seconds.
    pub sum_seconds: f64,
}

impl Histogram {
    /// A histogram over the default bucket bounds (`DEFAULT_BUCKETS`).
    pub fn new() -> Histogram {
        Histogram::with_bounds(&DEFAULT_BUCKETS)
    }

    /// A histogram over the given ascending upper bounds.
    pub fn with_bounds(bounds: &'static [f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = self
            .bounds
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshots cumulative bucket counts, total count, and sum.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut cumulative = 0u64;
        let buckets = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                cumulative += self.buckets[i].load(Ordering::Relaxed);
                (b, cumulative)
            })
            .collect();
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_cumulative_buckets() {
        let h = Histogram::new();
        h.observe(0.0005); // <= 1ms
        h.observe(0.003); // <= 5ms
        h.observe(0.003);
        h.observe(100.0); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        let at = |bound: f64| {
            snap.buckets
                .iter()
                .find(|(b, _)| *b == bound)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert_eq!(at(0.001), 1);
        assert_eq!(at(0.0025), 1);
        assert_eq!(at(0.005), 3);
        assert_eq!(at(10.0), 3); // the 100s observation is only in +Inf
        assert!((snap.sum_seconds - 100.0065).abs() < 1e-3);
    }

    #[test]
    fn non_finite_and_negative_observations_clamp_to_zero() {
        let h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(-5.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets[0].1, 2);
        assert_eq!(snap.sum_seconds, 0.0);
    }
}
