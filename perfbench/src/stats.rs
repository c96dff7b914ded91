//! Order statistics over timing samples.
//!
//! A tail percentile is only reported when the sample supports it:
//! at least [`TAIL_SAMPLES`] samples must lie strictly beyond it, so
//! the 99th percentile needs 1000 samples.

use std::ops::Range;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`:
/// the smallest sample with at least `p·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based index [`percentile`] reads.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`
/// samples.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The fewest samples for which percentile `p` has at least
/// [`TAIL_SAMPLES`] samples beyond it.
#[must_use]
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= TAIL_SAMPLES)
        .expect("a large enough sample exists for any p < 1")
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean, 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `values` sorted ascending.
///
/// # Panics
///
/// Panics on a NaN.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// The tail percentile a sample of `n` supports: the 99th when at
/// least [`TAIL_SAMPLES`] samples lie beyond it, otherwise the median —
/// a smaller sample has no tail worth the name, only noise.
#[must_use]
pub fn tail_rank(n: usize) -> f64 {
    if samples_beyond(n, 0.99) >= TAIL_SAMPLES {
        0.99
    } else {
        0.5
    }
}

/// The `k` consecutive segments of equal count that `n` items split
/// into, as index ranges; the last `n % k` items fall in none.
///
/// # Panics
///
/// Panics unless `0 < k <= n`.
#[must_use]
pub fn segments(n: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0 && k <= n, "{n} items do not fill {k} segments");
    let len = n / k;
    (0..k).map(|i| i * len..(i + 1) * len).collect()
}
