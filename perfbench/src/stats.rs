//! Order statistics over exact samples.
//!
//! Every timing the benchmark reports is computed here from the sorted
//! samples themselves — never from histogram buckets — and travels with
//! its sample count.

/// Summary of one sample set: count, median and, when the set is large
/// enough, the 99th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (0 for an empty set).
    pub p50: f64,
    /// 99th percentile, present only when at least
    /// [`MIN_BEYOND`] samples lie above it.
    pub p99: Option<f64>,
}

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending; empty gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Number of samples strictly beyond the `q`-quantile: those ranked
/// above position `q·(n−1)`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// The `q`-quantile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// A sorted copy (NaN-free input assumed: samples are durations).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarizes an unsorted sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        count: s.len(),
        p50: quantile(&s, 0.5),
        p99: tail(&s, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 1000: p99 sits at position 989.01, so ranks 990..999 — ten
        // samples — lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail(&big, 0.99).is_some());
        // n = 950: position 939.51 still leaves ten; n = 900 (position
        // 890.01) leaves nine, one too few.
        assert_eq!(beyond(950, 0.99), 10);
        assert_eq!(beyond(900, 0.99), 9);
        let short: Vec<f64> = (0..900).map(f64::from).collect();
        assert_eq!(tail(&short, 0.99), None);
        // An exact rank is not beyond itself: the median of 21 samples is
        // rank 10, with ranks 11..20 beyond it.
        assert_eq!(beyond(21, 0.5), 10);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn summary_reports_count_and_gated_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.count, s.p50, s.p99), (3, 2.0, None));
        let many: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 999.5);
        let p99 = s.p99.expect("2000 samples carry a p99");
        assert!((p99 - 1979.01).abs() < 1e-9, "{p99}");
    }
}
