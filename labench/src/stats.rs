//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! tail figure always rests on more than a handful of outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `v` (mean of the two middle values for even lengths);
/// `None` when empty. Sorts `v` in place.
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 of 100 samples: only one beyond.
        assert_eq!(percentile(&v, 99.0), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(990.0));
        assert_eq!(percentile(&w[..999], 99.0), None);
        // The median itself needs 20 samples.
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
