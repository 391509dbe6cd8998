//! Order statistics for latency samples and run-to-run summaries.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. Returns the value and how
/// many samples rank strictly beyond it (the "≥ 10 samples beyond" guard
/// a reported percentile must pass).
///
/// # Panics
///
/// If `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones a Python check computes from the same values.
///
/// # Panics
///
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_beyond_guard() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), (500, 500));
        assert_eq!(percentile(&v, 99.0), (990, 10));
        assert_eq!(percentile(&v, 100.0), (1000, 0));
        // 999 samples leave only 9 beyond p99: too few to report it.
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99.0), (990, 9));
        // Nearest rank never interpolates: ties and tiny samples.
        assert_eq!(percentile(&[7], 99.0), (7, 0));
        assert_eq!(percentile(&[1, 2, 2, 2, 9], 50.0), (2, 2));
        assert_eq!(percentile(&[10, 20, 30, 40], 25.0), (10, 3));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
