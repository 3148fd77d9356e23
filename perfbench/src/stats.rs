//! Order statistics used by every workload: medians, quartiles and the
//! "highest percentile with at least ten samples beyond it" tail rule.

/// Sorted copy of `xs` (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (the middle order statistic; mean of the two middles for even n).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (method "exclusive") computes them —
/// including its linear extrapolation for two-sample inputs — so spreads
/// reported here agree with an outside checker's.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len() as i64;
    assert!(ld >= 2, "quartiles need at least two samples");
    let cut = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread statistic the benchmark is tuned against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.99, 99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0];

/// The reported tail: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it, and its value. Samples too few for even
/// the median to have ten beyond it report their maximum (percentile 100).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    for p in TAIL_LADDER {
        if s.len() - rank(s.len(), p) >= 10 {
            return (p, nearest_rank(&s, p));
        }
    }
    (100.0, *s.last().expect("tail of an empty sample"))
}

/// 1-based nearest-rank position of percentile `p` in `n` samples (the
/// small slack keeps decimal percentiles such as 99.9 from rounding up a
/// whole rank).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted `s` (the smallest sample with at
/// least `p`% of the sample at or below it).
pub fn nearest_rank(s: &[f64], p: f64) -> f64 {
    s[rank(s.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]), (1.5, 12.0));
        assert_eq!(median(&[16.0, 8.0, 4.0, 2.0, 1.0]), 4.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs = [10.0, 10.0, 10.0, 10.0];
        assert_eq!(spread(&xs), 0.0);
        let ys: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ys) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&xs), (99.0, 990.0));
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&ys), (90.0, 90.0));
        let some: Vec<f64> = (1..=26).map(f64::from).collect();
        assert_eq!(tail(&some), (60.0, 16.0));
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few), (100.0, 3.0));
    }

    #[test]
    fn nearest_rank_is_an_order_statistic() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 50.0), 2.0);
        assert_eq!(nearest_rank(&s, 100.0), 4.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
    }
}
