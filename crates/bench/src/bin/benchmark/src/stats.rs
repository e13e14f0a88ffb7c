//! Order statistics shared by the untraced and traced runs.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer the estimate is one or two outliers, not a tail.
pub(crate) const TAIL_MIN: usize = 10;

/// Sort `values` ascending (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive counts).
pub(crate) fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values` (mean of the middle pair for even counts).
pub(crate) fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The nearest-rank `q`-quantile of the ascending slice `sorted`, or
/// `None` unless at least [`TAIL_MIN`] samples lie beyond it.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_MIN).then(|| sorted[rank - 1])
}

/// [`percentile`], falling back to the largest sample when the sample is
/// too small to support the tail (smoke sizes, one-sample rounds).
pub(crate) fn tail(sorted: &[f64], q: f64) -> f64 {
    percentile(sorted, q).unwrap_or_else(|| sorted.last().copied().unwrap_or(f64::NAN))
}

/// The share of rounds at which a round-level time is read, fastest first.
/// Other tenants of a shared host slow a round, never speed it up, and
/// they do so for seconds at a time: within one run anywhere from none to
/// most of the rounds can be slowed by a third or more. A median then
/// reads whichever side holds the majority; the fastest tenth reads the
/// program itself as long as a tenth of the run ran undisturbed.
pub(crate) const SETTLED_Q: f64 = 0.1;

/// The [`SETTLED_Q`] quantile of round-level times `values` (nearest
/// rank, so with ten or more rounds it is a measured round).
pub(crate) fn settled(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let rank = ((SETTLED_Q * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
    s.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&thousand[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&thousand[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(tail(&thousand[..50], 0.99), 50.0);
    }

    #[test]
    fn settled_reads_the_fastest_tenth() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(settled(&hundred), 10.0);
        assert_eq!(settled(&[7.0, 3.0, 5.0]), 3.0);
        assert!(settled(&[]).is_nan());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }
}
