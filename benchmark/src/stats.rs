//! Small numeric helpers: medians and quartiles over runs, interpolated
//! percentiles over a latency histogram, and the request failure share.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones an external checker computes from the same runs. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len() as i64;
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of a histogram given as its CDF points `(bucket
/// value, cumulative fraction)`, interpolated linearly between adjacent
/// buckets. A plain bucket lookup moves in whole-bucket steps (~3%), so
/// runs whose tails differ by less than a bucket would read identically;
/// interpolation keeps the estimate continuous in the underlying counts.
pub fn cdf_quantile(cdf: &[(u64, f64)], q: f64) -> f64 {
    let Some(hi) = cdf.iter().position(|&(_, c)| c >= q) else {
        return cdf.last().map_or(0.0, |&(v, _)| v as f64);
    };
    if hi == 0 {
        return cdf[0].0 as f64;
    }
    let (v0, c0) = (cdf[hi - 1].0 as f64, cdf[hi - 1].1);
    let (v1, c1) = (cdf[hi].0 as f64, cdf[hi].1);
    v0 + (v1 - v0) * (q - c0) / (c1 - c0)
}

/// Share of submitted requests that failed: shed at admission or timed
/// out. Zero when nothing was submitted.
pub fn failed_share(submitted: u64, rejected: u64, timed_out: u64) -> f64 {
    if submitted == 0 {
        0.0
    } else {
        (rejected + timed_out) as f64 / submitted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn cdf_quantile_interpolates_between_buckets() {
        let cdf = [(100, 0.25), (200, 0.75), (400, 1.0)];
        assert_eq!(cdf_quantile(&cdf, 0.1), 100.0);
        assert_eq!(cdf_quantile(&cdf, 0.5), 150.0);
        assert_eq!(cdf_quantile(&cdf, 0.75), 200.0);
        assert_eq!(cdf_quantile(&cdf, 0.875), 300.0);
        assert_eq!(cdf_quantile(&cdf, 1.0), 400.0);
        assert_eq!(cdf_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failed_share_counts_sheds_and_timeouts() {
        assert_eq!(failed_share(0, 0, 0), 0.0);
        assert_eq!(failed_share(1_000, 0, 0), 0.0);
        assert_eq!(failed_share(1_000, 5, 15), 0.02);
    }
}
