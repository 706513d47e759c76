//! Order statistics: medians, quartiles and the "highest percentile with at
//! least ten samples beyond it" rule every reported timing follows.

/// Median of `v` (mean of the middle pair for even lengths). Panics on an
/// empty slice: every caller has at least one sample by construction.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-quantile of `v` by the method of Python's
/// `statistics.quantiles` (the default *exclusive* one: position
/// `p * (n + 1)`, linear interpolation between the two samples around it,
/// extrapolation from the outermost two beyond them), so spreads computed
/// here match the driver's. One sample is its own quantile.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, p)
}

fn quantile_sorted(s: &[f64], p: f64) -> f64 {
    let n = s.len();
    if n < 2 {
        return s[0];
    }
    let pos = p * (n + 1) as f64;
    let j = (pos as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    s[j - 1] * (1.0 - delta) + s[j] * delta
}

/// Quartiles `(q1, q2, q3)` as `statistics.quantiles(v, n=4)` gives them.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// What a timing is reported with: the median, the highest standard
/// percentile that still has ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// Value at [`Summary::hi_pct`]; equals `p50` when `n < 100`.
    pub hi: f64,
    /// Which percentile `hi` is (50, 90, 99, 99.9 or 99.99).
    pub hi_pct: f64,
    pub n: usize,
}

/// Summarise raw samples (see [`Summary`]).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let mut hi_pct = 50.0;
    // One sample in `every` lies beyond the percentile; ten must.
    for (p, every) in [(90.0, 10), (99.0, 100), (99.9, 1000), (99.99, 10_000)] {
        if n >= 10 * every {
            hi_pct = p;
        }
    }
    let at = |p: f64| s[(((n as f64) * p / 100.0) as usize).min(n - 1)];
    Summary {
        p50: median(&s),
        hi: if hi_pct == 50.0 {
            median(&s)
        } else {
            at(hi_pct)
        },
        hi_pct,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn low_decile_matches_python_and_clamps() {
        // statistics.quantiles(range(1, 37), n=10)[0] == 3.7
        let v: Vec<f64> = (1..=36).map(f64::from).collect();
        assert!((quantile(&v, 0.1) - 3.7).abs() < 1e-12);
        // statistics.quantiles(range(1, 13), n=10)[0] == 1.3
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert!((quantile(&v, 0.1) - 1.3).abs() < 1e-12);
        // statistics.quantiles([5, 7, 9], n=10)[0] == 3.8 (extrapolated)
        assert!((quantile(&[5.0, 7.0, 9.0], 0.1) - 3.8).abs() < 1e-12);
        assert_eq!(quantile(&[4.0], 0.1), 4.0);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(summarize(&v).hi_pct, 50.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summarize(&v).hi_pct, 90.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.hi_pct, s.hi, s.n), (99.0, 990.0, 1000));
    }
}
