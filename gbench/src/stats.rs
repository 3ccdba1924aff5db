//! Exact statistics over measured samples.
//!
//! Every gated number is computed here from the raw samples, never from a
//! bucketed histogram: a bucket edge moves in steps, so it can hide a real
//! change or invent one.

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending-sorted slice, as an
/// order statistic by the nearest-rank rule: the `k`-th smallest sample
/// with `k = ceil(q · n)`, clamped to `1..=n`. The result is always one of
/// the samples (no interpolation), so it is exact for simulated times.
/// This is the rank rule `gflink_sim::LogHistogram::quantile` uses for its
/// buckets, so the two agree whenever a bucket holds a single value.
/// `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let k = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[k - 1])
}

/// Sort a copy of `values` ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even-sized set. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the method Python's
/// `statistics.quantiles(values, n=4)` uses by default (`"exclusive"`:
/// positions `i·(n+1)/4`, linear interpolation between neighbours). The
/// benchmark's spread is judged with that function, so it is computed the
/// same way here. `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread a bound is
/// compared against. `None` with fewer than two samples or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it (ranked by [`quantile`]'s nearest-rank rule), with
/// its value: a percentile with fewer samples beyond it is one outlier
/// away from a different number. `None` when even the 75th lacks ten.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + 10).then(|| (p, sorted[rank - 1]))
    })
}

/// A geometric rate ladder: `start · factor^k` for `k = 0, 1, …` while the
/// rate stays at or below `max`.
pub fn ladder(start: f64, factor: f64, max: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut k = 0i32;
    loop {
        let r = start * factor.powi(k);
        if r > max * (1.0 + 1e-12) || rates.len() > 1_000 {
            return rates;
        }
        rates.push(r);
        k += 1;
    }
}

/// Walk `rates` in ascending order, stopping at the first rate that
/// misses (`meets` returns false). Returns the highest rate that met the
/// limit (`None` when the first rate already missed) and how many rates
/// were tried. Stopping at the first miss — rather than scanning every
/// rate — is what makes this "the highest sustainable rate": a rate above
/// a miss that happens to pass is noise, not headroom.
pub fn highest_meeting(rates: &[f64], mut meets: impl FnMut(f64) -> bool) -> (Option<f64>, usize) {
    let mut best = None;
    for (tried, &r) in rates.iter().enumerate() {
        if !meets(r) {
            return (best, tried + 1);
        }
        best = Some(r);
    }
    (best, rates.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        // ceil(0.5·5) = 3rd; ceil(0.99·5) = 5th; ceil(0.2·5) = 1st.
        assert_eq!(quantile(&v, 0.5), Some(30.0));
        assert_eq!(quantile(&v, 0.99), Some(50.0));
        assert_eq!(quantile(&v, 0.2), Some(10.0));
        assert_eq!(quantile(&v, 0.21), Some(20.0));
        assert_eq!(quantile(&v, 0.0), Some(10.0), "rank clamps to 1");
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
        // 100 samples 1..=100: p99 is the 99th, p50 the 50th.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&h, 0.99), Some(99.0));
        assert_eq!(quantile(&h, 0.5), Some(50.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: positions
        // outside the data extrapolate from the two end samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
        // IQR share of 1..=10: (8.25 − 2.75) / 5.5 = 1.
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 → rank 90, 10 beyond; p95 → rank 95, only 5 beyond.
        assert_eq!(supported_tail(&h), Some((90.0, 90.0)));
        let big: Vec<f64> = (1..=1_000).map(f64::from).collect();
        // p99 → rank 990, 10 beyond.
        assert_eq!(supported_tail(&big), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&h[..20]), None, "p75 of 20 has 5 beyond");
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_tail(&forty), Some((75.0, 30.0)));
    }

    #[test]
    fn ladder_is_geometric_and_capped() {
        let r = ladder(20.0, 1.1, 30.0);
        assert_eq!(r.len(), 5, "20, 22, 24.2, 26.62, 29.282");
        assert!((r[4] - 29.282).abs() < 1e-9);
        assert_eq!(ladder(10.0, 2.0, 40.0), vec![10.0, 20.0, 40.0]);
    }

    #[test]
    fn search_stops_at_the_first_miss() {
        let rates = [1.0, 2.0, 3.0, 4.0, 5.0];
        // 4 misses; 5 would pass again but is never tried.
        let mut tried = Vec::new();
        let (best, n) = highest_meeting(&rates, |r| {
            tried.push(r);
            r != 4.0
        });
        assert_eq!(best, Some(3.0));
        assert_eq!(n, 4);
        assert_eq!(tried, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(highest_meeting(&rates, |_| false), (None, 1));
        assert_eq!(highest_meeting(&rates, |_| true), (Some(5.0), 5));
    }
}
