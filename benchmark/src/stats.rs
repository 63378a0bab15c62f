//! Order statistics the report is built from.

/// Median of a sample (mean of the two middle values for an even
/// count); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Ascending copy of a sample.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// sample; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method), so spreads computed here match the
/// ones the acceptance check computes. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile range as a share of the median; falls back to the
/// full range for fewer than four values. 0 when the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 || samples.len() < 2 {
        return 0.0;
    }
    let width = match quartiles(samples) {
        Some([q1, _, q3]) if samples.len() >= 4 => q3 - q1,
        _ => {
            let v = sorted(samples);
            v[v.len() - 1] - v[0]
        }
    };
    (width / m).abs()
}

/// The percentiles a tail is reported at, ascending, each with the
/// per-mille share of samples that lies beyond it (integers, so the
/// ten-beyond rule is exact at n = 100 and n = 1000).
const LADDER: [(f64, usize); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A tail reading: the percentile actually supported by the sample,
/// its value, and the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
    /// False when even the median has fewer than [`MIN_BEYOND`] samples
    /// beyond it; the value is then only indicative.
    pub supported: bool,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let note = if self.supported {
            ""
        } else {
            ", under-sampled"
        };
        write!(
            f,
            "p{} = {:.3} (n = {}{note})",
            self.pct, self.value, self.n
        )
    }
}

/// The highest ladder percentile, capped at `want`, that still has at
/// least [`MIN_BEYOND`] samples beyond it.
pub fn tail_at_most(samples: &[f64], want: f64) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    let pick = LADDER
        .iter()
        .rev()
        .find(|&&(p, beyond)| p <= want && n * beyond / 1000 >= MIN_BEYOND)
        .map(|&(p, _)| p);
    let pct = pick.unwrap_or(LADDER[0].0);
    Tail {
        pct,
        value: percentile(&v, pct),
        n,
        supported: pick.is_some(),
    }
}

/// The highest percentile with at least ten samples beyond it.
pub fn highest_tail(samples: &[f64]) -> Tail {
    tail_at_most(samples, 100.0)
}

/// Kendall's tau-b rank correlation of two equally long series (0 when
/// either series is constant or shorter than two).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (mut conc, mut disc, mut tie_a, mut tie_b) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i].total_cmp(&a[j]) as i64;
            let db = b[i].total_cmp(&b[j]) as i64;
            match (da, db) {
                (0, 0) => {}
                (0, _) => tie_a += 1,
                (_, 0) => tie_b += 1,
                _ if da == db => conc += 1,
                _ => disc += 1,
            }
        }
    }
    let denom = (((conc + disc + tie_a) * (conc + disc + tie_b)) as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (conc - disc) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // Fewer than four values: the full range.
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: exactly ten beyond p99, one beyond p99.9.
        let t = highest_tail(&n(1000));
        assert_eq!((t.pct, t.n, t.supported), (99.0, 1000, true));
        assert_eq!(highest_tail(&n(999)).pct, 95.0);
        assert_eq!(highest_tail(&n(100)).pct, 90.0);
        assert_eq!(highest_tail(&n(99)).pct, 75.0);
        assert_eq!(highest_tail(&n(10_000)).pct, 99.9);
        // A cap lowers the answer but never raises it.
        assert_eq!(tail_at_most(&n(10_000), 90.0).pct, 90.0);
        assert_eq!(tail_at_most(&n(50), 90.0).pct, 75.0);
        // Under twenty samples even the median is under-sampled.
        let t = highest_tail(&n(19));
        assert_eq!((t.pct, t.supported), (50.0, false));
        assert_eq!(t.value, 9.0);
        assert!(t.to_string().contains("n = 19, under-sampled"));
    }

    #[test]
    fn kendall_tau_orders() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&a, &[10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(kendall_tau(&a, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        assert!((kendall_tau(&a, &[1.0, 3.0, 2.0, 4.0]) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(kendall_tau(&a, &[5.0; 4]), 0.0);
        assert_eq!(kendall_tau(&[], &[]), 0.0);
    }
}
