//! Order statistics for the report: every timing is printed as a sample
//! count, a median, its quartiles and its extremes, never as a bare mean.

use uniclean_model::Json;

/// `n`, median, quartiles, min and max of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let (q1, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median: quantile_sorted(&sorted, 0.5),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// A metric that is one number rather than a set of samples.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ])
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile of an ascending slice, `p` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spreads this harness prints
/// are the ones an outside checker computes from the same values.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Median of `samples` (0 when empty, so a stage that never ran shows).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The `pct`-th percentile by nearest rank, reported only where at least
/// ten samples lie beyond it; `None` when the samples are too few for that
/// tail (p95 needs 200, p99 needs 1000).
pub fn percentile_with_ten_beyond(samples: &[f64], pct: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank: the smallest index with at least pct% of samples at or
    // below it.
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && rank + 10 <= n).then(|| sorted(samples)[rank - 1])
}

/// Least-squares slope of `y` over `x` (0 when `x` has no variance).
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.spread() - 10.5 / 4.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[7.0]).unwrap(), Summary::single(7.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples has exactly ten beyond it.
        assert_eq!(percentile_with_ten_beyond(&v, 95.0), Some(190.0));
        // p99 of 200 would leave two beyond, p95 of 199 nine: no tail claim.
        assert_eq!(percentile_with_ten_beyond(&v, 99.0), None);
        assert_eq!(percentile_with_ten_beyond(&v[..199], 95.0), None);
        // p99 of 5000 leaves fifty beyond.
        let w: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(percentile_with_ten_beyond(&w, 99.0), Some(4950.0));
        assert_eq!(percentile_with_ten_beyond(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile_with_ten_beyond(&v[..10], 50.0), None);
        assert_eq!(percentile_with_ten_beyond(&[], 50.0), None);
    }

    #[test]
    fn slope_is_least_squares() {
        assert_eq!(slope(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]), 2.0);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 4.0]), 0.0);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
    }
}
