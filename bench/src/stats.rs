//! Order statistics for the timed metrics.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance check of
//! the benchmark applies to ten runs; using the same rule here means the
//! spread this crate prints is the spread the check will see.

use crate::json::Value;

/// n / min / q1 / median / q3 / max of one timed metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Median of `values` (mean of the middle pair for even counts).
/// Panics on an empty slice: a metric without samples is a bug here.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(q1, q3)` by the exclusive method; a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let m = s.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Full dispersion summary of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let (q1, q3) = quartiles(&s);
    Summary {
        n: s.len(),
        min: s[0],
        q1,
        median: median(&s),
        q3,
        max: s[s.len() - 1],
    }
}

impl Summary {
    /// Interquartile distance as a share of the median — the spread the
    /// regression bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("n", Value::Num(self.n as f64)),
            ("min", Value::Num(self.min)),
            ("q1", Value::Num(self.q1)),
            ("median", Value::Num(self.median)),
            ("q3", Value::Num(self.q3)),
            ("max", Value::Num(self.max)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        Some(Summary {
            n: v.get("n")?.as_f64()? as usize,
            min: v.get("min")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
    }

    #[test]
    fn summary_and_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
