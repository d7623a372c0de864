//! Order statistics over a run's samples.
//!
//! Timings are summarised as minimum, median, quartiles and maximum with
//! their sample count: with a dozen reps no higher percentile has ten
//! samples beyond it, so none is reported. Quartiles use the same rule as
//! Python's `statistics.quantiles(values, n=4)` (the exclusive method),
//! because that is what the acceptance driver computes its spreads with.

/// Extremes, median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: v[0],
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile range as a share of the median: the spread figure
    /// the noise guard and the acceptance driver both use.
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The median of `values` (0.0 for an empty slice, which callers that
/// can meet one check for first).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The `p`-quantile of an ascending slice by the exclusive method:
/// position `p·(n+1)` counted from 1, linearly interpolated, clamped to
/// the ends.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    let pos = p * (n as f64 + 1.0);
    let lo = pos.floor();
    if lo < 1.0 {
        return v[0];
    }
    if lo as usize >= n {
        return v[n - 1];
    }
    let i = lo as usize;
    v[i - 1] + (pos - lo) * (v[i] - v[i - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.max, s.n),
            (2.75, 5.5, 8.25, 10.0, 10)
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // Three samples: the quartiles clamp to the ends.
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn iqr_ratio_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().iqr_ratio(), 1.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).unwrap().iqr_ratio(), 0.0);
    }
}
