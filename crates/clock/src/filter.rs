//! Outlier rejection for global-clock records.
//!
//! §5: "Since global clock records are collected by a thread in each node,
//! there is a remote chance that significant discrepancy between the global
//! and local clock may be recorded due to, say thread de-scheduling right
//! after accessing the global clock. Although this significant discrepancy
//! may be easily filtered out by utilities, an atomic operation would
//! totally eliminate such possibilities."
//!
//! The filter works on the segment slopes: honest samples from a crystal
//! clock produce slopes within a few hundred ppm of each other, while a
//! deschedule of even a millisecond between the two reads bends the two
//! adjacent slopes by orders of magnitude more. We compute the median
//! slope, flag samples whose *both* adjacent slopes deviate beyond a
//! tolerance, and drop them.

use crate::sample::ClockSample;

/// Default tolerance: slopes more than 500 ppm away from the median slope
/// are considered bent by an outlier sample. Real crystal drift is tens of
/// ppm; a 1 ms deschedule inside a 1 s sampling period bends a slope by
/// ~1000 ppm.
pub const DEFAULT_TOLERANCE_PPM: f64 = 500.0;

/// Removes samples whose presence bends both adjacent slope segments away
/// from the median slope by more than `tolerance_ppm`. The first and last
/// samples are kept unless their single adjacent slope deviates.
///
/// Returns the retained samples (order preserved). With fewer than three
/// samples the input is returned unchanged — no median is meaningful.
pub fn filter_outliers(samples: &[ClockSample], tolerance_ppm: f64) -> Vec<ClockSample> {
    if samples.len() < 3 {
        return samples.to_vec();
    }
    let slopes: Vec<f64> = samples
        .windows(2)
        .map(|w| {
            if w[1].local > w[0].local {
                w[0].slope_to(&w[1])
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut sorted: Vec<f64> = slopes.iter().copied().filter(|s| s.is_finite()).collect();
    if sorted.is_empty() {
        return samples.to_vec();
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    let tol = median.abs() * tolerance_ppm * 1e-6;
    let deviant = |s: f64| -> bool { !s.is_finite() || (s - median).abs() > tol };

    let mut keep = vec![true; samples.len()];
    for i in 0..samples.len() {
        let left_dev = if i > 0 { deviant(slopes[i - 1]) } else { true };
        let right_dev = if i < slopes.len() {
            deviant(slopes[i])
        } else {
            true
        };
        // A sample is an outlier when every slope it participates in is
        // deviant. (Interior: both; edges: their single slope.)
        if left_dev && right_dev {
            keep[i] = false;
        }
    }
    samples
        .iter()
        .zip(keep)
        .filter_map(|(s, k)| if k { Some(*s) } else { None })
        .collect()
}

/// Convenience wrapper using [`DEFAULT_TOLERANCE_PPM`].
pub fn filter_outliers_default(samples: &[ClockSample]) -> Vec<ClockSample> {
    filter_outliers(samples, DEFAULT_TOLERANCE_PPM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::time::{LocalTime, Time, TICKS_PER_SEC};

    fn clean_run(n: u64, ppm: f64) -> Vec<ClockSample> {
        (0..=n)
            .map(|i| {
                let g = i * TICKS_PER_SEC;
                let l = (g as f64 * (1.0 + ppm * 1e-6)) as u64;
                ClockSample::new(Time(g), LocalTime(l))
            })
            .collect()
    }

    #[test]
    fn clean_samples_pass_through() {
        let s = clean_run(30, 25.0);
        let f = filter_outliers_default(&s);
        assert_eq!(f, s);
    }

    #[test]
    fn single_deschedule_outlier_removed() {
        let mut s = clean_run(30, 25.0);
        // Sample 10 read the local clock 2 ms late (deschedule after the
        // global read): its local timestamp is 2 ms too large.
        s[10].local = LocalTime(s[10].local.ticks() + 2_000_000);
        let f = filter_outliers_default(&s);
        assert_eq!(f.len(), s.len() - 1);
        assert!(!f.contains(&s[10]));
        // Everything else survives.
        for (i, smp) in s.iter().enumerate() {
            if i != 10 {
                assert!(f.contains(smp), "sample {i} wrongly dropped");
            }
        }
    }

    #[test]
    fn outlier_at_edges_removed() {
        let mut s = clean_run(20, 0.0);
        s[0].local = LocalTime(s[0].local.ticks() + 3_000_000);
        let last = s.len() - 1;
        s[last].local = LocalTime(s[last].local.ticks() + 3_000_000);
        let f = filter_outliers_default(&s);
        assert!(!f.contains(&s[0]));
        assert!(!f.contains(&s[last]));
        assert_eq!(f.len(), s.len() - 2);
    }

    #[test]
    fn multiple_outliers_removed() {
        let mut s = clean_run(60, 40.0);
        for &i in &[7usize, 23, 48] {
            s[i].local = LocalTime(s[i].local.ticks() + 5_000_000);
        }
        let f = filter_outliers_default(&s);
        assert_eq!(f.len(), s.len() - 3);
    }

    #[test]
    fn a_global_time_that_falls_is_a_deviant_sample() {
        let mut s = clean_run(30, 25.0);
        // Sample 10's global time falls below sample 9's.
        s[10].global = Time(s[9].global.ticks() - 500);
        let f = filter_outliers_default(&s);
        assert_eq!(f.len(), s.len() - 1);
        assert!(!f.contains(&s[10]));
        assert!(f.windows(2).all(|w| w[0].global <= w[1].global));
        // Falling nearly everywhere: the samples that agree with the
        // falling median stay, for the fit to refuse.
        let falling: Vec<ClockSample> = clean_run(30, 25.0)
            .iter()
            .map(|x| ClockSample::new(Time((1 << 40) - x.global.ticks()), x.local))
            .collect();
        assert!(filter_outliers_default(&falling).len() > falling.len() / 2);
    }

    #[test]
    fn short_inputs_unchanged() {
        let s = clean_run(1, 10.0);
        assert_eq!(filter_outliers_default(&s), s);
        assert!(filter_outliers_default(&[]).is_empty());
    }

    #[test]
    fn filtering_restores_ratio_accuracy() {
        use crate::ratio::rms_segments;
        let mut s = clean_run(120, 30.0);
        s[40].local = LocalTime(s[40].local.ticks() + 4_000_000);
        let expect = 1.0 / (1.0 + 30e-6);
        let dirty = (rms_segments(&s) - expect).abs();
        let clean = (rms_segments(&filter_outliers_default(&s)) - expect).abs();
        assert!(
            clean < dirty / 100.0,
            "filter should improve the fit: dirty {dirty:e}, clean {clean:e}"
        );
    }
}
