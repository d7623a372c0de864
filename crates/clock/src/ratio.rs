//! Global-to-local clock ratio estimation (§2.2).
//!
//! "During the merge process the first global clock records in individual
//! trace files are used to determine the starting point in time for records
//! in each trace file. Subsequent global clock records are used to
//! calculate the ratio of global versus local clock timestamps."
//!
//! The paper's estimator is the **root mean square of the slope segments**
//! constructed by adjacent pairs of timestamp points:
//!
//! ```text
//!         ⎛  Σᵢ ((Gᵢ − Gᵢ₋₁) / (Lᵢ − Lᵢ₋₁))²  ⎞ ½
//!   R  =  ⎜  ─────────────────────────────────  ⎟
//!         ⎝                 n                   ⎠
//! ```
//!
//! which the paper prefers over the RMS of *all* slopes (anchored at
//! (G₀, L₀)) because the latter "gives too much weight on the first point
//! in the sequence". Two further alternatives the paper mentions are also
//! provided: the slope of the last timestamp pair, and a piecewise fit that
//! "effectively partitions the total elapsed time into n segments, each of
//! which has its own global to local clock ratio".

use ute_core::error::{Result, UteError};
use ute_core::time::{LocalTime, Time};

use crate::sample::ClockSample;

/// Which estimator the merge utility should use for the ratio `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RatioEstimator {
    /// RMS of adjacent slope segments — the paper's choice.
    #[default]
    RmsSegments,
    /// RMS of all slopes anchored at the first pair — the alternative the
    /// paper rejects for over-weighting the first point.
    RmsAllSlopes,
    /// Slope of (last pair − first pair) — reasonable "if the elapsed time
    /// of the trace is reasonably long".
    LastPair,
    /// Per-segment ratios (see [`PiecewiseFit`]).
    Piecewise,
}

/// A linear fit mapping one node's local timestamps onto the global axis:
/// `global = origin_global + R · (local − origin_local)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockFit {
    /// Global timestamp of the anchor (first global-clock record).
    pub origin_global: Time,
    /// Local timestamp of the anchor.
    pub origin_local: LocalTime,
    /// The global-to-local ratio `R`.
    pub ratio: f64,
}

impl ClockFit {
    /// Fits the samples with the requested estimator.
    ///
    /// Needs at least two samples with strictly increasing local
    /// timestamps and no falling global one; for
    /// [`RatioEstimator::Piecewise`] use [`PiecewiseFit::fit`] instead
    /// (this function falls back to [`RatioEstimator::RmsSegments`] for
    /// that variant).
    pub fn fit(samples: &[ClockSample], estimator: RatioEstimator) -> Result<ClockFit> {
        validate(samples)?;
        let ratio = match estimator {
            RatioEstimator::RmsSegments | RatioEstimator::Piecewise => rms_segments(samples),
            RatioEstimator::RmsAllSlopes => rms_all_slopes(samples),
            RatioEstimator::LastPair => last_pair(samples),
        };
        Ok(ClockFit {
            origin_global: samples[0].global,
            origin_local: samples[0].local,
            ratio,
        })
    }

    /// Maps a local timestamp to the global axis. Local timestamps earlier
    /// than the anchor clamp to the anchor (records cut before the first
    /// global-clock record align to the trace start).
    pub fn adjust(&self, local: LocalTime) -> Time {
        if local.ticks() <= self.origin_local.ticks() {
            return self.origin_global;
        }
        let dl = (local.ticks() - self.origin_local.ticks()) as f64;
        Time(
            self.origin_global
                .ticks()
                .saturating_add((self.ratio * dl).round() as u64),
        )
    }
}

fn validate(samples: &[ClockSample]) -> Result<()> {
    if samples.len() < 2 {
        return Err(UteError::Invalid(format!(
            "clock fit needs at least 2 samples, got {}",
            samples.len()
        )));
    }
    for w in samples.windows(2) {
        if w[1].local.ticks() <= w[0].local.ticks() {
            return Err(UteError::Invalid(
                "clock samples must have strictly increasing local timestamps".into(),
            ));
        }
        // A fit through a falling pair would map later local times
        // earlier: every fit is monotone because this never passes.
        if w[1].global < w[0].global {
            return Err(UteError::corrupt(format!(
                "clock records: global time falls from {} to {} at local {}",
                w[0].global.ticks(),
                w[1].global.ticks(),
                w[1].local.ticks()
            )));
        }
    }
    Ok(())
}

/// The paper's estimator: RMS over adjacent-pair slope segments.
pub fn rms_segments(samples: &[ClockSample]) -> f64 {
    let n = samples.len() - 1;
    let sum_sq: f64 = samples
        .windows(2)
        .map(|w| w[0].slope_to(&w[1]))
        .map(|s| s * s)
        .sum();
    (sum_sq / n as f64).sqrt()
}

/// The rejected alternative: RMS over slopes all anchored at the first pair.
pub fn rms_all_slopes(samples: &[ClockSample]) -> f64 {
    let first = samples[0];
    let n = samples.len() - 1;
    let sum_sq: f64 = samples[1..]
        .iter()
        .map(|s| first.slope_to(s))
        .map(|r| r * r)
        .sum();
    (sum_sq / n as f64).sqrt()
}

/// The slope of the whole span (first to last pair).
pub fn last_pair(samples: &[ClockSample]) -> f64 {
    samples[0].slope_to(&samples[samples.len() - 1])
}

/// Piecewise adjustment: "it is also possible to adjust local timestamps
/// using slopes of individual slope segments. This approach effectively
/// partitions the total elapsed time into n segments, each of which has its
/// own global to local clock ratio" (§2.2).
#[derive(Debug, Clone)]
pub struct PiecewiseFit {
    /// Segment anchors: the original samples, sorted by local timestamp.
    anchors: Vec<ClockSample>,
    /// Per-segment ratios; `ratios[i]` covers anchors `i → i+1`.
    ratios: Vec<f64>,
}

impl PiecewiseFit {
    /// Fits one ratio per adjacent sample pair.
    pub fn fit(samples: &[ClockSample]) -> Result<PiecewiseFit> {
        validate(samples)?;
        let ratios = samples.windows(2).map(|w| w[0].slope_to(&w[1])).collect();
        Ok(PiecewiseFit {
            anchors: samples.to_vec(),
            ratios,
        })
    }

    /// The mean of the segment ratios: the one ratio a report shows.
    pub fn mean_ratio(&self) -> f64 {
        self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.ratios.len()
    }

    /// The segment index whose local span contains `local` (clamping to the
    /// first/last segment outside the sampled range).
    fn segment_for(&self, local: LocalTime) -> usize {
        match self
            .anchors
            .binary_search_by_key(&local.ticks(), |s| s.local.ticks())
        {
            Ok(i) => i.min(self.ratios.len() - 1),
            Err(0) => 0,
            Err(i) => (i - 1).min(self.ratios.len() - 1),
        }
    }

    /// Maps a local timestamp to the global axis using the ratio of the
    /// segment it falls in; anchor points map exactly.
    pub fn adjust(&self, local: LocalTime) -> Time {
        let i = self.segment_for(local);
        let a = self.anchors[i];
        if local.ticks() <= a.local.ticks() && i == 0 && local.ticks() < a.local.ticks() {
            // Before the first record: clamp to the aligned start.
            return a.global;
        }
        let dl = local.ticks() as f64 - a.local.ticks() as f64;
        let g = a.global.ticks() as f64 + self.ratios[i] * dl;
        Time(if g <= 0.0 { 0 } else { g.round() as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{ClockParams, LocalClock};
    use crate::global::GlobalClock;
    use crate::sample::{sample_clocks, SamplerConfig};
    use ute_core::time::TICKS_PER_SEC;

    fn samples_for_ppm(ppm: f64, secs: u64) -> Vec<ClockSample> {
        let g = GlobalClock::ideal();
        let mut l = LocalClock::new(ClockParams::with_ppm(ppm, 123));
        sample_clocks(
            &g,
            &mut l,
            &SamplerConfig::default(),
            Time::ZERO,
            Time(secs * TICKS_PER_SEC),
        )
    }

    #[test]
    fn rms_segments_recovers_constant_ratio() {
        for ppm in [-100.0, -20.0, 0.0, 35.0, 200.0] {
            let s = samples_for_ppm(ppm, 120);
            let r = rms_segments(&s);
            let expect = 1.0 / (1.0 + ppm * 1e-6);
            assert!(
                (r - expect).abs() < 1e-9,
                "ppm {ppm}: got {r}, expected {expect}"
            );
        }
    }

    #[test]
    fn all_estimators_agree_on_constant_drift() {
        let s = samples_for_ppm(50.0, 60);
        let a = rms_segments(&s);
        let b = rms_all_slopes(&s);
        let c = last_pair(&s);
        assert!((a - b).abs() < 1e-9);
        assert!((a - c).abs() < 1e-9);
    }

    #[test]
    fn rms_all_slopes_overweights_first_point() {
        // Make the first segment anomalous (an outlier in the first pair):
        // RMS-of-all-slopes keeps the anomaly in every term, while
        // RMS-of-segments confines it to one term out of n.
        let mut s = samples_for_ppm(0.0, 100);
        // Perturb the first local timestamp by +2 ms.
        s[0].local = LocalTime(s[0].local.ticks() + 2_000_000);
        let seg = rms_segments(&s);
        let all = rms_all_slopes(&s);
        let err_seg = (seg - 1.0).abs();
        let err_all = (all - 1.0).abs();
        assert!(
            err_all > err_seg * 5.0,
            "expected anchored estimator to be much worse: seg {err_seg}, all {err_all}"
        );
    }

    #[test]
    fn fit_adjust_maps_local_to_global() {
        let ppm = 80.0;
        let s = samples_for_ppm(ppm, 140);
        let fit = ClockFit::fit(&s, RatioEstimator::RmsSegments).unwrap();
        // A local timestamp mid-trace should map back to within a few µs of
        // the true time that produced it.
        let true_t = Time(70 * TICKS_PER_SEC);
        let local =
            LocalTime(LocalClock::ideal_reading(&ClockParams::with_ppm(ppm, 123), true_t) as u64);
        let adjusted = fit.adjust(local);
        let err = adjusted.ticks() as i64 - true_t.ticks() as i64;
        assert!(err.abs() < 5_000, "adjust error {err} ticks");
    }

    #[test]
    fn adjust_clamps_before_anchor() {
        let s = vec![
            ClockSample::new(Time(1_000_000), LocalTime(2_000_000)),
            ClockSample::new(Time(2_000_000), LocalTime(3_000_000)),
        ];
        let fit = ClockFit::fit(&s, RatioEstimator::LastPair).unwrap();
        assert_eq!(fit.adjust(LocalTime(0)), Time(1_000_000));
        assert_eq!(fit.adjust(LocalTime(2_000_000)), Time(1_000_000));
    }

    #[test]
    fn ratio_of_a_half_speed_local_clock_is_two() {
        let s = vec![
            ClockSample::new(Time(0), LocalTime(0)),
            ClockSample::new(Time(2_000_000), LocalTime(1_000_000)),
        ];
        let fit = ClockFit::fit(&s, RatioEstimator::RmsSegments).unwrap();
        assert!((fit.ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fit_requires_two_increasing_samples() {
        assert!(ClockFit::fit(&[], RatioEstimator::RmsSegments).is_err());
        let one = vec![ClockSample::new(Time(0), LocalTime(0))];
        assert!(ClockFit::fit(&one, RatioEstimator::RmsSegments).is_err());
        let dup = vec![
            ClockSample::new(Time(0), LocalTime(5)),
            ClockSample::new(Time(1), LocalTime(5)),
        ];
        assert!(ClockFit::fit(&dup, RatioEstimator::RmsSegments).is_err());
    }

    #[test]
    fn piecewise_tracks_changing_drift_better_than_linear() {
        // A clock whose rate steps halfway through the trace: the
        // piecewise fit should adjust both halves well, the single-ratio
        // fit must compromise.
        let mut samples = Vec::new();
        let mut local = 0u64;
        for i in 0..=120u64 {
            let g = i * TICKS_PER_SEC;
            samples.push(ClockSample::new(Time(g), LocalTime(local)));
            // First half +100 ppm, second half -100 ppm.
            let rate = if i < 60 { 1.0001 } else { 0.9999 };
            local += (TICKS_PER_SEC as f64 * rate) as u64;
        }
        let linear = ClockFit::fit(&samples, RatioEstimator::RmsSegments).unwrap();
        let piece = PiecewiseFit::fit(&samples).unwrap();
        // Evaluate at sample 30 (inside first half) against ground truth.
        let probe = samples[30];
        let lin_err =
            (linear.adjust(probe.local).ticks() as i64 - probe.global.ticks() as i64).abs();
        let pw_err = (piece.adjust(probe.local).ticks() as i64 - probe.global.ticks() as i64).abs();
        assert!(pw_err <= 2, "piecewise should nail anchors, err {pw_err}");
        assert!(
            lin_err > 100_000,
            "single ratio should be visibly off mid-segment: {lin_err}"
        );
    }

    #[test]
    fn piecewise_anchor_points_map_exactly() {
        let s = samples_for_ppm(25.0, 50);
        let pw = PiecewiseFit::fit(&s).unwrap();
        for a in &s {
            assert_eq!(pw.adjust(a.local), a.global);
        }
        assert_eq!(pw.segments(), s.len() - 1);
    }

    #[test]
    fn piecewise_extrapolates_with_edge_ratios() {
        let s = vec![
            ClockSample::new(Time(1_000), LocalTime(1_000)),
            ClockSample::new(Time(2_000), LocalTime(2_000)),
            ClockSample::new(Time(4_000), LocalTime(3_000)),
        ];
        let pw = PiecewiseFit::fit(&s).unwrap();
        // Beyond the last anchor, use the last segment's ratio (2.0).
        assert_eq!(pw.adjust(LocalTime(3_500)).ticks(), 5_000);
        // Before the first anchor, clamp to the aligned start.
        assert_eq!(pw.adjust(LocalTime(0)).ticks(), 1_000);
        // The reported ratio is the mean of the segments' 1.0 and 2.0.
        assert_eq!(pw.mean_ratio(), 1.5);
    }

    /// G falls from 1000 to 500 at the middle sample.
    fn falling_at_middle() -> Vec<ClockSample> {
        vec![
            ClockSample::new(Time(0), LocalTime(0)),
            ClockSample::new(Time(1_000), LocalTime(1_000)),
            ClockSample::new(Time(500), LocalTime(2_000)),
        ]
    }

    #[test]
    fn estimators_take_a_falling_global_time_without_overflow() {
        let s = falling_at_middle();
        assert_eq!(last_pair(&s), 0.25);
        assert_eq!(rms_segments(&s), (0.5f64 * (1.0 + 0.25)).sqrt());
        assert_eq!(rms_all_slopes(&s), (0.5f64 * (1.0 + 0.0625)).sqrt());
    }

    #[test]
    fn a_fit_through_a_falling_global_time_is_refused() {
        let s = falling_at_middle();
        for est in [
            RatioEstimator::RmsSegments,
            RatioEstimator::RmsAllSlopes,
            RatioEstimator::LastPair,
        ] {
            let e = ClockFit::fit(&s, est).unwrap_err();
            assert!(matches!(e, UteError::Corrupt { .. }), "{est:?}: {e}");
            assert!(e.to_string().contains("falls from 1000 to 500"), "{e}");
        }
        let e = PiecewiseFit::fit(&s).unwrap_err();
        assert!(matches!(e, UteError::Corrupt { .. }), "{e}");
        // A level global time is not a fall.
        let mut level = s.clone();
        level[2].global = Time(1_000);
        assert!(PiecewiseFit::fit(&level).is_ok());
    }

    #[test]
    fn an_overflowing_mapping_saturates() {
        let fit = ClockFit {
            origin_global: Time(u64::MAX - 10),
            origin_local: LocalTime(0),
            ratio: 1e12,
        };
        assert_eq!(fit.adjust(LocalTime(1_000)), Time(u64::MAX));
    }
}
