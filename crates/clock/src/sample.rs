//! Global-clock records: periodic (global, local) timestamp pairs.
//!
//! "We chose to access the global clock register periodically in each node
//! to collect global clock records, each of which contains a global
//! timestamp and a local timestamp, and adjust local timestamps after trace
//! files are created" (§2.2).
//!
//! The paper's §5 notes a failure mode: the sampling thread can be
//! descheduled *between* reading the global clock and reading the local
//! clock, producing a pair with a significant one-sided discrepancy that
//! "may be easily filtered out by utilities". [`SamplerConfig::outlier_every`]
//! injects exactly that fault so the filter (see [`crate::filter`]) can be
//! exercised.

use ute_core::time::{Duration, LocalTime, Time};

use crate::drift::LocalClock;
use crate::global::GlobalClock;

/// One global-clock record: a (G, L) timestamp pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// The switch-adapter (global) timestamp.
    pub global: Time,
    /// The node-local timestamp read "at the same instant".
    pub local: LocalTime,
}

impl ClockSample {
    /// Builds a sample.
    pub fn new(global: Time, local: LocalTime) -> ClockSample {
        ClockSample { global, local }
    }

    /// The slope `(G₁ − G₀) / (L₁ − L₀)` from this sample to `later`,
    /// both differences signed: a damaged sample may run backwards.
    pub fn slope_to(&self, later: &ClockSample) -> f64 {
        let dg = later.global.ticks() as i128 - self.global.ticks() as i128;
        let dl = later.local.ticks() as i128 - self.local.ticks() as i128;
        dg as f64 / dl as f64
    }
}

/// Configuration of a node's clock-sampling thread.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Interval between samples.
    pub period: Duration,
    /// If `Some(k)`, every k-th sample (1-based) suffers a deschedule of
    /// `outlier_delay` between the global read and the local read,
    /// reproducing the §5 failure mode.
    pub outlier_every: Option<usize>,
    /// The deschedule length injected into outlier samples.
    pub outlier_delay: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            period: Duration::from_secs(1),
            outlier_every: None,
            outlier_delay: Duration::from_millis(5),
        }
    }
}

/// Samples the pair of clocks over `[start, end]` at the configured period,
/// always including a sample at `start`. This is the offline stand-in for
/// the in-simulator sampling thread (the cluster simulator drives the same
/// reads through its event loop).
pub fn sample_clocks(
    global: &GlobalClock,
    local: &mut LocalClock,
    cfg: &SamplerConfig,
    start: Time,
    end: Time,
) -> Vec<ClockSample> {
    assert!(
        cfg.period > Duration::ZERO,
        "sampling period must be positive"
    );
    let mut out = Vec::new();
    let mut t = start;
    let mut k = 0usize;
    while t <= end {
        k += 1;
        let g = global.read(t);
        let local_read_at = match cfg.outlier_every {
            Some(n) if n > 0 && k.is_multiple_of(n) => t + cfg.outlier_delay,
            _ => t,
        };
        let l = local.read(local_read_at);
        out.push(ClockSample::new(g, l));
        t = local_read_at.max(t) + cfg.period;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::ClockParams;

    #[test]
    fn samples_cover_span_at_period() {
        let g = GlobalClock::ideal();
        let mut l = LocalClock::new(ClockParams::perfect());
        let cfg = SamplerConfig::default();
        let s = sample_clocks(&g, &mut l, &cfg, Time::ZERO, Time::from_secs_f64(10.0));
        assert_eq!(s.len(), 11); // 0..=10 inclusive
        for (i, smp) in s.iter().enumerate() {
            assert_eq!(smp.global.ticks(), i as u64 * 1_000_000_000);
            assert_eq!(smp.local.ticks(), smp.global.ticks());
        }
    }

    #[test]
    fn drifting_clock_diverges_in_samples() {
        let g = GlobalClock::ideal();
        let mut l = LocalClock::new(ClockParams::with_ppm(40.0, 0));
        let cfg = SamplerConfig::default();
        let s = sample_clocks(&g, &mut l, &cfg, Time::ZERO, Time::from_secs_f64(100.0));
        let last = s.last().unwrap();
        let gain = last.local.ticks() as i64 - last.global.ticks() as i64;
        // 40 ppm over 100 s = 4 ms.
        assert!((gain - 4_000_000).abs() < 10_000, "gain {gain}");
    }

    #[test]
    fn outlier_injection_creates_one_sided_lag() {
        let g = GlobalClock::ideal();
        let mut l = LocalClock::new(ClockParams::perfect());
        let cfg = SamplerConfig {
            outlier_every: Some(5),
            outlier_delay: Duration::from_millis(5),
            ..SamplerConfig::default()
        };
        let s = sample_clocks(&g, &mut l, &cfg, Time::ZERO, Time::from_secs_f64(20.0));
        let outliers: Vec<_> = s
            .iter()
            .filter(|smp| smp.local.ticks() as i64 - smp.global.ticks() as i64 > 1_000_000)
            .collect();
        assert!(!outliers.is_empty(), "expected injected outliers");
        for o in outliers {
            // Local read happened 5 ms after the global read.
            assert_eq!(o.local.ticks() - o.global.ticks(), 5_000_000);
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let g = GlobalClock::ideal();
        let mut l = LocalClock::new(ClockParams::perfect());
        let cfg = SamplerConfig {
            period: Duration::ZERO,
            ..SamplerConfig::default()
        };
        sample_clocks(&g, &mut l, &cfg, Time::ZERO, Time(10));
    }
}
