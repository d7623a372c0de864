//! Ablation: the §2.2 design choices for clock-ratio estimation.
//!
//! Compares the paper's RMS-of-slope-segments against the RMS-of-all-
//! slopes variant it rejects ("gives too much weight on the first point"),
//! the last-pair slope, and the piecewise per-segment fit — on three clock
//! scenarios: constant drift, drift with §5 deschedule outliers (with and
//! without filtering), and temperature-varying drift.
//!
//! Run: `cargo run -p ute-bench --bin ablation_clock`

use ute_clock::drift::{ClockParams, LocalClock};
use ute_clock::filter::filter_outliers_default;
use ute_clock::global::GlobalClock;
use ute_clock::ratio::{ClockFit, PiecewiseFit, RatioEstimator};
use ute_clock::sample::{sample_clocks, ClockSample, SamplerConfig};
use ute_core::time::{Duration, LocalTime, Time};

/// Mean absolute adjustment error (ns) of a fit's `adjust` over probe
/// points with known ground truth (true time t ↔ exact local reading).
fn mean_error(adjust: impl Fn(LocalTime) -> Time, truth: &[(Time, LocalTime)]) -> f64 {
    let total: f64 = (truth.iter())
        .map(|(g, l)| (adjust(*l).ticks() as i64 - g.ticks() as i64).abs() as f64)
        .sum();
    total / truth.len() as f64
}

fn scenario(
    name: &str,
    params: ClockParams,
    outliers: Option<usize>,
) -> (Vec<ClockSample>, Vec<(Time, LocalTime)>) {
    let global = GlobalClock::ideal();
    let mut clock = LocalClock::new(params.clone());
    let cfg = SamplerConfig {
        period: Duration::from_secs(1),
        outlier_every: outliers,
        outlier_delay: Duration::from_millis(3),
    };
    let samples = sample_clocks(
        &global,
        &mut clock,
        &cfg,
        Time::ZERO,
        Time::from_secs_f64(140.0),
    );
    // Ground truth from a fresh identical clock read off-schedule.
    let mut probe_clock = LocalClock::new(params);
    let truth: Vec<(Time, LocalTime)> = (0..280)
        .map(|i| {
            let t = Time(i * 500_000_000 + 250_000_000);
            (t, probe_clock.read(t))
        })
        .collect();
    println!("\n== scenario: {name} ({} samples) ==", samples.len());
    (samples, truth)
}

fn report(samples: &[ClockSample], truth: &[(Time, LocalTime)]) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for (name, est) in [
        ("rms-segments (paper)", RatioEstimator::RmsSegments),
        ("rms-all-slopes", RatioEstimator::RmsAllSlopes),
        ("last-pair", RatioEstimator::LastPair),
    ] {
        let fit = ClockFit::fit(samples, est).unwrap();
        let err = mean_error(|l| fit.adjust(l), truth);
        println!("  {name:<24} mean |error| = {err:>10.1} ns");
        rows.push((name.to_string(), err));
    }
    let pw = PiecewiseFit::fit(samples).unwrap();
    let err = mean_error(|l| pw.adjust(l), truth);
    println!("  {:<24} mean |error| = {err:>10.1} ns", "piecewise");
    rows.push(("piecewise".to_string(), err));
    rows
}

fn main() {
    println!("# Ablation — clock-ratio estimators (§2.2)");

    // 1. Constant drift: everything should basically tie.
    let (samples, truth) = scenario(
        "constant +25 ppm drift",
        ClockParams::with_ppm(25.0, 500),
        None,
    );
    let rows = report(&samples, &truth);
    assert!(
        rows.iter().all(|(_, e)| *e < 2_000.0),
        "constant case should be easy"
    );

    // 2. Deschedule outliers, unfiltered then filtered.
    let (samples, truth) = scenario(
        "+25 ppm with deschedule outliers every 20th sample",
        ClockParams::with_ppm(25.0, 500),
        Some(20),
    );
    let dirty = report(&samples, &truth);
    println!("  -- after outlier filtering --");
    let filtered = filter_outliers_default(&samples);
    println!("  (kept {}/{} samples)", filtered.len(), samples.len());
    let clean = report(&filtered, &truth);
    let dirty_seg = dirty[0].1;
    let clean_seg = clean[0].1;
    assert!(
        clean_seg < dirty_seg,
        "filtering should improve the paper estimator: {dirty_seg} -> {clean_seg}"
    );

    // 3. Temperature-varying drift: piecewise should win.
    let (samples, truth) = scenario(
        "temperature-wandering drift (±2 ppm walk)",
        ClockParams {
            offset_ticks: 0,
            freq_error_ppm: 10.0,
            temp_walk_ppm: 0.4,
            temp_bound_ppm: 2.0,
            read_quantum_ticks: 1,
            seed: 99,
        },
        None,
    );
    let rows = report(&samples, &truth);
    let (seg, pw) = (rows[0].1, rows[3].1);
    assert!(
        pw <= seg,
        "piecewise should track a wandering clock at least as well: seg {seg}, pw {pw}"
    );
    println!(
        "\n# OK: paper estimator robust; filtering heals §5 outliers; piecewise wins on wandering clocks"
    );
}
