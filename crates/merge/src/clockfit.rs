//! Per-node clock fitting from the CLOCK records embedded in interval
//! files.
//!
//! The convert utility carries every global-clock record through as a
//! zero-duration `CLOCK` interval whose `start` is the local timestamp
//! and whose `globalTime` field is the paired global timestamp. This
//! module extracts those pairs, optionally filters the §5 deschedule
//! outliers, and fits the node's [`ClockFit`].

use ute_clock::filter::filter_outliers_default;
use ute_clock::ratio::{ClockFit, PiecewiseFit, RatioEstimator};
use ute_clock::sample::ClockSample;
use ute_core::error::{Result, UteError};
use ute_core::time::{LocalTime, Time};
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_format::state::StateCode;
use ute_format::RecordFields;

/// A node's fitted clock mapping: a single global ratio, or (§2.2's
/// alternative) one ratio per slope segment.
#[derive(Debug, Clone)]
pub enum FitKind {
    /// One linear mapping for the whole trace.
    Linear(ClockFit),
    /// Per-segment ratios: "this approach effectively partitions the
    /// total elapsed time into n segments, each of which has its own
    /// global to local clock ratio".
    Piecewise(PiecewiseFit),
}

impl FitKind {
    /// Maps a local timestamp to the global axis.
    pub fn adjust(&self, local: LocalTime) -> Time {
        match self {
            FitKind::Linear(f) => f.adjust(local),
            FitKind::Piecewise(f) => f.adjust(local),
        }
    }

    /// The effective single ratio, for reporting (piecewise reports the
    /// mean of its segment ratios).
    pub fn ratio(&self) -> f64 {
        match self {
            FitKind::Linear(f) => f.ratio,
            FitKind::Piecewise(f) => f.mean_ratio(),
        }
    }
}

/// A node's fitted clock mapping.
#[derive(Debug, Clone)]
pub struct NodeFit {
    /// The node this fit belongs to.
    pub node: u16,
    /// The local→global mapping.
    pub fit: FitKind,
    /// How many clock samples survived filtering.
    pub samples_used: usize,
    /// Largest |adjusted − true global| over the samples the fit was
    /// computed from, in ticks (the fit's worst-case residual).
    pub max_residual: u64,
}

/// The (G, L) pair carried by a CLOCK record, or `None` for any other
/// record. One extraction path for readers and in-memory streams.
fn clock_sample(
    iv: &ute_format::record::Interval,
    profile: &Profile,
) -> Result<Option<ClockSample>> {
    if iv.itype.state != StateCode::CLOCK {
        return Ok(None);
    }
    let g = iv
        .extra(profile, "globalTime")
        .and_then(|v| v.as_uint())
        .ok_or_else(|| UteError::corrupt("CLOCK record without globalTime"))?;
    Ok(Some(ClockSample::new(Time(g), LocalTime(iv.start))))
}

/// Pulls the (G, L) pairs out of a per-node interval file.
///
/// Every record is validated — a damaged body anywhere in the file fails
/// the fit as it always has — but only the one-in-thousands CLOCK record
/// is materialised; the rest are recognised by their type word.
pub fn extract_clock_samples(
    reader: &IntervalFileReader<'_>,
    profile: &Profile,
) -> Result<Vec<ClockSample>> {
    let mut out = Vec::new();
    for rec in reader.records() {
        let rec = rec?;
        if rec.itype().state == StateCode::CLOCK {
            out.extend(clock_sample(&rec.into_interval(), profile)?);
        }
    }
    Ok(out)
}

/// [`extract_clock_samples`] over already-decoded intervals.
pub fn clock_samples_of(
    intervals: &[ute_format::record::Interval],
    profile: &Profile,
) -> Result<Vec<ClockSample>> {
    let mut out = Vec::new();
    for iv in intervals {
        if let Some(s) = clock_sample(iv, profile)? {
            out.push(s);
        }
    }
    Ok(out)
}

/// Fits one node's clock from its interval file's clock records.
///
/// With fewer than two usable samples the identity mapping anchored at
/// the first sample (or zero) is used — there is nothing to estimate.
pub fn fit_node(
    reader: &IntervalFileReader<'_>,
    profile: &Profile,
    estimator: RatioEstimator,
    filter: bool,
) -> Result<NodeFit> {
    fit_from_samples(
        reader.node,
        extract_clock_samples(reader, profile)?,
        estimator,
        filter,
    )
}

/// [`fit_node`] over already-decoded intervals: the reference the
/// in-place clock fit is tested against.
pub fn fit_node_intervals(
    node: u16,
    intervals: &[ute_format::record::Interval],
    profile: &Profile,
    estimator: RatioEstimator,
    filter: bool,
) -> Result<NodeFit> {
    fit_from_samples(
        node,
        clock_samples_of(intervals, profile)?,
        estimator,
        filter,
    )
}

fn fit_from_samples(
    node: u16,
    raw: Vec<ClockSample>,
    estimator: RatioEstimator,
    filter: bool,
) -> Result<NodeFit> {
    let samples = if filter {
        filter_outliers_default(&raw)
    } else {
        raw
    };
    let fit = if samples.len() >= 2 {
        match estimator {
            RatioEstimator::Piecewise => PiecewiseFit::fit(&samples).map(FitKind::Piecewise),
            other => ClockFit::fit(&samples, other).map(FitKind::Linear),
        }
        .map_err(|e| match e {
            UteError::Corrupt { what, offset } => UteError::Corrupt {
                what: format!("node {node} {what}"),
                offset,
            },
            e => e,
        })?
    } else {
        let anchor = samples
            .first()
            .copied()
            .unwrap_or(ClockSample::new(Time::ZERO, LocalTime::ZERO));
        FitKind::Linear(ClockFit {
            origin_global: anchor.global,
            origin_local: anchor.local,
            ratio: 1.0,
        })
    };
    let max_residual = samples
        .iter()
        .map(|s| s.global.ticks().abs_diff(fit.adjust(s.local).ticks()))
        .max()
        .unwrap_or(0);
    Ok(NodeFit {
        node,
        fit,
        samples_used: samples.len(),
        max_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
    use ute_format::file::{FramePolicy, IntervalFileWriter};
    use ute_format::profile::MASK_PER_NODE;
    use ute_format::record::{Interval, IntervalType};
    use ute_format::thread_table::ThreadTable;
    use ute_format::value::Value;

    fn clock_file(profile: &Profile, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut w = IntervalFileWriter::new(
            profile,
            MASK_PER_NODE,
            3,
            &ThreadTable::new(),
            &[],
            FramePolicy::default(),
        );
        for &(g, l) in pairs {
            let iv = Interval::basic(
                IntervalType::complete(StateCode::CLOCK),
                l,
                0,
                CpuId(0),
                NodeId(3),
                LogicalThreadId(0),
            )
            .with_extra(profile, "globalTime", Value::Uint(g));
            w.push(&iv).unwrap();
        }
        w.finish()
    }

    #[test]
    fn extract_and_fit() {
        let p = Profile::standard();
        // Local clock runs at half speed, offset 100: L = (G-100)/2 + 50.
        let pairs: Vec<(u64, u64)> = (0..10)
            .map(|i| {
                let g = 100 + i * 1_000_000;
                (g, 50 + (g - 100) / 2)
            })
            .collect();
        let bytes = clock_file(&p, &pairs);
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let samples = extract_clock_samples(&r, &p).unwrap();
        assert_eq!(samples.len(), 10);
        let nf = fit_node(&r, &p, RatioEstimator::RmsSegments, true).unwrap();
        assert_eq!(nf.node, 3);
        assert!(
            (nf.fit.ratio() - 2.0).abs() < 1e-9,
            "ratio {}",
            nf.fit.ratio()
        );
        // Adjusting a local timestamp recovers its global time.
        let adj = nf.fit.adjust(LocalTime(50 + 2_000_000 / 2));
        assert_eq!(adj.ticks(), 100 + 2_000_000);
    }

    #[test]
    fn single_sample_falls_back_to_identity_ratio() {
        let p = Profile::standard();
        let bytes = clock_file(&p, &[(500, 80)]);
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let nf = fit_node(&r, &p, RatioEstimator::RmsSegments, true).unwrap();
        assert_eq!(nf.fit.ratio(), 1.0);
        assert_eq!(nf.fit.adjust(LocalTime(90)).ticks(), 510);
    }

    #[test]
    fn no_samples_identity_at_zero() {
        let p = Profile::standard();
        let bytes = clock_file(&p, &[]);
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let nf = fit_node(&r, &p, RatioEstimator::RmsSegments, false).unwrap();
        assert_eq!(nf.samples_used, 0);
        assert_eq!(nf.fit.adjust(LocalTime(42)).ticks(), 42);
    }

    #[test]
    fn outlier_filtering_improves_fit() {
        let p = Profile::standard();
        let mut pairs: Vec<(u64, u64)> = (0..60u64)
            .map(|i| (i * 1_000_000_000, i * 1_000_000_000))
            .collect();
        pairs[30].1 += 4_000_000; // 4 ms deschedule outlier
        let bytes = clock_file(&p, &pairs);
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let dirty = fit_node(&r, &p, RatioEstimator::RmsSegments, false).unwrap();
        let clean = fit_node(&r, &p, RatioEstimator::RmsSegments, true).unwrap();
        assert_eq!(clean.samples_used, 59);
        assert!((clean.fit.ratio() - 1.0).abs() < (dirty.fit.ratio() - 1.0).abs());
    }
}

#[cfg(test)]
mod piecewise_tests {
    use super::*;
    use crate::clockfit::tests_support::clock_file_with;
    use ute_format::file::IntervalFileReader;

    #[test]
    fn piecewise_estimator_yields_piecewise_fit() {
        let p = Profile::standard();
        // Rate steps from 2.0 to 0.5 halfway through.
        let pairs: Vec<(u64, u64)> = (0..20u64)
            .map(|i| {
                let g = i * 1_000_000;
                let l = if i < 10 {
                    g / 2
                } else {
                    10 * 500_000 + (g - 10 * 1_000_000) * 2
                };
                (g, l)
            })
            .collect();
        let bytes = clock_file_with(&p, &pairs);
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let nf = fit_node(&r, &p, RatioEstimator::Piecewise, false).unwrap();
        assert!(matches!(nf.fit, FitKind::Piecewise(_)));
        // Anchor points map exactly under the piecewise fit …
        for &(g, l) in &pairs {
            assert_eq!(nf.fit.adjust(LocalTime(l)).ticks(), g);
        }
        // … while the single-ratio fit is visibly wrong mid-segment.
        let lin = fit_node(&r, &p, RatioEstimator::RmsSegments, false).unwrap();
        let probe = pairs[5];
        let pw_err = (nf.fit.adjust(LocalTime(probe.1)).ticks() as i64 - probe.0 as i64).abs();
        let lin_err = (lin.fit.adjust(LocalTime(probe.1)).ticks() as i64 - probe.0 as i64).abs();
        assert!(pw_err <= 1);
        assert!(lin_err > 1_000, "linear error only {lin_err}");
        // The reported ratio is the mean of ten segments at 2.0 (local at
        // half speed) and nine at 0.5.
        assert!(
            (nf.fit.ratio() - 24.5 / 19.0).abs() < 1e-12,
            "{}",
            nf.fit.ratio()
        );
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
    use ute_format::file::{FramePolicy, IntervalFileWriter};
    use ute_format::profile::MASK_PER_NODE;
    use ute_format::record::{Interval, IntervalType};
    use ute_format::thread_table::ThreadTable;
    use ute_format::value::Value;

    /// Builds a per-node interval file holding only CLOCK records.
    pub(crate) fn clock_file_with(profile: &Profile, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut w = IntervalFileWriter::new(
            profile,
            MASK_PER_NODE,
            3,
            &ThreadTable::new(),
            &[],
            FramePolicy::default(),
        );
        for &(g, l) in pairs {
            let iv = Interval::basic(
                IntervalType::complete(StateCode::CLOCK),
                l,
                0,
                CpuId(0),
                NodeId(3),
                LogicalThreadId(0),
            )
            .with_extra(profile, "globalTime", Value::Uint(g));
            w.push(&iv).unwrap();
        }
        w.finish()
    }
}
