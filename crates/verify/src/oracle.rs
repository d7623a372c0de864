//! Differential oracles: two implementations that must agree.
//!
//! Each oracle runs the same workload through two paths that the design
//! guarantees are equivalent, and reports any divergence as a finding —
//! the conformance counterpart of the paper's Table 1 claim that the
//! parallel utilities change throughput, never bytes.
//!
//! | rule | the two paths | guarantee |
//! |------|---------------|-----------|
//! | `oracle-jobs-determinism` | serial merge vs `--jobs N` | byte-identical output |
//! | `oracle-salvage-subset` | salvage over lossy inputs vs strict over clean | record multiset ⊆ |
//! | `oracle-clock-monotone` | clock-adjusted stream vs its own order | end times non-decreasing |
//! | `oracle-fast-vs-reference` | zero-copy decode vs pre-zero-copy decode; in-place record view vs reference record decoder | identical files, errors, and salvage reports; identical records, and a view for exactly the bodies that decode |

use std::collections::BTreeMap;

use ute_cluster::Simulator;
use ute_convert::{convert_job_pooled, ConvertOptions, ConvertOutput};
use ute_core::ids::NodeId;
use ute_faults::{FaultKind, FaultPlan, SplitMix64};
use ute_format::file::{FramePolicy, IntervalFileReader};
use ute_format::plan::PlanSet;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::state::StateCode;
use ute_merge::{
    adjust_node, merge_files, merge_files_jobs, slogmerge, slogmerge_jobs, MergeOptions,
};
use ute_rawtrace::RawTraceFile;
use ute_slog::builder::BuildOptions;
use ute_workloads::micro;

use crate::finding::{run_rule, ArtifactKind, Finding, Report};
use crate::ivl::view_disagreement;

/// A deterministic corpus for the oracles: a small simulated job's raw
/// traces plus its converted per-node interval files.
struct Corpus {
    profile: Profile,
    raw_files: Vec<ute_rawtrace::file::RawTraceFile>,
    converted: Vec<ConvertOutput>,
}

fn corpus() -> ute_core::error::Result<Corpus> {
    let w = micro::stencil(4, 5, 4 << 10);
    let result = Simulator::new(w.config, &w.job)?.run()?;
    let profile = Profile::standard();
    let copts = ConvertOptions {
        // Small frames so the corpus exercises multi-frame, multi-dir
        // layouts without needing a big workload.
        policy: FramePolicy {
            max_records_per_frame: 64,
            max_frames_per_dir: 4,
        },
        ..ConvertOptions::default()
    };
    let converted = convert_job_pooled(&result.raw_files, &result.threads, &profile, &copts, 1)?;
    Ok(Corpus {
        profile,
        raw_files: result.raw_files,
        converted,
    })
}

/// Serial merge and `--jobs N` merge must produce byte-identical output
/// (interval and SLOG alike), for every job count: the worker pool hands
/// results back in input order whatever order they finished in.
pub fn oracle_jobs_determinism() -> Report {
    let mut report = Report::new("serial vs --jobs", ArtifactKind::Oracle);
    run_rule(&mut report, "oracle-jobs-determinism", |r| {
        let c = match corpus() {
            Ok(c) => c,
            Err(e) => {
                r.findings.push(Finding::error(
                    "oracle-jobs-determinism",
                    format!("corpus generation failed: {e}"),
                ));
                return;
            }
        };
        let refs: Vec<&[u8]> = c
            .converted
            .iter()
            .map(|o| o.interval_file.as_slice())
            .collect();
        let opts = MergeOptions::default();
        let serial = match merge_files(&refs, &c.profile, &opts) {
            Ok(m) => m,
            Err(e) => {
                r.findings.push(Finding::error(
                    "oracle-jobs-determinism",
                    format!("serial merge failed: {e}"),
                ));
                return;
            }
        };
        r.records = serial.stats.records_out;
        for jobs in [2, 3, 8] {
            match merge_files_jobs(&refs, &c.profile, &opts, jobs) {
                Ok(p) if p.merged == serial.merged => {}
                Ok(_) => r.findings.push(Finding::error(
                    "oracle-jobs-determinism",
                    format!("merged bytes differ between jobs=1 and jobs={jobs}"),
                )),
                Err(e) => r.findings.push(Finding::error(
                    "oracle-jobs-determinism",
                    format!("parallel merge failed at jobs={jobs}: {e}"),
                )),
            }
        }
        let build = BuildOptions {
            nframes: 8,
            preview_bins: 16,
            arrows: true,
        };
        let serial_slog = slogmerge(&refs, &c.profile, &opts, build).map(|(s, _)| s.to_bytes());
        let parallel_slog =
            slogmerge_jobs(&refs, &c.profile, &opts, build, 4).map(|(s, _)| s.to_bytes());
        match (serial_slog, parallel_slog) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => r.findings.push(Finding::error(
                "oracle-jobs-determinism",
                "SLOG bytes differ between serial and jobs=4 slogmerge",
            )),
            (Err(e), _) | (_, Err(e)) => r.findings.push(Finding::error(
                "oracle-jobs-determinism",
                format!("slogmerge failed: {e}"),
            )),
        }
    });
    report
}

/// A loss-only fault plan: damage that removes data without rewriting
/// any surviving byte (truncation and missing files), always leaving at
/// least one node intact. Under such a plan salvage output can only
/// *lose* records relative to strict output over the clean inputs —
/// never invent or alter them.
pub fn loss_only_plan(seed: u64, nodes: u16) -> FaultPlan {
    let mut rng = SplitMix64::new(seed);
    let mut faults = Vec::new();
    if nodes >= 2 {
        // Victims are drawn from nodes 1.., so node 0 always survives.
        let truncated = 1 + rng.below(nodes as u64 - 1) as u16;
        faults.push((
            truncated,
            FaultKind::Truncate {
                keep: rng.below(1 << 14),
            },
        ));
        if nodes >= 3 {
            let mut missing = 1 + rng.below(nodes as u64 - 1) as u16;
            if missing == truncated {
                missing = 1 + (missing % (nodes - 1));
            }
            faults.push((missing, FaultKind::Missing));
        }
    }
    FaultPlan { faults }
}

/// Multiset of records in a merged interval file, keyed by debug
/// rendering (stable, total, and cheap). GAP and CLOCK bookkeeping
/// records are excluded: salvage paths may add gap markers, and a lost
/// node takes its clock records with it.
fn record_multiset(
    bytes: &[u8],
    profile: &Profile,
) -> ute_core::error::Result<BTreeMap<String, u64>> {
    let reader = IntervalFileReader::open(bytes, profile)?;
    let mut set = BTreeMap::new();
    for iv in reader.intervals() {
        let iv: Interval = iv?;
        if iv.itype.state == StateCode::GAP || iv.itype.state == StateCode::CLOCK {
            continue;
        }
        *set.entry(format!("{iv:?}")).or_insert(0) += 1;
    }
    Ok(set)
}

/// Under a loss-only fault plan, every record salvage mode recovers must
/// also appear in the strict merge of the undamaged inputs: salvage may
/// drop data, never fabricate it.
pub fn oracle_salvage_subset(seed: u64) -> Report {
    let mut report = Report::new(
        format!("salvage ⊆ strict (seed {seed})"),
        ArtifactKind::Oracle,
    );
    run_rule(&mut report, "oracle-salvage-subset", |r| {
        let c = match corpus() {
            Ok(c) => c,
            Err(e) => {
                r.findings.push(Finding::error(
                    "oracle-salvage-subset",
                    format!("corpus generation failed: {e}"),
                ));
                return;
            }
        };
        // Frame-head pseudo intervals depend on frame boundaries, which
        // shift when inputs are lost; compare the real records only.
        let opts = MergeOptions {
            frame_pseudo_intervals: false,
            ..MergeOptions::default()
        };
        let salvage_opts = MergeOptions {
            salvage: true,
            ..opts.clone()
        };
        let clean_refs: Vec<&[u8]> = c
            .converted
            .iter()
            .map(|o| o.interval_file.as_slice())
            .collect();
        let plan = loss_only_plan(seed, c.converted.len() as u16);
        let damaged: Vec<Vec<u8>> = c
            .converted
            .iter()
            .enumerate()
            .filter_map(|(i, o)| plan.apply_to_file(i as u16, o.interval_file.clone(), 0))
            .collect();
        let damaged_refs: Vec<&[u8]> = damaged.iter().map(|d| d.as_slice()).collect();
        let strict = merge_files(&clean_refs, &c.profile, &opts);
        let salvaged = merge_files(&damaged_refs, &c.profile, &salvage_opts);
        let (strict, salvaged) = match (strict, salvaged) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) => {
                r.findings.push(Finding::error(
                    "oracle-salvage-subset",
                    format!("strict merge of clean inputs failed: {e}"),
                ));
                return;
            }
            (_, Err(e)) => {
                r.findings.push(Finding::error(
                    "oracle-salvage-subset",
                    format!("salvage merge of lossy inputs failed: {e}"),
                ));
                return;
            }
        };
        let strict_set = record_multiset(&strict.merged, &c.profile);
        let salvaged_set = record_multiset(&salvaged.merged, &c.profile);
        let (strict_set, salvaged_set) = match (strict_set, salvaged_set) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                r.findings.push(Finding::error(
                    "oracle-salvage-subset",
                    format!("merged output does not decode: {e}"),
                ));
                return;
            }
        };
        r.records = salvaged_set.values().sum();
        let mut extras = 0u64;
        let mut example = None;
        for (key, &n) in &salvaged_set {
            let in_strict = strict_set.get(key).copied().unwrap_or(0);
            if n > in_strict {
                extras += n - in_strict;
                example.get_or_insert_with(|| key.clone());
            }
        }
        if extras > 0 {
            r.findings.push(Finding::error(
                "oracle-salvage-subset",
                format!(
                    "salvage output has {extras} record(s) absent from strict output \
                     (plan `{plan}`), e.g. {}",
                    example.unwrap_or_default()
                ),
            ));
        }
    });
    report
}

/// Clock adjustment maps each node's end-ordered local stream to global
/// time; the map is affine and increasing, so the adjusted stream must
/// still be end-ordered — the k-way merge depends on it.
pub fn oracle_clock_monotone() -> Report {
    let mut report = Report::new("clock-adjusted order", ArtifactKind::Oracle);
    run_rule(&mut report, "oracle-clock-monotone", |r| {
        let c = match corpus() {
            Ok(c) => c,
            Err(e) => {
                r.findings.push(Finding::error(
                    "oracle-clock-monotone",
                    format!("corpus generation failed: {e}"),
                ));
                return;
            }
        };
        let opts = MergeOptions::default();
        let mut total = 0u64;
        for out in &c.converted {
            let reader = match IntervalFileReader::open(&out.interval_file, &c.profile) {
                Ok(rd) => rd,
                Err(e) => {
                    r.findings.push(Finding::error(
                        "oracle-clock-monotone",
                        format!("node {} does not open: {e}", out.node.raw()),
                    ));
                    continue;
                }
            };
            let mut last = 0u64;
            let mut inversions = 0u64;
            let adjusted = adjust_node(&reader, &c.profile, &opts, |iv| {
                total += 1;
                let end = iv.end();
                if end < last {
                    inversions += 1;
                } else {
                    last = end;
                }
                Ok(())
            });
            if let Err(e) = adjusted {
                r.findings.push(Finding::error(
                    "oracle-clock-monotone",
                    format!("node {} fails clock adjustment: {e}", out.node.raw()),
                ));
            }
            if inversions > 0 {
                r.findings.push(Finding::error(
                    "oracle-clock-monotone",
                    format!(
                        "node {}: {inversions} end-time inversion(s) after clock adjustment",
                        out.node.raw()
                    ),
                ));
            }
        }
        r.records = total;
    });
    report
}

/// Both fast read paths against their references. Raw traces: the
/// zero-copy decode path (`RawTraceFile::from_bytes` /
/// `from_bytes_salvage`, built on validated borrowed views) and the
/// pre-zero-copy reference decoders (`from_bytes_reference` /
/// `from_bytes_salvage_reference`) must be observationally identical: the
/// same decoded file or the same error text on strict decode, and the
/// same recovered events plus the same [`ute_rawtrace::SalvageReport`]
/// in salvage mode. Checked over the corpus's clean raw files and over
/// every byte-level fault-plan mutation of them — including plans that
/// damage the header, where both decoders must fail identically.
/// Interval files: the record view against the reference record decoder,
/// over the corpus's converted and merged files ([`view_vs_reference`]).
pub fn oracle_fast_vs_reference(seed: u64) -> Report {
    let mut report = Report::new(
        format!("fast vs reference decode (seed {seed})"),
        ArtifactKind::Oracle,
    );
    run_rule(&mut report, "oracle-fast-vs-reference", |r| {
        let c = match corpus() {
            Ok(c) => c,
            Err(e) => {
                r.findings.push(Finding::error(
                    "oracle-fast-vs-reference",
                    format!("corpus generation failed: {e}"),
                ));
                return;
            }
        };
        let mut inputs: Vec<(String, Vec<u8>)> = Vec::new();
        for f in &c.raw_files {
            match f.to_bytes() {
                Ok(b) => inputs.push((format!("node {} clean", f.node.raw()), b)),
                Err(e) => {
                    r.findings.push(Finding::error(
                        "oracle-fast-vs-reference",
                        format!("node {} does not serialize: {e}", f.node.raw()),
                    ));
                    return;
                }
            }
        }
        let clean = inputs.clone();
        for plan_seed in seed..seed + 4 {
            let plan = FaultPlan::byte_level_from_seed(plan_seed, clean.len() as u16);
            for (node, (label, bytes)) in clean.iter().enumerate() {
                // protect == 0: header damage is in scope — the two
                // decoders must reject it with the same error.
                if let Some(damaged) = plan.apply_to_file(node as u16, bytes.clone(), 0) {
                    if damaged != *bytes {
                        inputs.push((format!("{label} + plan `{plan}`"), damaged));
                    }
                }
            }
        }
        for (label, bytes) in &inputs {
            match (
                RawTraceFile::from_bytes(bytes),
                RawTraceFile::from_bytes_reference(bytes),
            ) {
                (Ok(fast), Ok(reference)) => {
                    if fast == reference {
                        r.records += fast.events.len() as u64;
                    } else {
                        r.findings.push(Finding::error(
                            "oracle-fast-vs-reference",
                            format!("strict decode of {label}: fast and reference files differ"),
                        ));
                    }
                }
                (Err(fast), Err(reference)) => {
                    if fast.to_string() != reference.to_string() {
                        r.findings.push(Finding::error(
                            "oracle-fast-vs-reference",
                            format!(
                                "strict decode of {label}: fast error `{fast}` vs \
                                 reference error `{reference}`"
                            ),
                        ));
                    }
                }
                (fast, reference) => r.findings.push(Finding::error(
                    "oracle-fast-vs-reference",
                    format!(
                        "strict decode of {label}: fast {} but reference {}",
                        if fast.is_ok() { "accepts" } else { "rejects" },
                        if reference.is_ok() {
                            "accepts"
                        } else {
                            "rejects"
                        },
                    ),
                )),
            }
            match (
                RawTraceFile::from_bytes_salvage(bytes),
                RawTraceFile::from_bytes_salvage_reference(bytes),
            ) {
                (Ok((fast, fast_rep)), Ok((reference, ref_rep))) => {
                    if fast != reference {
                        r.findings.push(Finding::error(
                            "oracle-fast-vs-reference",
                            format!("salvage of {label}: recovered events differ"),
                        ));
                    }
                    if fast_rep != ref_rep {
                        r.findings.push(Finding::error(
                            "oracle-fast-vs-reference",
                            format!(
                                "salvage of {label}: reports differ \
                                 (fast {fast_rep:?} vs reference {ref_rep:?})"
                            ),
                        ));
                    }
                }
                (Err(fast), Err(reference)) => {
                    if fast.to_string() != reference.to_string() {
                        r.findings.push(Finding::error(
                            "oracle-fast-vs-reference",
                            format!(
                                "salvage of {label}: fast error `{fast}` vs \
                                 reference error `{reference}`"
                            ),
                        ));
                    }
                }
                (fast, reference) => r.findings.push(Finding::error(
                    "oracle-fast-vs-reference",
                    format!(
                        "salvage of {label}: fast {} but reference {}",
                        if fast.is_ok() { "recovers" } else { "rejects" },
                        if reference.is_ok() {
                            "recovers"
                        } else {
                            "rejects"
                        },
                    ),
                )),
            }
        }
        let mut ivl: Vec<(String, &[u8])> = c
            .converted
            .iter()
            .enumerate()
            .map(|(n, o)| (format!("node {n} intervals"), o.interval_file.as_slice()))
            .collect();
        let refs: Vec<&[u8]> = ivl.iter().map(|(_, b)| *b).collect();
        let merged = merge_files(&refs, &c.profile, &MergeOptions::default());
        match &merged {
            Ok(m) => ivl.push(("merged intervals".into(), &m.merged)),
            Err(e) => r.findings.push(Finding::error(
                "oracle-fast-vs-reference",
                format!("corpus does not merge: {e}"),
            )),
        }
        for (label, bytes) in ivl {
            view_vs_reference(r, &label, bytes, &c.profile, seed);
        }
    });
    report
}

/// The interval-file half of [`oracle_fast_vs_reference`]: over every
/// record body of `bytes`, and over seeded mutants of each (bit flips,
/// truncation, a trailing byte, a planted counter), the in-place view
/// the readers use must exist exactly when the reference decoder accepts
/// the body, and must read the same record.
fn view_vs_reference(r: &mut Report, label: &str, bytes: &[u8], profile: &Profile, seed: u64) {
    let reader = match IntervalFileReader::open(bytes, profile) {
        Ok(reader) => reader,
        Err(e) => {
            r.findings.push(Finding::error(
                "oracle-fast-vs-reference",
                format!("{label} does not open: {e}"),
            ));
            return;
        }
    };
    let plans = PlanSet::build(profile, reader.mask);
    let mut rng = SplitMix64::new(seed);
    for (i, body) in reader.record_bodies().enumerate() {
        let Ok(body) = body else {
            r.findings.push(Finding::error(
                "oracle-fast-vs-reference",
                format!("{label}: record {i} is unreadable"),
            ));
            return;
        };
        let mut mutants = vec![body.to_vec()];
        for _ in 0..4 {
            let mut m = body.to_vec();
            let at = rng.below(m.len() as u64) as usize;
            match rng.below(4) {
                0 => m[at] ^= 1 << rng.below(8),
                1 => m.truncate(at),
                2 => m.push(rng.next_u64() as u8),
                _ => m[at] = u8::MAX,
            }
            mutants.push(m);
        }
        for m in &mutants {
            let reference = Interval::decode_body(profile, reader.mask, m, NodeId(0));
            if let Some(why) = view_disagreement(&plans, m, &reference, true) {
                r.findings.push(Finding::error(
                    "oracle-fast-vs-reference",
                    format!("{label}: record {i} as {m:02x?}: {why}"),
                ));
                return;
            }
        }
        r.records += 1;
    }
}

/// Runs every differential oracle; `seed` varies the loss plan of the
/// salvage-subset oracle and the corruption plans of the decode oracle.
pub fn run_all_oracles(seed: u64) -> Vec<Report> {
    vec![
        oracle_jobs_determinism(),
        oracle_salvage_subset(seed),
        oracle_clock_monotone(),
        oracle_fast_vs_reference(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_oracles_pass() {
        for report in run_all_oracles(7) {
            assert!(report.passed(), "{}", report.render());
            assert!(
                report.records > 0,
                "{} examined no records",
                report.artifact
            );
        }
    }

    #[test]
    fn salvage_subset_holds_across_seeds() {
        for seed in [1u64, 2, 3] {
            let r = oracle_salvage_subset(seed);
            assert!(r.passed(), "{}", r.render());
        }
    }

    #[test]
    fn fast_vs_reference_holds_across_seeds() {
        for seed in [1u64, 11, 29] {
            let r = oracle_fast_vs_reference(seed);
            assert!(r.passed(), "{}", r.render());
            assert!(r.records > 0, "decode oracle examined no records");
        }
    }

    #[test]
    fn loss_only_plans_never_rewrite_bytes() {
        for seed in 0..20u64 {
            let plan = loss_only_plan(seed, 4);
            assert!(plan
                .faults
                .iter()
                .all(|(_, k)| matches!(k, FaultKind::Truncate { .. } | FaultKind::Missing)));
            // Node 0 always survives.
            assert!(plan.faults.iter().all(|(n, _)| *n != 0));
        }
    }
}
