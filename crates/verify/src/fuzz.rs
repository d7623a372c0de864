//! Structure-aware decoder fuzzer (`ute fuzz`).
//!
//! Starts from small *valid* artifacts of each kind (raw trace, interval
//! file, SLOG) and applies seeded structure-aware mutations — bit flips,
//! truncations, splices, span duplications, and planted extreme integers
//! at header/length/offset positions — then drives every decoder the
//! toolchain has (strict, salvage, and the `ute check` rule suites) over
//! each mutant. The contract under test: decoders must *reject* damage
//! with a typed error or a structured finding, never panic, and never
//! allocate unboundedly (the smoke test bounds peak live allocation).
//!
//! Everything is a pure function of the seed: a failing seed reproduces
//! the same mutant bytes on any machine.

use ute_core::bebits::BeBits;
use ute_core::event::{EventCode, MpiOp};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
use ute_core::time::{LocalTime, Time};
use ute_faults::SplitMix64;
use ute_format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
use ute_format::plan::PlanSet;
use ute_format::profile::{Profile, MASK_PER_NODE};
use ute_format::record::{Interval, IntervalType};
use ute_format::state::StateCode;
use ute_format::thread_table::{ThreadEntry, ThreadTable};
use ute_format::value::Value;
use ute_rawtrace::file::RawTraceFile;
use ute_rawtrace::record::{ClockPayload, DispatchPayload, MpiPayload, RawEvent};
use ute_slog::builder::{BuildOptions, SlogBuilder};
use ute_slog::file::SlogFile;

use crate::finding::ArtifactKind;
use crate::ivl::{check_interval_bytes, view_disagreement, IvlCheckOptions};
use crate::raw::check_raw_bytes;
use crate::slog::check_slog_bytes;

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// PRNG seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Mutants to generate and drive.
    pub iters: u64,
    /// Suppress panic backtrace output for the duration of the run
    /// (single-threaded drivers only — the hook is process-global).
    pub quiet: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            iters: 256,
            quiet: false,
        }
    }
}

/// What a fuzz run observed.
#[derive(Debug, Clone, Default)]
pub struct FuzzStats {
    /// Mutants driven.
    pub iterations: u64,
    /// Mutants on which some decoder panicked (the failure mode the
    /// fuzzer exists to catch). Includes panics the check engine's
    /// backstop converted into `no-panic` findings.
    pub panics: u64,
    /// Reproduction info for the first panic seen.
    pub first_panic: Option<String>,
    /// Interval mutants holding a record body on which the in-place view
    /// and the reference decoder disagree (one accepts what the other
    /// rejects, or they read different fields).
    pub disagreements: u64,
    /// Mutants every decoder still accepted with zero error findings
    /// (mutation landed somewhere harmless).
    pub clean: u64,
    /// Mutants rejected with a typed error or error finding.
    pub rejected: u64,
}

impl FuzzStats {
    /// Whether the run met the fuzzer's contract.
    pub fn passed(&self) -> bool {
        self.panics == 0 && self.disagreements == 0
    }

    /// One-line summary.
    pub fn render(&self) -> String {
        format!(
            "{} mutants: {} rejected cleanly, {} still valid, {} panic(s){}{}",
            self.iterations,
            self.rejected,
            self.clean,
            self.panics,
            match &self.first_panic {
                Some(p) => format!(" — first: {p}"),
                None => String::new(),
            },
            match self.disagreements {
                0 => String::new(),
                n => format!(", {n} view/decoder disagreement(s)"),
            }
        )
    }
}

/// One base artifact the mutator starts from.
struct Seed {
    kind: ArtifactKind,
    bytes: Vec<u8>,
}

fn corpus_threads() -> ThreadTable {
    let mut t = ThreadTable::new();
    for logical in 0..2u16 {
        t.register(ThreadEntry {
            task: TaskId(0),
            pid: Pid(100),
            system_tid: SystemThreadId(1000 + logical as u64),
            node: NodeId(1),
            logical: LogicalThreadId(logical),
            ttype: if logical == 0 {
                ThreadType::Mpi
            } else {
                ThreadType::User
            },
        })
        .expect("corpus thread table is consistent");
    }
    t
}

/// A small valid interval file: nested piece chains over two threads,
/// records with scalar extras, a vector field and a marker id, clock
/// records, multiple frames and directories ([`FramePolicy::tiny`]).
fn corpus_interval(profile: &Profile) -> Vec<u8> {
    let threads = corpus_threads();
    let mut w = IntervalFileWriter::new(
        profile,
        MASK_PER_NODE,
        1,
        &threads,
        &[(1, "Phase".to_string())],
        FramePolicy::tiny(),
    );
    let mut ivs = Vec::new();
    for i in 0..24u64 {
        let t0 = i * 100;
        ivs.push(Interval::basic(
            IntervalType::complete(StateCode::SYSCALL),
            t0 + 10,
            30,
            CpuId(0),
            NodeId(1),
            LogicalThreadId((i % 2) as u16),
        ));
        ivs.push(Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            t0,
            100,
            CpuId(0),
            NodeId(1),
            LogicalThreadId((i % 2) as u16),
        ));
        let inside = |state: StateCode, start: u64, dur: u64| {
            Interval::basic(
                IntervalType::complete(state),
                start,
                dur,
                CpuId(0),
                NodeId(1),
                LogicalThreadId((i % 2) as u16),
            )
        };
        ivs.push(
            inside(StateCode::mpi(MpiOp::Send), t0 + 45, 10)
                .with_extra(profile, "rank", Value::Uint(i % 2))
                .with_extra(profile, "peer", Value::Uint(1 - i % 2))
                .with_extra(profile, "tag", Value::Uint(7))
                .with_extra(profile, "msgSizeSent", Value::Uint(1 << i))
                .with_extra(profile, "seq", Value::Uint(i + 1))
                .with_extra(profile, "address", Value::Uint(0x1000 + i)),
        );
        ivs.push(
            inside(StateCode::mpi(MpiOp::Waitall), t0 + 60, 10)
                .with_extra(profile, "rank", Value::Uint(i % 2))
                .with_extra(
                    profile,
                    "reqSeqs",
                    Value::UintVec((0..i % 5).collect::<Vec<u64>>().into()),
                )
                .with_extra(profile, "address", Value::Uint(0)),
        );
        ivs.push(
            inside(StateCode::MARKER, t0 + 75, 20)
                .with_extra(profile, "markerId", Value::Uint(1))
                .with_extra(profile, "address", Value::Uint(0x2000))
                .with_extra(profile, "addressEnd", Value::Uint(0x2040)),
        );
        ivs.push(inside(StateCode::CLOCK, t0, 0).with_extra(
            profile,
            "globalTime",
            Value::Uint(5000 + t0),
        ));
    }
    ivs.sort_by_key(|iv| iv.end());
    for iv in &ivs {
        w.push(iv).expect("corpus intervals are end-ordered");
    }
    w.finish()
}

/// A small valid raw trace: clock samples, dispatches, MPI begin/end.
fn corpus_raw() -> Vec<u8> {
    let mut events = Vec::new();
    let mut t = 0u64;
    events.push(RawEvent::new(
        EventCode::GlobalClock,
        LocalTime(t),
        ClockPayload { global: Time(5000) }.to_bytes(),
    ));
    for i in 0..20u64 {
        t += 50;
        events.push(RawEvent::new(
            EventCode::ThreadDispatch,
            LocalTime(t),
            DispatchPayload {
                thread: LogicalThreadId((i % 2) as u16),
                cpu: CpuId(0),
            }
            .to_bytes(),
        ));
        t += 10;
        events.push(RawEvent::new(
            EventCode::MpiBegin(MpiOp::Send),
            LocalTime(t),
            MpiPayload::bare(LogicalThreadId((i % 2) as u16), 0).to_bytes(),
        ));
        t += 25;
        events.push(RawEvent::new(
            EventCode::MpiEnd(MpiOp::Send),
            LocalTime(t),
            MpiPayload::bare(LogicalThreadId((i % 2) as u16), 0).to_bytes(),
        ));
    }
    RawTraceFile::new(NodeId(1), events)
        .to_bytes()
        .expect("corpus raw trace serializes")
}

/// A small valid SLOG file, built by the real builder from the interval
/// corpus's shape.
fn corpus_slog(profile: &Profile) -> Vec<u8> {
    let threads = corpus_threads();
    let mut ivs = Vec::new();
    for i in 0..16u64 {
        ivs.push(Interval::basic(
            IntervalType {
                state: StateCode::RUNNING,
                bebits: BeBits::Complete,
            },
            i * 100,
            100,
            CpuId(0),
            NodeId(1),
            LogicalThreadId((i % 2) as u16),
        ));
    }
    SlogBuilder::new(
        profile,
        BuildOptions {
            nframes: 4,
            preview_bins: 8,
            arrows: false,
        },
    )
    .build(&ivs, &threads, &[])
    .expect("corpus slog builds")
    .to_bytes()
}

/// Applies one seeded mutation in place; returns a description for
/// reproduction messages.
fn mutate_once(rng: &mut SplitMix64, data: &mut Vec<u8>) -> String {
    if data.is_empty() {
        data.push(rng.next_u64() as u8);
        return "append to empty".into();
    }
    let len = data.len() as u64;
    match rng.below(8) {
        0 => {
            let at = rng.below(len) as usize;
            let bit = rng.below(8) as u8;
            data[at] ^= 1 << bit;
            format!("bitflip@{at}.{bit}")
        }
        1 => {
            let at = rng.below(len) as usize;
            let v = rng.next_u64() as u8;
            data[at] = v;
            format!("byteset@{at}={v}")
        }
        2 => {
            let keep = rng.below(len) as usize;
            data.truncate(keep);
            format!("truncate@{keep}")
        }
        3 => {
            let at = rng.below(len) as usize;
            let span = (1 + rng.below(64)) as usize;
            let end = (at + span).min(data.len());
            data.drain(at..end);
            format!("splice@{at}+{span}")
        }
        4 => {
            let at = rng.below(len) as usize;
            let span = (1 + rng.below(64)) as usize;
            let end = (at + span).min(data.len());
            let copy: Vec<u8> = data[at..end].to_vec();
            let dst = rng.below(data.len() as u64 + 1) as usize;
            data.splice(dst..dst, copy);
            format!("dup@{at}+{span}->{dst}")
        }
        5 => {
            let at = rng.below(len) as usize;
            let span = (1 + rng.below(64)) as usize;
            let end = (at + span).min(data.len());
            data[at..end].fill(0);
            format!("zero@{at}+{span}")
        }
        6 => {
            // Structure-aware: plant an extreme integer where a count,
            // length, or offset field might live.
            let extremes = [
                0u64,
                1,
                u64::from(u16::MAX),
                u64::from(u32::MAX),
                u64::MAX,
                len,
                len.wrapping_sub(1),
                len.wrapping_add(1),
            ];
            let v = extremes[rng.below(extremes.len() as u64) as usize];
            let width = [2usize, 4, 8][rng.below(3) as usize];
            let at = rng.below(len.saturating_sub(width as u64).max(1)) as usize;
            let bytes = v.to_le_bytes();
            let end = (at + width).min(data.len());
            data[at..end].copy_from_slice(&bytes[..end - at]);
            format!("plant@{at}w{width}={v}")
        }
        _ => {
            // Structure-aware: smash the header region, where magic,
            // versions, masks, and table counts live.
            let at = rng.below(64.min(len)) as usize;
            let v = rng.next_u64() as u8;
            data[at] = v;
            format!("header@{at}={v}")
        }
    }
}

/// Whether some record body the mutant still lets a reader reach is one
/// the in-place view and the reference decoder disagree on. `profile` is
/// the standard one, whose every record type has a view, so the two must
/// accept exactly the same bodies.
fn views_disagree(bytes: &[u8], profile: &Profile) -> bool {
    let Ok(reader) = IntervalFileReader::open(bytes, profile) else {
        return false;
    };
    let plans = PlanSet::build(profile, reader.mask);
    reader
        .record_bodies()
        .map_while(|body| body.ok())
        .any(|body| {
            let reference = Interval::decode_body(profile, reader.mask, body, NodeId(0));
            view_disagreement(&plans, body, &reference, true).is_some()
        })
}

/// Drives every decoder for `kind` over the mutant. Returns
/// `(panicked, accepted)` — `accepted` meaning zero error findings.
fn drive(kind: ArtifactKind, bytes: &[u8], profile: &Profile) -> (bool, bool) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
        ArtifactKind::Raw => {
            let _ = RawTraceFile::from_bytes(bytes);
            let _ = RawTraceFile::from_bytes_salvage(bytes);
            check_raw_bytes("fuzz", bytes)
        }
        ArtifactKind::Interval => {
            check_interval_bytes("fuzz", bytes, profile, IvlCheckOptions::default())
        }
        ArtifactKind::Slog => {
            let _ = SlogFile::from_bytes(bytes);
            check_slog_bytes("fuzz", bytes)
        }
        ArtifactKind::Oracle => unreachable!("oracles are not fuzz targets"),
    }));
    match outcome {
        Ok(report) => {
            // A panic the engine's backstop converted is still a panic.
            let backstopped = report.findings.iter().any(|f| f.rule == "no-panic");
            (backstopped, report.passed())
        }
        Err(_) => (true, false),
    }
}

/// Runs the fuzzer. Deterministic in `opts.seed`.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzStats {
    let saved_hook = if opts.quiet {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Some(hook)
    } else {
        None
    };
    let profile = Profile::standard();
    let seeds = [
        Seed {
            kind: ArtifactKind::Interval,
            bytes: corpus_interval(&profile),
        },
        Seed {
            kind: ArtifactKind::Raw,
            bytes: corpus_raw(),
        },
        Seed {
            kind: ArtifactKind::Slog,
            bytes: corpus_slog(&profile),
        },
    ];
    let mut rng = SplitMix64::new(opts.seed);
    let mut stats = FuzzStats::default();
    for i in 0..opts.iters {
        let seed = &seeds[rng.below(seeds.len() as u64) as usize];
        let mut mutant = seed.bytes.clone();
        let nmut = 1 + rng.below(3);
        let mut desc = Vec::with_capacity(nmut as usize);
        for _ in 0..nmut {
            desc.push(mutate_once(&mut rng, &mut mutant));
        }
        let (panicked, accepted) = drive(seed.kind, &mutant, &profile);
        stats.iterations += 1;
        if seed.kind == ArtifactKind::Interval && !panicked && views_disagree(&mutant, &profile) {
            stats.disagreements += 1;
        }
        if panicked {
            stats.panics += 1;
            if stats.first_panic.is_none() {
                stats.first_panic = Some(format!(
                    "iter {i} (seed {}): {} artifact, mutations [{}]",
                    opts.seed,
                    seed.kind,
                    desc.join(", ")
                ));
            }
        } else if accepted {
            stats.clean += 1;
        } else {
            stats.rejected += 1;
        }
    }
    if let Some(hook) = saved_hook {
        std::panic::set_hook(hook);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_artifacts_are_valid() {
        let p = Profile::standard();
        let r = check_interval_bytes("c", &corpus_interval(&p), &p, IvlCheckOptions::default());
        assert!(r.passed(), "{}", r.render());
        let r = check_raw_bytes("c", &corpus_raw());
        assert!(r.passed(), "{}", r.render());
        let r = check_slog_bytes("c", &corpus_slog(&p));
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn fuzz_is_deterministic() {
        let opts = FuzzOptions {
            seed: 42,
            iters: 64,
            quiet: false,
        };
        let a = run_fuzz(&opts);
        let b = run_fuzz(&opts);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.panics, b.panics);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn short_run_finds_no_panics_and_rejects_damage() {
        let stats = run_fuzz(&FuzzOptions {
            seed: 7,
            iters: 128,
            quiet: false,
        });
        assert!(stats.passed(), "{}", stats.render());
        assert!(stats.rejected > 0, "{}", stats.render());
    }
}
