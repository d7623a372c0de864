//! The write-ahead run journal (`journal.utj`).
//!
//! One journal per output directory, append-only, fsync'd per record.
//! Each record is one line:
//!
//! ```text
//! <fnv64-hex> <kind> [key=value ...]\n
//! ```
//!
//! The leading checksum ([`fnv64`], right for a line) covers everything
//! after it, so replay can detect a record torn by a mid-append kill.
//! Values are percent-escaped (space, `%`, control bytes), keeping the
//! format self-describing and greppable. Record kinds, in protocol order
//! per stage:
//!
//! ```text
//! run-start      v=2 config_hash=H <config key=values>
//! stage-start    stage=NAME
//! stage-commit   stage=NAME pid=P artifacts=name:hash:len,...  [removes=a,b]
//! stage-publish  stage=NAME
//! run-end
//! ```
//!
//! An artifact's `hash` is its [`content_hash`](crate::content_hash)
//! (XXH64) since `v=2`; `v=1` recorded `fnv64` there. The two are not
//! comparable, so a journal of another version is refused by name
//! instead of being replayed into five spurious hash mismatches.
//!
//! The *commit* record is the durability pivot: it is written (and
//! fsync'd) after every artifact temp is durable but before any rename.
//! Replay therefore reconstructs exactly one of three states per stage —
//! not started / committed (temps durable, publication incomplete) /
//! published — and `ute resume` completes or re-runs accordingly. A torn
//! or checksum-failed tail line is *discarded*, not an error: that is
//! the expected crash residue.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::artifact::ArtifactMeta;
use crate::chaos;
use crate::error::StoreError;
use crate::fnv64;

/// The journal's file name inside a run directory.
pub const JOURNAL_NAME: &str = "journal.utj";

/// Journal format version: what an artifact's `hash` field means.
pub const VERSION: u32 = 2;

/// Percent-escapes a value so it is one whitespace-free token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0a"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(v as char);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Opens a run: format version, config hash, and the run config as
    /// opaque key=value pairs (enough for `ute resume` to re-derive
    /// every stage).
    RunStart {
        /// Run configuration (workload, iterations, fault spec, ...).
        config: Vec<(String, String)>,
        /// [`fnv64`] of the canonical config serialization.
        config_hash: u64,
    },
    /// A stage began executing.
    StageStart {
        /// Stage name.
        stage: String,
    },
    /// A stage's outputs are durable as temps; publication may begin.
    StageCommit {
        /// Stage name.
        stage: String,
        /// Pid that wrote the temps (names their `.tmp.<pid>` suffix).
        pid: u32,
        /// Every artifact: final name, content hash, length.
        artifacts: Vec<ArtifactMeta>,
        /// Stale files the stage must remove (missing-node suppression).
        removes: Vec<String>,
    },
    /// Every artifact of the stage is renamed into place.
    StagePublish {
        /// Stage name.
        stage: String,
    },
    /// The run completed every stage.
    RunEnd,
}

impl JournalRecord {
    fn kind(&self) -> &'static str {
        match self {
            JournalRecord::RunStart { .. } => "run-start",
            JournalRecord::StageStart { .. } => "stage-start",
            JournalRecord::StageCommit { .. } => "stage-commit",
            JournalRecord::StagePublish { .. } => "stage-publish",
            JournalRecord::RunEnd => "run-end",
        }
    }

    /// Serializes the record body (everything the checksum covers).
    fn body(&self) -> String {
        match self {
            JournalRecord::RunStart {
                config,
                config_hash,
            } => {
                let mut s = format!("run-start v={VERSION} config_hash={config_hash:016x}");
                for (k, v) in config {
                    s.push(' ');
                    s.push_str(&esc(k));
                    s.push('=');
                    s.push_str(&esc(v));
                }
                s
            }
            JournalRecord::StageStart { stage } => format!("stage-start stage={}", esc(stage)),
            JournalRecord::StageCommit {
                stage,
                pid,
                artifacts,
                removes,
            } => {
                let arts: Vec<String> = artifacts
                    .iter()
                    .map(|a| format!("{}:{:016x}:{}", esc(&a.name), a.hash, a.len))
                    .collect();
                let mut s = format!(
                    "stage-commit stage={} pid={pid} artifacts={}",
                    esc(stage),
                    if arts.is_empty() {
                        "-".to_string()
                    } else {
                        arts.join(",")
                    }
                );
                if !removes.is_empty() {
                    let rm: Vec<String> = removes.iter().map(|r| esc(r)).collect();
                    s.push_str(&format!(" removes={}", rm.join(",")));
                }
                s
            }
            JournalRecord::StagePublish { stage } => {
                format!("stage-publish stage={}", esc(stage))
            }
            JournalRecord::RunEnd => "run-end".to_string(),
        }
    }

    /// Parses one record body (checksum already verified and stripped).
    fn parse(body: &str) -> Option<JournalRecord> {
        let mut tokens = body.split(' ');
        let kind = tokens.next()?;
        let mut kv: Vec<(String, String)> = Vec::new();
        for t in tokens {
            let (k, v) = t.split_once('=')?;
            kv.push((unesc(k), v.to_string()));
        }
        let get = |key: &str| -> Option<String> {
            kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        match kind {
            "run-start" => {
                let v: u32 = get("v")?.parse().ok()?;
                if v != VERSION {
                    return None;
                }
                let config_hash = u64::from_str_radix(&get("config_hash")?, 16).ok()?;
                let config = kv
                    .into_iter()
                    .filter(|(k, _)| k != "v" && k != "config_hash")
                    .map(|(k, v)| (k, unesc(&v)))
                    .collect();
                Some(JournalRecord::RunStart {
                    config,
                    config_hash,
                })
            }
            "stage-start" => Some(JournalRecord::StageStart {
                stage: unesc(&get("stage")?),
            }),
            "stage-commit" => {
                let stage = unesc(&get("stage")?);
                let pid: u32 = get("pid")?.parse().ok()?;
                let arts = get("artifacts")?;
                let mut artifacts = Vec::new();
                if arts != "-" {
                    for a in arts.split(',') {
                        let mut parts = a.split(':');
                        let name = unesc(parts.next()?);
                        let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
                        let len: u64 = parts.next()?.parse().ok()?;
                        artifacts.push(ArtifactMeta { name, hash, len });
                    }
                }
                let removes = match get("removes") {
                    None => Vec::new(),
                    Some(rm) => rm.split(',').map(unesc).collect(),
                };
                Some(JournalRecord::StageCommit {
                    stage,
                    pid,
                    artifacts,
                    removes,
                })
            }
            "stage-publish" => Some(JournalRecord::StagePublish {
                stage: unesc(&get("stage")?),
            }),
            "run-end" => Some(JournalRecord::RunEnd),
            _ => None,
        }
    }
}

/// Where a stage stands after replay.
#[derive(Debug, Clone, PartialEq)]
pub enum StageStatus {
    /// Started but never committed: temps (if any) are garbage; re-run.
    Started,
    /// Committed: every temp was durable at commit time. Publication can
    /// be completed from temps/finals, or the stage re-run.
    Committed {
        /// Pid whose `.tmp.<pid>` files hold the committed bytes.
        pid: u32,
        /// Committed artifacts with content hashes.
        artifacts: Vec<ArtifactMeta>,
        /// Files the stage removes on publish.
        removes: Vec<String>,
    },
    /// Published: finals are in place (verify by hash before trusting).
    Published {
        /// Published artifacts with content hashes.
        artifacts: Vec<ArtifactMeta>,
    },
}

/// The reconstructed state of a run directory's journal.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// The run configuration from `run-start`.
    pub config: Vec<(String, String)>,
    /// The config hash from `run-start`.
    pub config_hash: u64,
    /// Per-stage status, in journal (= pipeline) order.
    pub stages: Vec<(String, StageStatus)>,
    /// Records successfully replayed.
    pub records: usize,
    /// Whether a torn/corrupt tail was discarded.
    pub torn_tail: bool,
    /// Whether a `run-end` record was seen.
    pub run_ended: bool,
}

impl ReplayState {
    /// This stage's status, if the journal mentions it.
    pub fn status(&self, stage: &str) -> Option<&StageStatus> {
        self.stages
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, st)| st)
    }

    fn apply(&mut self, rec: JournalRecord) {
        match rec {
            JournalRecord::RunStart {
                config,
                config_hash,
            } => {
                self.config = config;
                self.config_hash = config_hash;
            }
            JournalRecord::StageStart { stage } => self.set(stage, StageStatus::Started),
            JournalRecord::StageCommit {
                stage,
                pid,
                artifacts,
                removes,
            } => self.set(
                stage,
                StageStatus::Committed {
                    pid,
                    artifacts,
                    removes,
                },
            ),
            JournalRecord::StagePublish { stage } => {
                // Promote commit → publish, keeping the artifact list.
                if let Some(StageStatus::Committed { artifacts, .. }) = self.status(&stage) {
                    let artifacts = artifacts.clone();
                    self.set(stage, StageStatus::Published { artifacts });
                } else {
                    self.set(
                        stage,
                        StageStatus::Published {
                            artifacts: Vec::new(),
                        },
                    );
                }
            }
            JournalRecord::RunEnd => self.run_ended = true,
        }
    }

    fn set(&mut self, stage: String, status: StageStatus) {
        match self.stages.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, st)) => *st = status,
            None => self.stages.push((stage, status)),
        }
    }
}

/// An open, appendable run journal.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    file: File,
}

impl RunJournal {
    /// The journal path inside a run directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_NAME)
    }

    /// Starts a fresh journal (truncating any previous run's) and writes
    /// the durable `run-start` record.
    pub fn create(dir: &Path, config: &[(String, String)]) -> Result<RunJournal, StoreError> {
        let _span = ute_obs::Span::enter("store", "create journal");
        let path = Self::path_in(dir);
        let file = File::create(&path).map_err(|e| StoreError::io("create journal", &path, e))?;
        let mut j = RunJournal { path, file };
        j.append(&JournalRecord::RunStart {
            config: config.to_vec(),
            config_hash: config_hash(config),
        })?;
        Ok(j)
    }

    /// Replays an existing journal and reopens it for appending — the
    /// `ute resume` entry point. Fails with [`StoreError::JournalCorrupt`]
    /// if the journal is missing, its `run-start` is unreadable, or it is
    /// of another format [`VERSION`] (a torn *tail* is fine and reported
    /// via [`ReplayState::torn_tail`]). Nothing is opened for writing
    /// until the replay has succeeded.
    pub fn open_for_resume(dir: &Path) -> Result<(RunJournal, ReplayState), StoreError> {
        let _span = ute_obs::Span::enter("store", "replay journal");
        let path = Self::path_in(dir);
        let data = std::fs::read(&path).map_err(|e| StoreError::io("read journal", &path, e))?;
        let state = replay(&path, &data)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("open journal", &path, e))?;
        Ok((RunJournal { path, file }, state))
    }

    /// Appends one record and fsyncs it — the record is durable (or an
    /// error is returned) before this returns. Crosses a chaos point
    /// *after* durability, so an armed kill lands exactly between "record
    /// on disk" and "next protocol step".
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), StoreError> {
        let kind = rec.kind();
        let _span = ute_obs::Span::enter("store", format!("journal {kind}"));
        let body = rec.body();
        let line = format!("{:016x} {body}\n", fnv64(body.as_bytes()));
        let write = |f: &mut File| -> std::io::Result<()> {
            f.write_all(line.as_bytes())?;
            f.sync_data()
        };
        write(&mut self.file).map_err(|e| {
            if crate::is_disk_full(&e) {
                StoreError::DiskFull {
                    stage: "journal".to_string(),
                    path: self.path.clone(),
                }
            } else {
                StoreError::io("append journal", &self.path, e)
            }
        })?;
        ute_obs::counter("store/journal_records").inc();
        chaos::point(|| format!("journal:{kind}"))?;
        Ok(())
    }
}

/// The canonical config hash: order-sensitive over the serialized pairs.
pub fn config_hash(config: &[(String, String)]) -> u64 {
    let mut s = String::new();
    for (k, v) in config {
        s.push_str(&esc(k));
        s.push('=');
        s.push_str(&esc(v));
        s.push('\n');
    }
    fnv64(s.as_bytes())
}

/// The `v=` of an intact `run-start` body another build wrote.
fn foreign_version(body: &str) -> Option<u32> {
    let mut tokens = body.strip_prefix("run-start ")?.split(' ');
    let v: u32 = tokens.find_map(|t| t.strip_prefix("v="))?.parse().ok()?;
    (v != VERSION).then_some(v)
}

/// Replays journal bytes into a [`ReplayState`]. Torn or checksum-failed
/// content *terminates* replay (everything from the bad line on is
/// ignored) — that is the legitimate residue of a mid-append kill. Only
/// an unusable first record is an error, and one that is intact but of
/// another format version says so.
fn replay(path: &Path, data: &[u8]) -> Result<ReplayState, StoreError> {
    let text = String::from_utf8_lossy(data);
    let mut state = ReplayState::default();
    let mut saw_start = false;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let body = (|| {
            let line = line.strip_suffix('\n')?; // no newline: torn tail
            let (crc, body) = line.split_once(' ')?;
            let crc = u64::from_str_radix(crc, 16).ok()?;
            (crc == fnv64(body.as_bytes())).then_some(body)
        })();
        match body.and_then(JournalRecord::parse) {
            Some(rec) => {
                if !saw_start {
                    if !matches!(rec, JournalRecord::RunStart { .. }) {
                        return Err(StoreError::JournalCorrupt {
                            path: path.to_path_buf(),
                            line: i + 1,
                            what: "first record is not run-start".to_string(),
                        });
                    }
                    saw_start = true;
                }
                state.apply(rec);
                state.records += 1;
            }
            None => {
                if !saw_start {
                    let what = match body.and_then(foreign_version) {
                        Some(v) => format!(
                            "journal format v{v}, this build reads v{VERSION}: re-run \
                             `ute pipeline` (artifact hashes are not comparable across formats)"
                        ),
                        None => "unreadable run-start record".to_string(),
                    };
                    return Err(StoreError::JournalCorrupt {
                        path: path.to_path_buf(),
                        line: i + 1,
                        what,
                    });
                }
                state.torn_tail = true;
                break;
            }
        }
    }
    if !saw_start {
        return Err(StoreError::JournalCorrupt {
            path: path.to_path_buf(),
            line: 1,
            what: "empty journal".to_string(),
        });
    }
    ute_obs::counter("store/journal_replayed").add(state.records as u64);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ute_journal_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg() -> Vec<(String, String)> {
        vec![
            ("workload".to_string(), "ping pong".to_string()),
            ("iterations".to_string(), "256".to_string()),
        ]
    }

    #[test]
    fn round_trip_through_create_and_resume() {
        let dir = tmpdir("rt");
        let mut j = RunJournal::create(&dir, &cfg()).unwrap();
        j.append(&JournalRecord::StageStart {
            stage: "trace".into(),
        })
        .unwrap();
        let arts = vec![
            ArtifactMeta {
                name: "trace.0.raw".into(),
                hash: 0xdead,
                len: 42,
            },
            ArtifactMeta {
                name: "threads.utt".into(),
                hash: 0xbeef,
                len: 7,
            },
        ];
        j.append(&JournalRecord::StageCommit {
            stage: "trace".into(),
            pid: 123,
            artifacts: arts.clone(),
            removes: vec!["trace.2.raw".into()],
        })
        .unwrap();
        j.append(&JournalRecord::StagePublish {
            stage: "trace".into(),
        })
        .unwrap();
        j.append(&JournalRecord::StageStart {
            stage: "convert".into(),
        })
        .unwrap();
        drop(j);

        let (_j, state) = RunJournal::open_for_resume(&dir).unwrap();
        assert_eq!(state.config, cfg()); // escaping survived the space
        assert_eq!(state.config_hash, config_hash(&cfg()));
        assert!(!state.torn_tail);
        assert!(!state.run_ended);
        assert_eq!(state.records, 5);
        match state.status("trace").unwrap() {
            StageStatus::Published { artifacts } => assert_eq!(artifacts, &arts),
            other => panic!("trace should be published, got {other:?}"),
        }
        assert_eq!(state.status("convert"), Some(&StageStatus::Started));
        assert_eq!(state.status("merge"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmpdir("torn");
        let mut j = RunJournal::create(&dir, &cfg()).unwrap();
        j.append(&JournalRecord::StageStart {
            stage: "trace".into(),
        })
        .unwrap();
        drop(j);
        let path = RunJournal::path_in(&dir);
        // Simulate a mid-append kill: append half a record, no newline.
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(b"0123456789abcdef stage-comm");
        std::fs::write(&path, &data).unwrap();
        let (_j, state) = RunJournal::open_for_resume(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.records, 2);
        assert_eq!(state.status("trace"), Some(&StageStatus::Started));
        // A bit flip in a later line truncates replay at that line.
        let mut data = std::fs::read(&path).unwrap();
        let second = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        data[second + 20] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let (_j, state) = RunJournal::open_for_resume(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.records, 1);
        assert_eq!(state.status("trace"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unusable_journal_is_a_typed_error() {
        let dir = tmpdir("bad");
        assert!(matches!(
            RunJournal::open_for_resume(&dir),
            Err(StoreError::Io { .. })
        ));
        let path = RunJournal::path_in(&dir);
        std::fs::write(&path, b"garbage with no structure\n").unwrap();
        let e = RunJournal::open_for_resume(&dir).unwrap_err();
        assert!(matches!(e, StoreError::JournalCorrupt { .. }), "{e}");
        assert!(e.to_string().contains("journal.utj"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
