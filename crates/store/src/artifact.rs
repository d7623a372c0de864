//! The atomic artifact store: temp-write / commit / rename publication.
//!
//! Every stage output goes through the same protocol, driven by the
//! stage runner on the main thread:
//!
//! 1. [`ArtifactStore::write_temp`] — bytes land in `NAME.tmp.<pid>` in
//!    the run directory, hashed as they are written, and are fsync'd. A
//!    disk-budget check runs first; `ENOSPC` surfaces as a typed,
//!    graceful error. A chaos point sits *mid-write*, so an armed abort
//!    leaves a genuinely torn temp.
//! 2. The caller appends the journal `stage-commit` record (content
//!    hashes of every temp) — the durability pivot.
//! 3. [`ArtifactStore::promote`] — rename temp → final, directory fsync.
//!    Readers only ever see complete artifacts.
//!
//! On resume, [`ArtifactStore::verify_final`] / [`verify_temp`] check
//! published or committed bytes against the journal's lengths and
//! hashes (streamed through a fixed buffer, never a whole-file read), and
//! [`ArtifactStore::gc_stale_temps`] sweeps `*.tmp.*` leftovers from
//! dead runs (sparing temps a committed-but-unpublished stage still
//! needs).

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::chaos;
use crate::error::StoreError;
use crate::{fsync_dir, ContentHasher};

/// The buffer a resume streams an artifact through to hash it: what
/// bounds its memory, whatever the artifact's size.
const VERIFY_BUF: usize = 256 << 10;

/// One committed artifact: final name, content hash, byte length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Final file name inside the run directory (no separators).
    pub name: String,
    /// [`content_hash`](crate::content_hash) of the full content.
    pub hash: u64,
    /// Content length in bytes.
    pub len: u64,
}

/// An artifact store rooted at one run directory.
pub struct ArtifactStore {
    dir: PathBuf,
    /// Remaining disk budget in bytes, if one is configured.
    budget: Option<u64>,
}

impl ArtifactStore {
    /// A store over `dir` with no disk budget.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: dir.into(),
            budget: None,
        }
    }

    /// Caps the total bytes this store will write (temps included).
    pub fn with_budget(mut self, budget: Option<u64>) -> ArtifactStore {
        self.budget = budget;
        self
    }

    /// The run directory this store publishes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The temp name an artifact uses while owned by pid `pid`.
    pub fn temp_name(name: &str, pid: u32) -> String {
        format!("{name}.tmp.{pid}")
    }

    fn check_name(name: &str) -> Result<(), StoreError> {
        if name.is_empty()
            || name.contains(['/', '\\', ':', ',', ' ', '\n', '\t'])
            || name.contains(".tmp.")
        {
            return Err(StoreError::BadName {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Writes one artifact's bytes to its temp file (durably), enforcing
    /// the disk budget *before* touching the disk. Returns the metadata
    /// the caller records in the journal commit.
    pub fn write_temp(
        &mut self,
        stage: &str,
        name: &str,
        bytes: &[u8],
    ) -> Result<ArtifactMeta, StoreError> {
        Self::check_name(name)?;
        let _span = ute_obs::Span::enter("store", format!("write {name}"));
        let len = bytes.len() as u64;
        if let Some(budget) = self.budget {
            if len > budget {
                return Err(StoreError::DiskBudget {
                    stage: stage.to_string(),
                    needed: len,
                    remaining: budget,
                });
            }
            self.budget = Some(budget - len);
        }
        let tmp = self.dir.join(Self::temp_name(name, std::process::id()));
        let mut f = File::create(&tmp).map_err(|e| StoreError::write_failure(stage, &tmp, e))?;
        let mut hasher = ContentHasher::new();
        // Each half is hashed as it is written, so there is no second
        // walk over the buffer (a finer interleave did not pay:
        // DESIGN.md, "The content hash").
        let mut write = |part: &[u8]| -> Result<(), StoreError> {
            hasher.update(part);
            f.write_all(part)
                .map_err(|e| StoreError::write_failure(stage, &tmp, e))
        };
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        write(head)?;
        // An abort armed here leaves a genuinely torn temp on disk —
        // exactly what a kill mid-write produces. Unarmed, this is one
        // atomic load.
        chaos::point(|| format!("mid_write:{stage}:{name}"))?;
        write(tail)?;
        f.sync_data()
            .map_err(|e| StoreError::write_failure(stage, &tmp, e))?;
        drop(f);
        chaos::point(|| format!("temp_durable:{stage}:{name}"))?;
        Ok(ArtifactMeta {
            name: name.to_string(),
            hash: hasher.finish(),
            len,
        })
    }

    /// Renames a committed temp into its final place and fsyncs the
    /// directory. Idempotent on resume via [`ArtifactStore::verify_final`].
    pub fn promote(&self, stage: &str, meta: &ArtifactMeta, pid: u32) -> Result<(), StoreError> {
        let _span = ute_obs::Span::enter("store", format!("promote {}", meta.name));
        let tmp = self.dir.join(Self::temp_name(&meta.name, pid));
        let fin = self.dir.join(&meta.name);
        std::fs::rename(&tmp, &fin)
            .map_err(|e| StoreError::io(&format!("publish (stage {stage})"), &fin, e))?;
        fsync_dir(&self.dir);
        ute_obs::counter("store/artifacts_published").inc();
        chaos::point(|| format!("published:{stage}:{}", meta.name))?;
        Ok(())
    }

    /// Whether the *final* file exists with exactly the committed bytes.
    pub fn verify_final(&self, meta: &ArtifactMeta) -> bool {
        self.verify_at(&self.dir.join(&meta.name), meta)
    }

    /// Whether the *temp* written by `pid` holds the committed bytes.
    pub fn verify_temp(&self, meta: &ArtifactMeta, pid: u32) -> bool {
        self.verify_at(&self.dir.join(Self::temp_name(&meta.name, pid)), meta)
    }

    fn verify_at(&self, path: &Path, meta: &ArtifactMeta) -> bool {
        ute_obs::counter("store/artifacts_verified").inc();
        // Length first, from the metadata: a file of the wrong size is
        // refused without reading it. Then the content, through one
        // fixed buffer whatever the artifact's size.
        let holds = || -> std::io::Result<bool> {
            let mut f = File::open(path)?;
            if f.metadata()?.len() != meta.len {
                return Ok(false);
            }
            let mut hasher = ContentHasher::new();
            let mut buf = vec![0u8; VERIFY_BUF];
            loop {
                match f.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => hasher.update(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(hasher.finish() == meta.hash)
        };
        holds().unwrap_or(false)
    }

    /// Removes every `*.tmp.*` file in the run directory except those
    /// named in `keep` (temps a committed-but-unpublished stage still
    /// needs). Returns how many were swept.
    pub fn gc_stale_temps(&self, keep: &[String]) -> Result<u64, StoreError> {
        let _span = ute_obs::Span::enter("store", "gc stale temps");
        let mut swept = 0;
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| StoreError::io("scan for stale temps", &self.dir, e))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.contains(".tmp."))
            .collect();
        names.sort(); // deterministic sweep order
        for n in names {
            if keep.iter().any(|k| k == &n) {
                continue;
            }
            let p = self.dir.join(&n);
            std::fs::remove_file(&p).map_err(|e| StoreError::io("gc stale temp", &p, e))?;
            swept += 1;
        }
        ute_obs::counter("store/temps_gc").add(swept);
        Ok(swept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ute_artifact_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn temp_commit_promote_round_trip() {
        let dir = tmpdir("rt");
        let mut store = ArtifactStore::new(&dir);
        let meta = store
            .write_temp("convert", "a.ivl", b"hello intervals")
            .unwrap();
        assert_eq!(meta.len, 15);
        let pid = std::process::id();
        // Before promote: temp holds the bytes, final does not exist.
        assert!(store.verify_temp(&meta, pid));
        assert!(!store.verify_final(&meta));
        store.promote("convert", &meta, pid).unwrap();
        assert!(store.verify_final(&meta));
        assert_eq!(
            std::fs::read(dir.join("a.ivl")).unwrap(),
            b"hello intervals"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_is_enforced_before_the_write() {
        let dir = tmpdir("budget");
        let mut store = ArtifactStore::new(&dir).with_budget(Some(10));
        store.write_temp("trace", "small", b"12345678").unwrap();
        let e = store.write_temp("trace", "big", b"12345678").unwrap_err();
        assert!(e.is_resource_exhausted(), "{e}");
        // The rejected write left nothing on disk.
        assert!(!dir
            .join(ArtifactStore::temp_name("big", std::process::id()))
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_sweeps_stale_temps_but_keeps_committed_ones() {
        let dir = tmpdir("gc");
        std::fs::write(dir.join("a.ivl.tmp.111"), b"stale").unwrap();
        std::fs::write(dir.join("b.ivl.tmp.222"), b"committed").unwrap();
        std::fs::write(dir.join("c.ivl"), b"published").unwrap();
        let store = ArtifactStore::new(&dir);
        let swept = store
            .gc_stale_temps(&["b.ivl.tmp.222".to_string()])
            .unwrap();
        assert_eq!(swept, 1);
        assert!(!dir.join("a.ivl.tmp.111").exists());
        assert!(dir.join("b.ivl.tmp.222").exists());
        assert!(dir.join("c.ivl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_artifact_names_are_rejected() {
        let dir = tmpdir("names");
        let mut store = ArtifactStore::new(&dir);
        for bad in ["", "a/b", "a:b", "a,b", "x.tmp.1"] {
            let e = store.write_temp("trace", bad, b"x").unwrap_err();
            assert!(matches!(e, StoreError::BadName { .. }), "{bad}: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
