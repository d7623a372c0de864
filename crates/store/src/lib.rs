//! # ute-store — crash-safe run durability
//!
//! A `kill -9`, disk-full, or panic mid-run must never cost more than
//! the stage that was interrupted, and must never leave a half-written
//! artifact where a reader can find it. This crate is the durability
//! substrate the pipeline (and the future `ute serve` daemon) runs on:
//!
//! * **Run journal** ([`journal::RunJournal`]) — an append-only,
//!   fsync'd, self-describing record log (`journal.utj`) in the run's
//!   output directory: run config (+ hash), per-stage start / commit /
//!   publish records with content hashes of every artifact. The tail is
//!   allowed to be torn — replay discards a truncated or checksum-failed
//!   last line instead of erroring, exactly the state a mid-append kill
//!   leaves behind.
//! * **Atomic artifact store** ([`artifact::ArtifactStore`]) — every
//!   artifact is written to `NAME.tmp.<pid>` and fsync'd; it is renamed
//!   into place only *after* the stage's journal commit record is
//!   durable, so a reader either sees the complete artifact or nothing.
//!   Startup GC removes stale temps from dead runs.
//! * **Resource guardrails** — a configurable disk budget is enforced
//!   before every artifact write, and `ENOSPC` surfaces as a typed
//!   [`StoreError`] carrying the stage and path instead of an abort.
//! * **Chaos points** ([`chaos`]) — every durability transition crosses
//!   a numbered abort point. A seeded harness can kill the process (or
//!   soft-abort in tests) at any point, then prove `ute resume` restores
//!   byte-identical output.
//!
//! The recovery invariant, relied on by `ute resume`:
//!
//! > For every stage, either (a) no commit record exists — the stage
//! > re-runs from its (already published) inputs, or (b) a commit record
//! > with content hashes exists — publication can be completed or
//! > verified from temps/finals, or the stage re-runs. Stages are
//! > deterministic functions of published inputs, so any replay point
//! > converges to the same bytes.

pub mod artifact;
pub mod chaos;
pub mod error;
pub mod journal;

pub use artifact::{ArtifactMeta, ArtifactStore};
pub use error::StoreError;
pub use journal::{JournalRecord, ReplayState, RunJournal, StageStatus};

use std::fs::File;
use std::io::Write;
use std::path::Path;

/// FNV-1a 64-bit content hash — the workspace has no external crypto
/// dependency, and the store needs collision resistance against
/// *accidental* corruption (torn writes, truncation), not an adversary.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fsyncs a directory so a rename performed inside it is durable.
/// Best-effort: some platforms cannot open directories for sync.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Whether an I/O error means the device is out of space.
pub(crate) fn is_disk_full(e: &std::io::Error) -> bool {
    // ENOSPC (28) on POSIX; ErrorKind::StorageFull is not yet stable on
    // the toolchain floor this workspace supports.
    e.raw_os_error() == Some(28)
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, directory fsync. The standalone-CLI
/// cousin of the journaled publish protocol — a crash leaves either the
/// old file or the new one, never a torn hybrid. The temp carries the
/// writing pid so startup GC can identify leftovers from dead runs.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StoreError::BadName {
            name: path.display().to_string(),
        })?;
    let _span = ute_obs::Span::enter("store", format!("write {name}"));
    let dir = path.parent().unwrap_or(Path::new("."));
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let write = || -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        Ok(())
    };
    write().map_err(|source| {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io("write", &tmp, source)
    })?;
    std::fs::rename(&tmp, path).map_err(|source| {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io("publish", path, source)
    })?;
    fsync_dir(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_ne!(fnv64(b"abc"), fnv64(b"ab"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("ute_store_aw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.bin");
        atomic_write(&target, b"one").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"one");
        atomic_write(&target, b"two").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"two");
        let temps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp.")
            })
            .collect();
        assert!(temps.is_empty(), "leftover temps: {temps:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
