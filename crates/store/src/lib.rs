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

/// FNV-1a 64-bit — the workspace has no external crypto dependency, and
/// the store needs collision resistance against *accidental* corruption
/// (torn writes, truncation), not an adversary. One byte per multiply
/// latency: right for a journal line or a config string, which is what
/// the store uses it for; artifacts go through [`ContentHasher`].
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one [`ContentHasher`] step consumes: one word per lane.
const STRIPE: usize = 32;

fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("caller sliced 8 bytes"))
}

/// The artifact content hash, streaming: XXH64 with seed 0, so
/// `xxh64sum FILE` prints the hash the journal committed. Four
/// independent lanes each take one little-endian word of every 32-byte
/// stripe, so no multiply waits on the previous byte's (DESIGN.md, "The
/// content hash"). A function of the bytes alone — not of how they were
/// split across [`update`](ContentHasher::update) calls, nor of the
/// host's endianness — and, like [`fnv64`], a guard against accidental
/// corruption, not an adversary.
pub struct ContentHasher {
    lanes: [u64; 4],
    /// The bytes of a stripe not yet complete, `buf[..buffered]`.
    buf: [u8; STRIPE],
    buffered: usize,
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A hasher that has seen no bytes.
    pub fn new() -> ContentHasher {
        ContentHasher {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buffered: 0,
            len: 0,
        }
    }

    fn stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, le64(word));
        }
    }

    /// Feeds the next bytes of the content.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(STRIPE - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < STRIPE {
                return;
            }
            Self::stripe(&mut self.lanes, &self.buf);
            self.buffered = 0;
        }
        // Locals, so the four lanes stay in registers across the loop.
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(STRIPE);
        for s in &mut stripes {
            Self::stripe(&mut lanes, s);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.len >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| {
                (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
            })
        } else {
            P5
        };
        h = h.wrapping_add(self.len);
        let mut tail = &self.buf[..self.buffered];
        while tail.len() >= 8 {
            h = (h ^ round(0, le64(&tail[..8])))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("sliced 4 bytes"));
            h = (h ^ u64::from(word).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// [`ContentHasher`] over one buffer.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = ContentHasher::new();
    h.update(bytes);
    h.finish()
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
