//! The artifact content hash and the store paths that apply it.
//!
//! `journal.utj` records a [`content_hash`] per artifact and `ute resume`
//! trusts a file only when its length and that hash match, so what the
//! function computes is an on-disk format: the values are pinned here,
//! together with the properties the store leans on — the hash does not
//! depend on how the bytes were chunked, and the accidents it exists to
//! catch (a flipped bit, a lost or grown tail, words or stripes that
//! changed places) all move it. `fnv64` keeps its values too: the
//! journal's line checksums and the digests other tests pin are made of
//! it.

mod common;

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use common::Rng;
use proptest::prelude::*;
use ute::store::journal::JOURNAL_NAME;
use ute::store::{
    chaos, content_hash, fnv64, ArtifactMeta, ArtifactStore, ContentHasher, RunJournal, StoreError,
};

/// `write_temp` crosses the store's process-global abort points; the
/// tests that call it take turns, so the one that arms a point has it
/// fire where intended.
static STORE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    STORE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ute_store_hash_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `len` bytes of an xorshift stream: the seeded pattern of the pins.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    (0..len).map(|_| (rng.next() >> 32) as u8).collect()
}

#[test]
fn content_hash_values_are_pinned() {
    // XXH64, seed 0: the published vectors, so `xxh64sum` agrees.
    assert_eq!(content_hash(b""), 0xef46_db37_51d8_e999);
    assert_eq!(content_hash(b"a"), 0xd24e_c4f1_a98c_6e5b);
    assert_eq!(content_hash(b"abc"), 0x44bc_2cf5_ad77_0999);
    assert_eq!(
        content_hash(b"Nobody inspects the spammish repetition"),
        0xfbce_a83c_8a37_8bf1
    );
    // Around the stripe boundary and well past it.
    for (len, want) in [
        (1, 0x50ff_15a8_1340_970f),
        (31, 0xe064_9fef_5245_4c12),
        (32, 0x05ee_d3f8_619c_3aac),
        (33, 0x8b81_4337_8494_8de4),
        ((1 << 20) + 5, 0xf39f_443b_5bd4_3a6c_u64),
    ] {
        let got = content_hash(&pattern(21, len));
        assert_eq!(got, want, "len {len}: {got:#018x}");
    }
}

#[test]
fn fnv64_keeps_its_values() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv64(b"abc"), 0xe71f_a219_0541_574b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any split of any input into `update` calls, empty ones included,
    /// is the one-shot hash.
    #[test]
    fn chunking_does_not_change_the_hash(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(0usize..80, 0..24),
    ) {
        let mut h = ContentHasher::new();
        let mut rest = bytes.as_slice();
        for cut in cuts {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finish(), content_hash(&bytes));
    }
}

/// All-zero buffers of every length to 100 and of 1 MiB, and seeded
/// ones around the stripe boundaries and past them.
fn corpus() -> Vec<Vec<u8>> {
    let mut c: Vec<Vec<u8>> = (0..=100).map(|len| vec![0u8; len]).collect();
    c.push(vec![0u8; 1 << 20]);
    for (i, len) in [1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96, 100, 1000, 4099]
        .into_iter()
        .enumerate()
    {
        c.push(pattern(100 + i as u64, len));
    }
    c.push(pattern(7, (1 << 20) + 5));
    c
}

/// The bits to flip in a buffer of `len` bytes: all of them while that
/// is cheap, otherwise both ends and a seeded scatter between.
fn bits_to_flip(len: usize) -> Vec<usize> {
    let bits = len * 8;
    if len <= 128 {
        return (0..bits).collect();
    }
    let mut rng = Rng(len as u64 | 1);
    (0..64)
        .chain(bits - 64..bits)
        .chain((0..64).map(|_| rng.below(bits as u64) as usize))
        .collect()
}

#[test]
fn the_accidents_it_is_for_all_change_the_hash() {
    for buf in corpus() {
        let len = buf.len();
        let base = content_hash(&buf);
        let differs = |mutated: &[u8], what: &str| {
            assert_ne!(content_hash(mutated), base, "len {len}: {what}");
        };
        for bit in bits_to_flip(len) {
            let mut m = buf.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            differs(&m, &format!("bit {bit} flipped"));
        }
        if len > 0 {
            differs(&buf[..len - 1], "last byte dropped");
        }
        let mut grown = buf.clone();
        grown.push(0);
        differs(&grown, "one zero byte appended");
        // Two words one stripe apart meet the same lane; two adjacent
        // stripes meet every lane in the other order. Where the bytes
        // that change places are equal the buffer is unchanged, and so
        // must the hash be.
        let swaps = [
            (8, 32, "words 32 bytes apart"),
            (32, 32, "adjacent stripes"),
        ];
        for (width, apart, what) in swaps {
            let last_start = len.saturating_sub(apart + width);
            for at in [0, 8, 40, last_start] {
                if at + apart + width > len {
                    continue;
                }
                let mut m = buf.clone();
                for i in 0..width {
                    m.swap(at + i, at + apart + i);
                }
                if m != buf {
                    differs(&m, &format!("{what} swapped at {at}"));
                }
            }
        }
    }
}

#[test]
fn write_temp_hashes_what_it_writes_and_verify_checks_length_then_content() {
    let _g = lock();
    let dir = tmpdir("write");
    let pid = std::process::id();
    // Empty, one byte, an odd length, and one byte past three of the
    // 256 KiB buffers `verify_*` reads through.
    for (i, len) in [0, 1, 1001, 3 * (256 << 10) + 1].into_iter().enumerate() {
        let mut store = ArtifactStore::new(&dir);
        let name = format!("a{i}.bin");
        let input = pattern(len as u64, len);
        let meta = store.write_temp("stage", &name, &input).unwrap();
        let temp = dir.join(ArtifactStore::temp_name(&name, pid));
        assert_eq!(std::fs::read(&temp).unwrap(), input, "len {len}");
        assert_eq!(meta.len, len as u64);
        assert_eq!(meta.hash, content_hash(&input), "len {len}");
        assert!(store.verify_temp(&meta, pid), "len {len}");
        assert!(
            !store.verify_final(&meta),
            "len {len}: nothing promoted yet"
        );

        if len > 0 {
            // Same length, one byte different: only the content tells.
            let mut flipped = input.clone();
            flipped[len / 2] ^= 0x10;
            std::fs::write(&temp, &flipped).unwrap();
            assert!(!store.verify_temp(&meta, pid), "len {len}: flipped byte");
            // The right content under the wrong length, and the empty
            // artifact's own metadata against a file that is not empty.
            std::fs::write(&temp, &input).unwrap();
            let longer = ArtifactMeta {
                len: meta.len + 1,
                ..meta.clone()
            };
            assert!(!store.verify_temp(&longer, pid), "len {len}: wrong length");
            let empty = ArtifactMeta {
                name: name.clone(),
                hash: content_hash(b""),
                len: 0,
            };
            assert!(!store.verify_temp(&empty, pid), "len {len}: not empty");
        }
        store.promote("stage", &meta, pid).unwrap();
        assert!(store.verify_final(&meta), "len {len}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_abort_at_mid_write_leaves_exactly_half_the_bytes() {
    let _g = lock();
    let dir = tmpdir("torn");
    let mut store = ArtifactStore::new(&dir);
    let input = pattern(3, 100_001);
    // The next abort point this process crosses is `mid_write`.
    chaos::arm_soft(chaos::points_crossed());
    let r = store.write_temp("merge", "merged.ivl", &input);
    chaos::disarm_soft();
    match r {
        Err(StoreError::ChaosAbort { label, .. }) => {
            assert_eq!(label, "mid_write:merge:merged.ivl")
        }
        other => panic!("expected a chaos abort, got {other:?}"),
    }
    let temp = dir.join(ArtifactStore::temp_name("merged.ivl", std::process::id()));
    assert_eq!(std::fs::read(&temp).unwrap(), &input[..input.len() / 2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_v1_journal_is_refused_by_name() {
    let dir = tmpdir("v1");
    // What a build before the content hash wrote: same line format,
    // same line checksum, `v=1` — and `fnv64` in the artifact fields.
    let body =
        "run-start v=1 config_hash=6603d5261d6ad245 workload=stencil iterations=256 strict=0";
    let line = format!("{:016x} {body}\n", fnv64(body.as_bytes()));
    std::fs::write(dir.join(JOURNAL_NAME), &line).unwrap();
    match RunJournal::open_for_resume(&dir) {
        Err(StoreError::JournalCorrupt { line, what, .. }) => {
            assert_eq!(line, 1);
            assert_eq!(
                what,
                "journal format v1, this build reads v2: re-run `ute pipeline` \
                 (artifact hashes are not comparable across formats)"
            );
        }
        other => panic!("expected JournalCorrupt, got {other:?}"),
    }
    // Refused, not repaired: the file is as it was.
    assert_eq!(
        std::fs::read_to_string(dir.join(JOURNAL_NAME)).unwrap(),
        line
    );
    // A line that is not intact stays the generic unusable head.
    std::fs::write(dir.join(JOURNAL_NAME), line.replace("v=1", "v=3")).unwrap();
    match RunJournal::open_for_resume(&dir) {
        Err(StoreError::JournalCorrupt { what, .. }) => {
            assert_eq!(what, "unreadable run-start record")
        }
        other => panic!("expected JournalCorrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
