//! The on-disk raw trace file — one per SMP node (§2.0: "multiple raw
//! trace files, one on each node").
//!
//! Layout: a small header (magic, format version, node id, tick rate,
//! record count) followed by the concatenated raw records in the order
//! they were cut. Records carry *local* timestamps; nothing in this file
//! is clock-adjusted.

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};
use ute_core::ids::NodeId;
use ute_core::time::TICKS_PER_SEC;

use crate::hookword::Hookword;
use crate::record::RawEvent;

/// Magic bytes opening every raw trace file.
pub const MAGIC: &[u8; 8] = b"UTERAW\0\0";

/// Current raw-format version.
pub const VERSION: u32 = 1;

/// Serialized header length: magic (8) + version (4) + node (2) +
/// tick rate (8) + record count (8).
pub const HEADER_LEN: usize = 30;

/// How far past a corrupt record the salvage decoder scans for the next
/// valid hookword boundary before giving up on the rest of the file.
pub const RESYNC_SCAN_LIMIT: usize = 64 << 10;

/// What salvage-mode decoding recovered and what it had to give up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Records successfully decoded.
    pub records: u64,
    /// Damaged regions hit (each costs at least one record).
    pub records_skipped: u64,
    /// Bytes scanned over while resynchronizing (including a dropped
    /// unrecoverable tail).
    pub bytes_skipped: u64,
    /// Times the decoder found a later valid hookword boundary and
    /// resumed.
    pub resyncs: u64,
    /// Whether the file ended before its declared record count —
    /// truncation, a dropped flush, or an overrun splice.
    pub count_mismatch: bool,
    /// Whether the tail of the file was abandoned (no valid boundary
    /// within the scan limit, or a mid-record end of data).
    pub truncated_tail: bool,
}

impl SalvageReport {
    /// Whether any damage was observed at all.
    pub fn is_clean(&self) -> bool {
        self.records_skipped == 0 && !self.count_mismatch && !self.truncated_tail
    }
}

/// Whether `at` looks like a record boundary: a valid hookword whose
/// declared record fits in `data`, followed by either end-of-data or
/// something that again parses as a hookword. The double check rejects
/// most accidental matches inside payload bytes — event codes are a
/// sparse subset of the 16-bit space, so two consecutive hits are
/// overwhelmingly likely to be a real boundary.
fn valid_boundary(data: &[u8], at: usize) -> bool {
    let Some(word) = data.get(at..at + 4) else {
        return false;
    };
    let word = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    let Ok(hook) = Hookword::from_u32(word) else {
        return false;
    };
    let end = at + hook.length as usize;
    if end > data.len() {
        return false;
    }
    if end == data.len() {
        return true;
    }
    match data.get(end..end + 4) {
        // Fewer than 4 trailing bytes — unverifiable, but the candidate
        // record itself fits; accept and let the decoder report the
        // trailing garbage.
        None => true,
        Some(next) => {
            Hookword::from_u32(u32::from_le_bytes([next[0], next[1], next[2], next[3]])).is_ok()
        }
    }
}

/// Scans forward from `from` for the next valid record boundary, giving
/// up after [`RESYNC_SCAN_LIMIT`] bytes.
pub(crate) fn scan_resync(data: &[u8], from: usize) -> Option<usize> {
    let limit = data.len().min(from.saturating_add(RESYNC_SCAN_LIMIT));
    (from..limit).find(|&at| valid_boundary(data, at))
}

/// An in-memory raw trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTraceFile {
    /// The node that produced this file.
    pub node: NodeId,
    /// Local-clock tick rate (ticks per second) recorded for reference.
    pub tick_rate: u64,
    /// The records, in cut order.
    pub events: Vec<RawEvent>,
}

impl RawTraceFile {
    /// Builds a file wrapper around already-decoded events.
    pub fn new(node: NodeId, events: Vec<RawEvent>) -> RawTraceFile {
        RawTraceFile {
            node,
            tick_rate: TICKS_PER_SEC,
            events,
        }
    }

    /// Serializes header + records.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        put_header(&mut w, self.node, self.tick_rate, self.events.len() as u64);
        for e in &self.events {
            e.encode(&mut w)?;
        }
        Ok(w.into_bytes())
    }

    /// Parses a serialized raw trace file.
    ///
    /// Built on the zero-copy layer: [`crate::RawTraceView::open`]
    /// validates every record's bounds in one pass, then the owned
    /// events are materialized from borrowed views into an
    /// exactly-sized vector. Error behavior (including reported
    /// offsets) is identical to the pre-zero-copy decoder, which is
    /// kept as [`RawTraceFile::from_bytes_reference`] and compared
    /// byte-for-byte by the fast-vs-reference oracle.
    pub fn from_bytes(data: &[u8]) -> Result<RawTraceFile> {
        let view = crate::view::RawTraceView::open(data)?;
        let mut events = Vec::with_capacity(view.records);
        events.extend(view.events().map(|v| v.to_owned()));
        Ok(RawTraceFile {
            node: view.node,
            tick_rate: view.tick_rate,
            events,
        })
    }

    /// The pre-zero-copy strict decoder, kept verbatim as the
    /// differential baseline for `ute-verify`'s fast-vs-reference
    /// oracle. Decodes incrementally, copying each payload.
    pub fn from_bytes_reference(data: &[u8]) -> Result<RawTraceFile> {
        let mut r = RawTraceReader::open(data)?;
        let cap = ute_core::codec::clamped_capacity(
            r.record_count as usize,
            crate::hookword::FIXED_PREFIX,
            data.len(),
        );
        let mut events = Vec::with_capacity(cap);
        while let Some(e) = r.next_event()? {
            events.push(e);
        }
        Ok(RawTraceFile {
            node: r.node,
            tick_rate: r.tick_rate,
            events,
        })
    }

    /// Salvage-mode parse: decodes as much of a damaged file as possible
    /// instead of stopping at the first corrupt byte. The header must be
    /// intact (a file whose header is gone carries no trustworthy
    /// records); after that, every decode failure triggers a bounded
    /// forward scan for the next valid hookword boundary
    /// ([`scan_resync`]), counting the skipped bytes, and the declared
    /// record count is treated as advisory — the decoder reads to the
    /// end of the data, so records past a truncated header count are
    /// recovered and a short file yields what it holds.
    ///
    /// Every salvage event is reported in the returned [`SalvageReport`]
    /// and mirrored into the `salvage/*` metrics.
    pub fn from_bytes_salvage(data: &[u8]) -> Result<(RawTraceFile, SalvageReport)> {
        let sv = crate::view::salvage_views(data)?;
        let mut events = Vec::with_capacity(sv.events.len());
        events.extend(sv.events.iter().map(|v| v.to_owned()));
        Ok((
            RawTraceFile {
                node: sv.node,
                tick_rate: sv.tick_rate,
                events,
            },
            sv.report,
        ))
    }

    /// The pre-zero-copy salvage decoder, kept verbatim (minus the
    /// metric side effects, which the production path already records)
    /// as the differential baseline for the fast-vs-reference oracle.
    pub fn from_bytes_salvage_reference(data: &[u8]) -> Result<(RawTraceFile, SalvageReport)> {
        let rd = RawTraceReader::open(data)?;
        let (node, tick_rate, record_count) = (rd.node, rd.tick_rate, rd.record_count);
        let mut r = ByteReader::new(data);
        r.seek(HEADER_LEN as u64)?;
        let cap = ute_core::codec::clamped_capacity(
            record_count as usize,
            crate::hookword::FIXED_PREFIX,
            data.len(),
        );
        let mut events = Vec::with_capacity(cap);
        let mut report = SalvageReport::default();
        while !r.is_empty() {
            let at = r.pos();
            match RawEvent::decode(&mut r) {
                Ok(ev) => events.push(ev),
                Err(_) => {
                    report.records_skipped += 1;
                    match scan_resync(data, at as usize + 1) {
                        Some(next) => {
                            report.resyncs += 1;
                            report.bytes_skipped += next as u64 - at;
                            r.seek(next as u64)?;
                        }
                        None => {
                            report.truncated_tail = true;
                            report.bytes_skipped += data.len() as u64 - at;
                            break;
                        }
                    }
                }
            }
        }
        report.records = events.len() as u64;
        report.count_mismatch = report.records != record_count;
        Ok((
            RawTraceFile {
                node,
                tick_rate,
                events,
            },
            report,
        ))
    }

    /// Reads a file from disk, memory-mapped where supported (see
    /// [`map_raw_file`]) so decoding views never pays a read-into-buffer
    /// copy of the whole file.
    pub fn read_from(path: &std::path::Path) -> Result<RawTraceFile> {
        let _span = ute_obs::Span::enter("rawtrace", format!("read {}", path.display()));
        RawTraceFile::from_bytes(&map_raw_file(path)?)
    }

    /// Reads a file from disk in salvage mode, memory-mapped where
    /// supported — the salvage resync scan runs directly on the mapping.
    pub fn read_from_salvage(path: &std::path::Path) -> Result<(RawTraceFile, SalvageReport)> {
        let _span = ute_obs::Span::enter("rawtrace", format!("salvage read {}", path.display()));
        RawTraceFile::from_bytes_salvage(&map_raw_file(path)?)
    }

    /// The conventional per-node file name: `<prefix>.<node>.raw`.
    pub fn file_name(prefix: &str, node: NodeId) -> String {
        format!("{prefix}.{}.raw", node.raw())
    }
}

/// Writes the file header: `records` is the count of records that follow.
pub(crate) fn put_header(w: &mut ByteWriter, node: NodeId, tick_rate: u64, records: u64) {
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u16(node.raw());
    w.put_u64(tick_rate);
    w.put_u64(records);
}

/// Opens a raw file's bytes for [`crate::RawTraceView`] or
/// [`crate::salvage_views`] to read in place:
/// [`map_file`](ute_core::mmap::map_file), counting what was mapped
/// (`ute-core` has no metrics registry to count in).
pub fn map_raw_file(path: &std::path::Path) -> Result<ute_core::mmap::FileBytes> {
    let data = ute_core::mmap::map_file(path)?;
    if data.is_mapped() {
        ute_obs::counter("rawtrace/mmap_files").inc();
        ute_obs::counter("rawtrace/mmap_bytes").add(data.len() as u64);
    }
    Ok(data)
}

/// Streaming reader over a serialized raw trace file.
#[derive(Debug)]
pub struct RawTraceReader<'a> {
    /// The node that produced the file.
    pub node: NodeId,
    /// Recorded tick rate.
    pub tick_rate: u64,
    /// Declared number of records.
    pub record_count: u64,
    seen: u64,
    r: ByteReader<'a>,
}

impl<'a> RawTraceReader<'a> {
    /// Validates the header and positions at the first record.
    pub fn open(data: &'a [u8]) -> Result<RawTraceReader<'a>> {
        let mut r = ByteReader::new(data);
        let magic = r.get_bytes(8)?;
        if magic != MAGIC {
            return Err(UteError::corrupt("raw trace file: bad magic"));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(UteError::VersionMismatch {
                profile: VERSION,
                file: version,
            });
        }
        let node = NodeId(r.get_u16()?);
        let tick_rate = r.get_u64()?;
        let record_count = r.get_u64()?;
        Ok(RawTraceReader {
            node,
            tick_rate,
            record_count,
            seen: 0,
            r,
        })
    }

    /// Reads the next record, or `None` after the declared count.
    pub fn next_event(&mut self) -> Result<Option<RawEvent>> {
        if self.seen >= self.record_count {
            return Ok(None);
        }
        let ev = RawEvent::decode(&mut self.r)?;
        self.seen += 1;
        Ok(Some(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::event::EventCode;
    use ute_core::time::LocalTime;

    fn sample_file() -> RawTraceFile {
        let events = (0..50)
            .map(|t| RawEvent::new(EventCode::Syscall, LocalTime(t * 10), vec![t as u8; 3]))
            .collect();
        RawTraceFile::new(NodeId(3), events)
    }

    #[test]
    fn round_trip_bytes() {
        let f = sample_file();
        let bytes = f.to_bytes().unwrap();
        let back = RawTraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn round_trip_disk() {
        let dir = std::env::temp_dir().join("ute_rawtrace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(RawTraceFile::file_name("t", NodeId(3)));
        let f = sample_file();
        std::fs::write(&path, f.to_bytes().unwrap()).unwrap();
        let (back, report) = RawTraceFile::read_from_salvage(&path).unwrap();
        assert_eq!(back, f);
        assert!(report.is_clean());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_file().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            RawTraceFile::from_bytes(&bytes),
            Err(UteError::Corrupt { .. })
        ));
    }

    #[test]
    fn version_mismatch_reported() {
        let mut bytes = sample_file().to_bytes().unwrap();
        bytes[8] = 99; // version field
        assert!(matches!(
            RawTraceFile::from_bytes(&bytes),
            Err(UteError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let bytes = sample_file().to_bytes().unwrap();
        let cut = &bytes[..bytes.len() - 5];
        assert!(RawTraceFile::from_bytes(cut).is_err());
    }

    #[test]
    fn file_name_convention() {
        assert_eq!(RawTraceFile::file_name("run1", NodeId(2)), "run1.2.raw");
    }

    #[test]
    fn salvage_on_clean_file_is_lossless() {
        let f = sample_file();
        let bytes = f.to_bytes().unwrap();
        let (back, report) = RawTraceFile::from_bytes_salvage(&bytes).unwrap();
        assert_eq!(back, f);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records, 50);
    }

    #[test]
    fn salvage_resyncs_past_a_corrupt_record() {
        let f = sample_file();
        let mut bytes = f.to_bytes().unwrap();
        // Destroy the hookword of record 10 (records are 15 bytes:
        // 12-byte prefix + 3-byte payload).
        let at = HEADER_LEN + 10 * 15;
        bytes[at..at + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let (back, report) = RawTraceFile::from_bytes_salvage(&bytes).unwrap();
        // Record 10 is lost, the rest recovered at the next boundary.
        assert_eq!(back.events.len(), 49);
        assert_eq!(report.records_skipped, 1);
        assert_eq!(report.resyncs, 1);
        assert_eq!(report.bytes_skipped, 15);
        assert!(report.count_mismatch);
        assert!(!report.truncated_tail);
        // Survivors are a subset of the originals, in order.
        assert_eq!(&back.events[..10], &f.events[..10]);
        assert_eq!(&back.events[10..], &f.events[11..]);
    }

    #[test]
    fn salvage_handles_truncated_tail() {
        let f = sample_file();
        let mut bytes = f.to_bytes().unwrap();
        let keep = bytes.len() - 7; // mid-record
        bytes.truncate(keep);
        let (back, report) = RawTraceFile::from_bytes_salvage(&bytes).unwrap();
        assert_eq!(back.events.len(), 49);
        assert!(report.truncated_tail);
        assert!(report.count_mismatch);
        assert_eq!(&back.events[..], &f.events[..49]);
    }

    #[test]
    fn salvage_handles_wraparound_overrun_splice() {
        // A wrapped buffer overran unflushed records: a span is spliced
        // out of the body, so the file resumes mid-record.
        let f = sample_file();
        let bytes = f.to_bytes().unwrap();
        let plan = ute_faults::FaultPlan::parse("3:overrun@100+40").unwrap();
        let damaged = plan.apply_to_file(3, bytes, HEADER_LEN).unwrap();
        let (back, report) = RawTraceFile::from_bytes_salvage(&damaged).unwrap();
        assert!(!back.events.is_empty());
        assert!(back.events.len() < 50);
        assert!(report.records_skipped >= 1);
        assert!(report.count_mismatch);
        // The format has no per-record checksum, so the join point can
        // fuse an intact hookword with later bytes into one plausible
        // "Frankenstein" record — but a single splice can fabricate at
        // most one such record; everything else must be an original, in
        // order.
        let mut oi = 0;
        let mut fabricated = 0;
        for ev in &back.events {
            match f.events[oi..].iter().position(|o| o == ev) {
                Some(p) => oi += p + 1,
                None => fabricated += 1,
            }
        }
        assert!(fabricated <= 1, "{fabricated} fabricated records");
    }

    #[test]
    fn salvage_gives_up_on_destroyed_header() {
        let f = sample_file();
        let mut bytes = f.to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(RawTraceFile::from_bytes_salvage(&bytes).is_err());
    }

    #[test]
    fn valid_boundary_rejects_payload_noise() {
        // A boundary candidate must have a parseable hookword AND lead
        // to another boundary (or end-of-data).
        let f = sample_file();
        let bytes = f.to_bytes().unwrap();
        assert!(valid_boundary(&bytes, HEADER_LEN));
        assert!(valid_boundary(&bytes, HEADER_LEN + 15));
        // Offsets inside the fixed prefix are u64 timestamp bytes —
        // small integers whose upper half decodes to no known event.
        assert!(!valid_boundary(&bytes, HEADER_LEN + 4));
        assert!(!valid_boundary(&bytes, bytes.len() - 3));
    }

    #[test]
    fn a_buffer_finishes_into_the_file_to_bytes_writes() {
        use crate::buffer::{TraceBuffer, TraceOptions};
        let mut b = TraceBuffer::with_node(TraceOptions::default(), 3);
        for e in &sample_file().events {
            b.cut(e.code, e.timestamp, &e.payload, false).unwrap();
        }
        assert_eq!(b.finish(), sample_file().to_bytes().unwrap());
    }
}
