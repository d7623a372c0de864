//! Zero-copy raw decoding: validate bounds once, then borrow.
//!
//! [`decode_view`] parses one record as a borrowed [`RawEventView`],
//! enforcing exactly the bounds rules the corruption fuzzer probes — a
//! known event code in the hookword, a record length of at least the
//! fixed prefix, and a payload that fits inside the buffer — without
//! copying a byte. [`RawTraceView::open`] runs that validation over the
//! whole file exactly once; afterwards [`RawTraceView::events`] walks
//! the records handing out borrowed views with no per-record error
//! handling and no allocation. [`salvage_views`] is the salvage decoder
//! on the same views: scanning and resynchronizing a damaged file
//! allocates nothing per attempted record, so it is safe to point at a
//! memory-mapped file of any size.
//!
//! The owned decoders ([`crate::RawTraceFile::from_bytes`] and friends)
//! are thin layers over this module; the pre-zero-copy implementations
//! survive (`from_bytes_reference`, `from_bytes_salvage_reference`) as
//! the differential baseline for the fast-vs-reference oracle in
//! `ute-verify`.

use ute_core::codec::ByteReader;
use ute_core::error::{Result, UteError};
use ute_core::event::EventCode;
use ute_core::ids::NodeId;
use ute_core::time::LocalTime;

use crate::file::{scan_resync, RawTraceReader, SalvageReport, HEADER_LEN};
use crate::hookword::Hookword;
use crate::record::RawEvent;

/// One raw trace event, borrowed from the underlying file bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEventView<'a> {
    /// The event type.
    pub code: EventCode,
    /// Local-clock timestamp at which the event was cut.
    pub timestamp: LocalTime,
    /// Type-specific payload bytes, borrowed from the file buffer.
    pub payload: &'a [u8],
}

impl RawEventView<'_> {
    /// Copies the view into an owned [`RawEvent`].
    pub fn to_owned(&self) -> RawEvent {
        RawEvent::new(self.code, self.timestamp, self.payload.to_vec())
    }
}

/// Decodes one record at the reader's position as a borrowed view. The
/// error conditions (and their reported offsets) are byte-for-byte those
/// of the owned decoder: a hookword whose event code is unknown or whose
/// length undercuts the fixed prefix is corrupt at the record start; a
/// buffer that ends inside the prefix or the payload is corrupt at the
/// short field.
#[inline]
pub fn decode_view<'a>(r: &mut ByteReader<'a>) -> Result<RawEventView<'a>> {
    let at = r.pos();
    let hook = Hookword::from_u32(r.get_u32()?).map_err(|e| match e {
        UteError::Corrupt { what, .. } => UteError::corrupt_at(what, at),
        other => other,
    })?;
    let timestamp = LocalTime(r.get_u64()?);
    let payload = r.get_bytes(hook.payload_len())?;
    Ok(RawEventView {
        code: hook.code,
        timestamp,
        payload,
    })
}

/// A raw trace file validated once and read as borrowed views.
///
/// `open` checks the header and walks every declared record's bounds up
/// front; iteration via [`RawTraceView::events`] then cannot fail and
/// cannot read outside `data` — the contract that makes handing out
/// views over a memory-mapped file safe.
#[derive(Debug, Clone, Copy)]
pub struct RawTraceView<'a> {
    /// The node that produced the file.
    pub node: NodeId,
    /// Recorded tick rate.
    pub tick_rate: u64,
    /// Validated record count (the header's declared count, every one of
    /// which was bounds-checked by `open`).
    pub records: usize,
    data: &'a [u8],
}

impl<'a> RawTraceView<'a> {
    /// Validates the header and every record's bounds — the single
    /// validation pass. Reports exactly the error (and offset) the
    /// incremental owned decoder would hit first.
    pub fn open(data: &'a [u8]) -> Result<RawTraceView<'a>> {
        let rd = RawTraceReader::open(data)?;
        let (node, tick_rate, record_count) = (rd.node, rd.tick_rate, rd.record_count);
        let mut r = ByteReader::new(data);
        r.seek(HEADER_LEN as u64)?;
        for _ in 0..record_count {
            decode_view(&mut r)?;
        }
        Ok(RawTraceView {
            node,
            tick_rate,
            records: record_count as usize,
            data,
        })
    }

    /// Iterates the validated records as borrowed views: no copying, no
    /// allocation, no per-record error paths.
    pub fn events(&self) -> ViewIter<'a> {
        let mut r = ByteReader::new(self.data);
        // The seek target was validated by `open`.
        let _ = r.seek(HEADER_LEN as u64);
        ViewIter {
            r,
            remaining: self.records,
        }
    }
}

/// Iterator over a pre-validated file's records as borrowed views.
///
/// Defensive by construction: if the underlying bytes somehow fail to
/// decode (which [`RawTraceView::open`]'s validation rules out), the
/// iterator ends instead of panicking — it can never read out of bounds
/// because every access goes through checked slicing.
pub struct ViewIter<'a> {
    r: ByteReader<'a>,
    remaining: usize,
}

impl<'a> Iterator for ViewIter<'a> {
    type Item = RawEventView<'a>;

    fn next(&mut self) -> Option<RawEventView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        decode_view(&mut self.r).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Salvage-decoded views plus the damage report.
#[derive(Debug)]
pub struct SalvagedViews<'a> {
    /// The node that produced the file.
    pub node: NodeId,
    /// Recorded tick rate.
    pub tick_rate: u64,
    /// Every record recovered, in file order, as borrowed views.
    pub events: Vec<RawEventView<'a>>,
    /// What was recovered and what was given up.
    pub report: SalvageReport,
}

/// Salvage-mode decoding over borrowed views: the same resync algorithm
/// as [`crate::RawTraceFile::from_bytes_salvage`] — header must be
/// intact, every decode failure triggers a bounded forward scan for the
/// next valid hookword boundary, the declared record count is advisory —
/// but scanning allocates nothing and recovered records stay borrowed.
/// The recovered sequence and the [`SalvageReport`] are identical to the
/// owned decoder's, which the fast-vs-reference oracle checks.
pub fn salvage_views(data: &[u8]) -> Result<SalvagedViews<'_>> {
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
        match decode_view(&mut r) {
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
    if !report.is_clean() {
        ute_obs::counter("salvage/records_skipped").add(report.records_skipped);
        ute_obs::counter("salvage/bytes_skipped").add(report.bytes_skipped);
        ute_obs::counter("salvage/resyncs").add(report.resyncs);
    }
    Ok(SalvagedViews {
        node,
        tick_rate,
        events,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::RawTraceFile;

    fn sample() -> (RawTraceFile, Vec<u8>) {
        let events = (0..40)
            .map(|t| RawEvent::new(EventCode::Syscall, LocalTime(t * 7), vec![t as u8; 5]))
            .collect();
        let f = RawTraceFile::new(NodeId(2), events);
        let bytes = f.to_bytes().unwrap();
        (f, bytes)
    }

    #[test]
    fn views_borrow_without_copying() {
        let (f, bytes) = sample();
        let view = RawTraceView::open(&bytes).unwrap();
        assert_eq!(view.node, f.node);
        assert_eq!(view.records, 40);
        let range = bytes.as_ptr_range();
        for (v, owned) in view.events().zip(&f.events) {
            assert_eq!(v.code, owned.code);
            assert_eq!(v.timestamp, owned.timestamp);
            assert_eq!(v.payload, &owned.payload[..]);
            // The payload really points into the file buffer.
            assert!(range.contains(&v.payload.as_ptr()));
            assert_eq!(v.to_owned(), *owned);
        }
        assert_eq!(view.events().count(), 40);
    }

    #[test]
    fn open_reports_the_first_corruption_like_the_owned_decoder() {
        let (_, mut bytes) = sample();
        // Destroy record 3's hookword (records are 17 bytes here).
        let at = HEADER_LEN + 3 * 17;
        bytes[at..at + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let view_err = RawTraceView::open(&bytes).unwrap_err();
        let owned_err = RawTraceFile::from_bytes(&bytes).unwrap_err();
        assert_eq!(view_err.to_string(), owned_err.to_string());
        match view_err {
            UteError::Corrupt { offset, .. } => assert_eq!(offset, Some(at as u64)),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn open_rejects_truncation_without_panicking() {
        let (_, bytes) = sample();
        for keep in (0..bytes.len()).step_by(3) {
            let cut = &bytes[..keep];
            // Any truncation either opens (only when it cleanly holds the
            // declared records — impossible here) or errors; never panics.
            assert!(RawTraceView::open(cut).is_err());
        }
    }

    #[test]
    fn salvage_views_agree_with_owned_salvage() {
        let (_, mut bytes) = sample();
        let at = HEADER_LEN + 10 * 17;
        bytes[at..at + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        bytes.truncate(bytes.len() - 6);
        let sv = salvage_views(&bytes).unwrap();
        let (owned, report) = RawTraceFile::from_bytes_salvage(&bytes).unwrap();
        assert_eq!(sv.report, report);
        assert_eq!(sv.events.len(), owned.events.len());
        for (v, o) in sv.events.iter().zip(&owned.events) {
            assert_eq!(v.to_owned(), *o);
        }
    }
}
