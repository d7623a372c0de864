//! Interval files: writer and reader (§2.3.3, §2.4, Figure 4).
//!
//! "A valid interval file contains a header, a thread table, and interval
//! records partitioned into multiple frames and frame directories. ...
//! The header of an interval file includes a profile version number, a
//! header version number, the number of thread entries in the thread
//! table, and the field selection mask."
//!
//! The writer streams records (which must arrive in ascending end-time
//! order, §3.1), closes a frame whenever the frame policy says so, and
//! whenever a directory's worth of frames has accumulated writes the
//! directory followed by its frames, back-patching the previous
//! directory's `next` pointer — producing the doubly-linked directory
//! chain of Figure 4.
//!
//! The reader mirrors the paper's API (§2.4): `read_header` →
//! `read_frame_dir` → `get_interval` loop, plus random access by time.

use std::sync::Arc;

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};

use crate::frame::{FrameDirectory, FrameEntry, NO_DIR};
use crate::plan::PlanSet;
use crate::profile::Profile;
use crate::record::{read_record, write_record, Interval};
use crate::thread_table::ThreadTable;
use crate::transcode::{Transcode, TranscodeCache};
use crate::view::{Record, RecordDecoder, RecordFields, Retimed};

/// Magic bytes opening an interval file.
pub const MAGIC: &[u8; 8] = b"UTEIVL\0\0";

/// Current header version.
pub const HEADER_VERSION: u32 = 1;

/// Node id stored in merged files (which span all nodes).
pub const MERGED_NODE: u16 = u16::MAX;

/// When to close frames and directories.
#[derive(Debug, Clone, Copy)]
pub struct FramePolicy {
    /// Maximum records per frame.
    pub max_records_per_frame: usize,
    /// Maximum frame entries per directory.
    pub max_frames_per_dir: usize,
}

impl Default for FramePolicy {
    fn default() -> Self {
        FramePolicy {
            max_records_per_frame: 1024,
            max_frames_per_dir: 64,
        }
    }
}

impl FramePolicy {
    /// A tiny policy useful in tests to force many frames/directories.
    pub fn tiny() -> FramePolicy {
        FramePolicy {
            max_records_per_frame: 4,
            max_frames_per_dir: 2,
        }
    }
}

/// Accumulates one frame's encoded records.
#[derive(Debug, Default)]
struct PendingFrame {
    bytes: ByteWriter,
    nrecords: u32,
    start_time: u64,
    end_time: u64,
}

/// Streaming interval-file writer.
pub struct IntervalFileWriter<'p> {
    profile: &'p Profile,
    mask: u32,
    /// Precompiled field plans, shared with every other file of the
    /// `(profile, mask)` pair — the per-record encode path writes
    /// straight into the frame buffer with no name lookups and no
    /// intermediate body allocation. Record types without a plan fall
    /// back to [`Interval::encode_body`].
    plans: Arc<PlanSet>,
    /// How to write a viewed record of another file by copying its bytes,
    /// per source layout seen ([`IntervalFileWriter::push_retimed`]).
    transcodes: TranscodeCache,
    policy: FramePolicy,
    out: ByteWriter,
    /// Offset of the first-directory pointer in the header (to patch).
    first_dir_ptr_at: u64,
    /// Offset of the previous directory (to patch its `next`).
    prev_dir_at: u64,
    current: PendingFrame,
    pending: Vec<PendingFrame>,
    last_end: u64,
    total_records: u64,
    /// Cached metric handles. Records are added a closed frame at a time:
    /// a per-record add on the shared counter is contended by every
    /// convert worker.
    obs_records: &'static ute_obs::Counter,
    obs_frames: &'static ute_obs::Counter,
    obs_dirs: &'static ute_obs::Counter,
}

impl<'p> IntervalFileWriter<'p> {
    /// Starts a file. `node` is the producing node for per-node files or
    /// [`MERGED_NODE`] for merged files; `markers` is the marker
    /// id→string table.
    pub fn new(
        profile: &'p Profile,
        mask: u32,
        node: u16,
        threads: &ThreadTable,
        markers: &[(u32, String)],
        policy: FramePolicy,
    ) -> IntervalFileWriter<'p> {
        let mut out = ByteWriter::with_capacity(1 << 16);
        out.put_bytes(MAGIC);
        out.put_u32(profile.version);
        out.put_u32(HEADER_VERSION);
        out.put_u32(mask);
        out.put_u16(node);
        threads.encode(&mut out);
        out.put_u32(markers.len() as u32);
        for (id, name) in markers {
            out.put_u32(*id);
            out.put_str(name);
        }
        let first_dir_ptr_at = out.pos();
        out.put_u64(NO_DIR); // patched when the first directory lands
        IntervalFileWriter {
            profile,
            mask,
            plans: PlanSet::shared(profile, mask),
            transcodes: TranscodeCache::default(),
            policy,
            out,
            first_dir_ptr_at,
            prev_dir_at: NO_DIR,
            current: PendingFrame::default(),
            pending: Vec::new(),
            last_end: 0,
            total_records: 0,
            obs_records: ute_obs::counter("format/records_written"),
            obs_frames: ute_obs::counter("format/frames_written"),
            obs_dirs: ute_obs::counter("format/dirs_written"),
        }
    }

    /// Appends a record. Records must arrive in ascending end-time order.
    pub fn push(&mut self, iv: &Interval) -> Result<()> {
        self.check_order(iv.end())?;
        match self.plans.plan(iv.itype.to_u32()) {
            Some(plan) => plan.encode_record_into(iv, &mut self.current.bytes)?,
            None => {
                let body = iv.encode_body(self.profile, self.mask)?;
                write_record(&mut self.current.bytes, &body)?;
            }
        }
        self.record_appended(iv.start, iv.end());
        Ok(())
    }

    /// Appends a record read from another file, under the start and
    /// duration `rec` carries: exactly the bytes
    /// `push(&rec.to_interval())` appends, and its errors. A viewed
    /// record is not decoded for it — its fields are copied across as
    /// bytes (see [`crate::transcode`]) wherever that provably gives the
    /// same result, which for files written under one profile is always.
    pub fn push_retimed(&mut self, rec: &Retimed<'_>) -> Result<()> {
        let (start, end) = (rec.start(), rec.end());
        let Some(view) = rec.source_view() else {
            return self.push(&rec.to_interval());
        };
        self.check_order(end)?;
        let plans = &self.plans;
        let rule = self.transcodes.rule(view.layout(), || {
            Transcode::compile(view.layout(), plans.plan(view.itype().to_u32())?)
        });
        match rule {
            Some(rule) if rule.apply(view, start, rec.duration(), &mut self.current.bytes) => {
                self.record_appended(start, end);
                Ok(())
            }
            _ => self.push(&rec.to_interval()),
        }
    }

    fn check_order(&self, end: u64) -> Result<()> {
        if end < self.last_end {
            return Err(UteError::Invalid(format!(
                "record end {} precedes previous end {}; interval files are end-time ordered",
                end, self.last_end
            )));
        }
        Ok(())
    }

    /// Frame accounting for a record just encoded into the open frame.
    fn record_appended(&mut self, start: u64, end: u64) {
        self.last_end = end;
        if self.current.nrecords == 0 {
            self.current.start_time = start;
            self.current.end_time = end;
        } else {
            self.current.start_time = self.current.start_time.min(start);
            self.current.end_time = self.current.end_time.max(end);
        }
        self.current.nrecords += 1;
        self.total_records += 1;
        if self.current.nrecords as usize >= self.policy.max_records_per_frame {
            self.close_frame();
        }
    }

    fn close_frame(&mut self) {
        if self.current.nrecords == 0 {
            return;
        }
        let next = PendingFrame {
            bytes: ByteWriter::with_capacity(self.current.bytes.pos() as usize),
            ..PendingFrame::default()
        };
        let frame = std::mem::replace(&mut self.current, next);
        self.obs_records.add(frame.nrecords as u64);
        self.obs_frames.inc();
        self.pending.push(frame);
        if self.pending.len() >= self.policy.max_frames_per_dir {
            self.flush_directory();
        }
    }

    fn flush_directory(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let frames = std::mem::take(&mut self.pending);
        self.obs_dirs.inc();
        let dir_at = self.out.pos();
        let header_len =
            crate::frame::DIR_HEADER_LEN + frames.len() * crate::frame::FRAME_ENTRY_LEN;
        // Frame offsets follow the directory contiguously.
        let mut offset = dir_at + header_len as u64;
        let entries: Vec<FrameEntry> = frames
            .iter()
            .map(|f| {
                let e = FrameEntry {
                    offset,
                    size: f.bytes.pos(),
                    nrecords: f.nrecords,
                    start_time: f.start_time,
                    end_time: f.end_time,
                };
                offset += f.bytes.pos();
                e
            })
            .collect();
        let dir = FrameDirectory {
            prev: self.prev_dir_at,
            next: NO_DIR,
            entries,
        };
        dir.encode(&mut self.out);
        for f in &frames {
            self.out.put_bytes(f.bytes.as_bytes());
        }
        // Link the chain.
        if self.prev_dir_at == NO_DIR {
            self.out.patch_u64(self.first_dir_ptr_at, dir_at);
        } else {
            self.out
                .patch_u64(self.prev_dir_at + FrameDirectory::NEXT_FIELD_OFFSET, dir_at);
        }
        self.prev_dir_at = dir_at;
    }

    /// Closes the file, returning its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.close_frame();
        self.flush_directory();
        ute_obs::counter("format/bytes_written").add(self.out.pos());
        self.out.into_bytes()
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.total_records
    }
}

/// A parsed interval-file header plus the means to walk its records.
pub struct IntervalFileReader<'a> {
    data: &'a [u8],
    decoder: RecordDecoder<'a>,
    /// Field selection mask of this file.
    pub mask: u32,
    /// Producing node ([`MERGED_NODE`] for merged files).
    pub node: u16,
    /// The thread table.
    pub threads: ThreadTable,
    /// Marker id → string pairs.
    pub markers: Vec<(u32, String)>,
    /// Offset of the first frame directory.
    pub first_dir: u64,
}

impl<'a> IntervalFileReader<'a> {
    /// The paper's `readHeader`: validates magic and profile version and
    /// loads the thread and marker tables.
    pub fn open(data: &'a [u8], profile: &'a Profile) -> Result<IntervalFileReader<'a>> {
        let mut r = ByteReader::new(data);
        if r.get_bytes(8)? != MAGIC {
            return Err(UteError::corrupt("interval file: bad magic"));
        }
        let profile_version = r.get_u32()?;
        if profile_version != profile.version {
            return Err(UteError::VersionMismatch {
                profile: profile.version,
                file: profile_version,
            });
        }
        let header_version = r.get_u32()?;
        if header_version != HEADER_VERSION {
            return Err(UteError::corrupt(format!(
                "interval file: unsupported header version {header_version}"
            )));
        }
        let mask = r.get_u32()?;
        let node = r.get_u16()?;
        let threads = ThreadTable::decode(&mut r)?;
        let nmarkers = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nmarkers as usize, 6, r.remaining());
        let mut markers = Vec::with_capacity(cap);
        for _ in 0..nmarkers {
            let id = r.get_u32()?;
            markers.push((id, r.get_str()?));
        }
        let first_dir = r.get_u64()?;
        ute_obs::counter("format/files_opened").inc();
        Ok(IntervalFileReader {
            data,
            decoder: RecordDecoder::new(profile, mask, node),
            mask,
            node,
            threads,
            markers,
            first_dir,
        })
    }

    /// Retrieves a marker string by identifier (§2.4).
    pub fn marker_name(&self, id: u32) -> Option<&str> {
        self.markers
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n.as_str())
    }

    /// The paper's `readFrameDir`: reads the directory at `offset`
    /// ([`NO_DIR`] → the first directory).
    pub fn read_frame_dir(&self, offset: u64) -> Result<FrameDirectory> {
        let at = if offset == NO_DIR {
            self.first_dir
        } else {
            offset
        };
        if at == NO_DIR {
            return Err(UteError::NotFound("interval file has no frames".into()));
        }
        ute_obs::counter("format/dir_lookups").inc();
        let mut r = ByteReader::new(self.data);
        r.seek(at)?;
        FrameDirectory::decode(&mut r)
    }

    /// Iterates every directory in chain order.
    pub fn directories(&self) -> DirIter<'a, '_> {
        DirIter {
            reader: self,
            next: self.first_dir,
            prev: NO_DIR,
        }
    }

    /// Hands each record of one frame to `f`, viewed in place where its
    /// layout allows (random access — nothing before the frame is
    /// touched), and checks that the records fill the frame.
    pub fn frame_records(&self, entry: &FrameEntry, f: impl FnMut(Record<'_>)) -> Result<()> {
        ute_obs::counter("format/frames_read").inc();
        ute_obs::counter("format/bytes_read").add(entry.size);
        self.decoder.walk_frame(self.data, entry, f)
    }

    /// Decodes the records of one frame.
    pub fn frame_intervals(&self, entry: &FrameEntry) -> Result<Vec<Interval>> {
        let remaining = self.data.len().saturating_sub(entry.offset as usize);
        let cap = ute_core::codec::clamped_capacity(entry.nrecords as usize, 2, remaining);
        let mut out = Vec::with_capacity(cap);
        self.frame_records(entry, |rec| out.push(rec.into_interval()))?;
        Ok(out)
    }

    /// Retrieves the interval record at an absolute file offset — §2.4's
    /// "to retrieve an interval at a specific location". Returns the
    /// record plus the offset of the byte just past it, so callers can
    /// step through a frame themselves.
    pub fn interval_at(&self, offset: u64) -> Result<(Interval, u64)> {
        let mut r = ByteReader::new(self.data);
        r.seek(offset)?;
        let body = read_record(&mut r)?;
        let iv = self.decoder.read(body)?.into_interval();
        Ok((iv, r.pos()))
    }

    /// Sequential access hiding all frame and directory structure — the
    /// paper's `getInterval` loop. Yields raw record bodies.
    pub fn record_bodies(&self) -> RecordIter<'a, '_> {
        RecordIter {
            reader: self,
            dirs: self.directories(),
            frames: Vec::new(),
            frame_idx: 0,
            in_frame: None,
            remaining: 0,
            failed: false,
        }
    }

    /// Sequential access yielding each record viewed in place where its
    /// layout allows — for readers that want a few fields of each record,
    /// or all fields of a few records.
    pub fn records(&self) -> impl Iterator<Item = Result<Record<'_>>> + '_ {
        self.record_bodies()
            .map(move |body| body.and_then(|b| self.decoder.read(b)))
    }

    /// Sequential access yielding decoded [`Interval`]s.
    pub fn intervals(&self) -> impl Iterator<Item = Result<Interval>> + '_ {
        self.records().map(|rec| rec.map(Record::into_interval))
    }

    /// Finds the frame containing (or next after) time `t` by walking the
    /// directory chain — never touching frame contents.
    pub fn find_frame(&self, t: u64) -> Result<Option<FrameEntry>> {
        ute_obs::counter("format/frame_lookups").inc();
        for dir in self.directories() {
            let dir = dir?;
            if let Some(e) = dir.find_frame(t) {
                return Ok(Some(*e));
            }
        }
        Ok(None)
    }

    /// Total records, from directory metadata alone.
    pub fn total_records(&self) -> Result<u64> {
        let mut n = 0;
        for dir in self.directories() {
            n += dir?.total_records();
        }
        Ok(n)
    }

    /// Trace time span (first frame start, last frame end), from metadata
    /// alone.
    pub fn time_span(&self) -> Result<Option<(u64, u64)>> {
        let mut span: Option<(u64, u64)> = None;
        for dir in self.directories() {
            let dir = dir?;
            for e in &dir.entries {
                span = Some(match span {
                    None => (e.start_time, e.end_time),
                    Some((s, t)) => (s.min(e.start_time), t.max(e.end_time)),
                });
            }
        }
        Ok(span)
    }
}

/// Iterator over the directory chain.
pub struct DirIter<'a, 'r> {
    reader: &'r IntervalFileReader<'a>,
    next: u64,
    prev: u64,
}

impl Iterator for DirIter<'_, '_> {
    type Item = Result<FrameDirectory>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NO_DIR {
            return None;
        }
        // The writer appends directories in file order, so a chain that
        // does not strictly advance is damage — and following it would
        // loop forever.
        if self.prev != NO_DIR && self.next <= self.prev {
            let at = self.next;
            self.next = NO_DIR;
            return Some(Err(UteError::corrupt_at(
                "frame directory chain does not advance",
                at,
            )));
        }
        match self.reader.read_frame_dir(self.next) {
            Ok(dir) => {
                self.prev = self.next;
                self.next = dir.next;
                Some(Ok(dir))
            }
            Err(e) => {
                self.next = NO_DIR;
                Some(Err(e))
            }
        }
    }
}

/// Iterator over raw record bodies, hiding frames and directories.
pub struct RecordIter<'a, 'r> {
    reader: &'r IntervalFileReader<'a>,
    dirs: DirIter<'a, 'r>,
    frames: Vec<FrameEntry>,
    frame_idx: usize,
    in_frame: Option<ByteReader<'a>>,
    remaining: u32,
    failed: bool,
}

impl<'a> Iterator for RecordIter<'a, '_> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(r) = self.in_frame.as_mut() {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    match read_record(r) {
                        Ok(body) => return Some(Ok(body)),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                self.in_frame = None;
            }
            // Next frame in the current directory?
            if self.frame_idx < self.frames.len() {
                let entry = self.frames[self.frame_idx];
                self.frame_idx += 1;
                ute_obs::counter("format/frames_read").inc();
                ute_obs::counter("format/bytes_read").add(entry.size);
                let mut r = ByteReader::new(self.reader.data);
                if let Err(e) = r.seek(entry.offset) {
                    self.failed = true;
                    return Some(Err(e));
                }
                self.remaining = entry.nrecords;
                self.in_frame = Some(r);
                continue;
            }
            // Next directory?
            match self.dirs.next() {
                Some(Ok(dir)) => {
                    self.frames = dir.entries;
                    self.frame_idx = 0;
                }
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MASK_MERGED, MASK_PER_NODE};
    use crate::record::IntervalType;
    use crate::state::StateCode;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};

    fn threads() -> ThreadTable {
        let mut t = ThreadTable::new();
        t.register(crate::thread_table::ThreadEntry {
            task: TaskId(0),
            pid: Pid(100),
            system_tid: SystemThreadId(5000),
            node: NodeId(1),
            logical: LogicalThreadId(0),
            ttype: ThreadType::Mpi,
        })
        .unwrap();
        t
    }

    fn running(start: u64, dur: u64) -> Interval {
        Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            start,
            dur,
            CpuId(0),
            NodeId(1),
            LogicalThreadId(0),
        )
    }

    fn build_file(profile: &Profile, n: u64, policy: FramePolicy) -> Vec<u8> {
        let markers = vec![(1u32, "Initial Phase".to_string())];
        let mut w =
            IntervalFileWriter::new(profile, MASK_PER_NODE, 1, &threads(), &markers, policy);
        for i in 0..n {
            w.push(&running(i * 10, 10)).unwrap();
        }
        w.finish()
    }

    #[test]
    fn header_round_trip() {
        let p = Profile::standard();
        let bytes = build_file(&p, 10, FramePolicy::default());
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        assert_eq!(r.mask, MASK_PER_NODE);
        assert_eq!(r.node, 1);
        assert_eq!(r.threads.len(), 1);
        assert_eq!(r.marker_name(1), Some("Initial Phase"));
        assert_eq!(r.marker_name(2), None);
    }

    #[test]
    fn sequential_iteration_hides_frames() {
        let p = Profile::standard();
        let bytes = build_file(&p, 100, FramePolicy::tiny());
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        assert_eq!(ivs.len(), 100);
        for (i, iv) in ivs.iter().enumerate() {
            assert_eq!(iv.start, i as u64 * 10);
            assert_eq!(iv.node, NodeId(1)); // restored from header
        }
    }

    #[test]
    fn directory_chain_is_doubly_linked() {
        let p = Profile::standard();
        let bytes = build_file(&p, 100, FramePolicy::tiny());
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let dirs: Vec<FrameDirectory> = r.directories().map(|d| d.unwrap()).collect();
        // 100 records / 4 per frame = 25 frames / 2 per dir = 13 dirs.
        assert_eq!(dirs.len(), 13);
        assert_eq!(dirs[0].prev, NO_DIR);
        assert_eq!(dirs.last().unwrap().next, NO_DIR);
        // Forward links visit in order; back links mirror them.
        let mut offsets = vec![r.first_dir];
        for d in &dirs[..dirs.len() - 1] {
            offsets.push(d.next);
        }
        for (i, d) in dirs.iter().enumerate().skip(1) {
            assert_eq!(d.prev, offsets[i - 1], "dir {i} back link");
        }
    }

    #[test]
    fn random_access_by_time() {
        let p = Profile::standard();
        let bytes = build_file(&p, 200, FramePolicy::tiny());
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        // Time 1500 lives in record 150's interval [1500, 1510].
        let frame = r.find_frame(1505).unwrap().unwrap();
        assert!(frame.contains_time(1505));
        let ivs = r.frame_intervals(&frame).unwrap();
        assert!(ivs.iter().any(|iv| iv.start <= 1505 && 1505 <= iv.end()));
        // Past the end: no frame.
        assert!(r.find_frame(999_999).unwrap().is_none());
    }

    #[test]
    fn aggregates_from_metadata() {
        let p = Profile::standard();
        let bytes = build_file(&p, 64, FramePolicy::tiny());
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        assert_eq!(r.total_records().unwrap(), 64);
        assert_eq!(r.time_span().unwrap(), Some((0, 640)));
    }

    #[test]
    fn out_of_order_push_rejected() {
        let p = Profile::standard();
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            1,
            &threads(),
            &[],
            FramePolicy::default(),
        );
        w.push(&running(100, 10)).unwrap();
        assert!(w.push(&running(0, 10)).is_err());
    }

    #[test]
    fn version_mismatch_detected() {
        let p = Profile::standard();
        let bytes = build_file(&p, 5, FramePolicy::default());
        let mut other = Profile::standard();
        other.version = 2;
        assert!(matches!(
            IntervalFileReader::open(&bytes, &other),
            Err(UteError::VersionMismatch {
                profile: 2,
                file: 1
            })
        ));
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let p = Profile::standard();
        let bytes = build_file(&p, 50, FramePolicy::tiny());
        // Cut mid-way through the record area.
        let cut = &bytes[..bytes.len() / 2];
        match IntervalFileReader::open(cut, &p) {
            Err(_) => {} // header itself truncated — fine
            Ok(r) => {
                let res: Result<Vec<_>> = r.intervals().collect();
                assert!(res.is_err());
            }
        }
    }

    #[test]
    fn empty_file_has_no_frames() {
        let p = Profile::standard();
        let w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            1,
            &threads(),
            &[],
            FramePolicy::default(),
        );
        let bytes = w.finish();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        assert_eq!(r.total_records().unwrap(), 0);
        assert_eq!(r.time_span().unwrap(), None);
        assert_eq!(r.intervals().count(), 0);
        assert!(r.read_frame_dir(NO_DIR).is_err());
    }

    #[test]
    fn merged_mask_round_trip_preserves_node() {
        let p = Profile::standard();
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_MERGED,
            MERGED_NODE,
            &ThreadTable::new(),
            &[],
            FramePolicy::default(),
        );
        let mut iv = running(0, 5);
        iv.node = NodeId(7);
        w.push(&iv).unwrap();
        let bytes = w.finish();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        assert_eq!(ivs[0].node, NodeId(7));
    }
}

#[cfg(test)]
mod api_completeness_tests {
    use super::*;
    use crate::profile::MASK_PER_NODE;
    use crate::record::IntervalType;
    use crate::state::StateCode;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};

    #[test]
    fn interval_at_steps_through_a_frame() {
        let p = Profile::standard();
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            0,
            &ThreadTable::new(),
            &[],
            FramePolicy::default(),
        );
        for i in 0..10u64 {
            w.push(&Interval::basic(
                IntervalType::complete(StateCode::RUNNING),
                i * 100,
                50,
                CpuId(0),
                NodeId(0),
                LogicalThreadId(0),
            ))
            .unwrap();
        }
        let bytes = w.finish();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let dir = r.read_frame_dir(NO_DIR).unwrap();
        let frame = dir.entries[0];
        // Walk the frame record by record via interval_at.
        let mut at = frame.offset;
        for i in 0..frame.nrecords as u64 {
            let (iv, next) = r.interval_at(at).unwrap();
            assert_eq!(iv.start, i * 100);
            assert!(next > at);
            at = next;
        }
        assert_eq!(at, frame.offset + frame.size);
        // A bogus offset fails, it does not panic.
        assert!(r.interval_at(bytes.len() as u64 + 5).is_err());
    }
}
