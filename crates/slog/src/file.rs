//! The SLOG file: header, thread table, preview, time-keyed frame index,
//! and frames of records.

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};
use ute_core::ids::{LogicalThreadId, NodeId};
use ute_format::thread_table::ThreadTable;

use crate::preview::Preview;
use crate::record::SlogRecord;

/// Magic bytes opening a SLOG file.
pub const MAGIC: &[u8; 8] = b"UTESLOG\0";

/// Current SLOG format version.
pub const VERSION: u32 = 1;

/// One time-partitioned frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlogFrame {
    /// Frame time span start (inclusive), global ticks.
    pub t_start: u64,
    /// Frame time span end (exclusive), global ticks.
    pub t_end: u64,
    /// Records assigned or pseudo-copied into this frame.
    pub records: Vec<SlogRecord>,
}

impl SlogFrame {
    /// Number of pseudo records in the frame.
    pub fn pseudo_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_pseudo()).count()
    }
}

/// An in-memory SLOG file.
#[derive(Debug, Clone, PartialEq)]
pub struct SlogFile {
    /// The timelines: one per thread, in thread-table order.
    pub threads: ThreadTable,
    /// Unified marker id → string pairs.
    pub markers: Vec<(u32, String)>,
    /// Whole-run preview data.
    pub preview: Preview,
    /// Time-partitioned frames, in time order.
    pub frames: Vec<SlogFrame>,
}

impl SlogFile {
    /// The timeline index of a thread, by (node, logical id).
    pub fn timeline_of(&self, node: NodeId, thread: LogicalThreadId) -> Option<u32> {
        self.threads
            .entries()
            .iter()
            .position(|e| e.node == node && e.logical == thread)
            .map(|i| i as u32)
    }

    /// The frame containing time `t` — a binary search over the frame
    /// index, touching no frame contents (§4's scalability property:
    /// lookup cost is independent of file size).
    pub fn frame_at(&self, t: u64) -> Option<&SlogFrame> {
        if self.frames.is_empty() {
            return None;
        }
        let i = self.frames.partition_point(|f| f.t_end <= t);
        let f = self.frames.get(i)?;
        if f.t_start <= t {
            Some(f)
        } else {
            None
        }
    }

    /// Total records across frames (pseudo copies included).
    pub fn total_records(&self) -> usize {
        self.frames.iter().map(|f| f.records.len()).sum()
    }

    /// Serializes the file: header, thread table, markers, preview,
    /// frame index, frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = ute_obs::Span::enter("slog", "encode slog");
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        self.threads.encode(&mut w);
        w.put_u32(self.markers.len() as u32);
        for (id, name) in &self.markers {
            w.put_u32(*id);
            w.put_str(name);
        }
        self.preview.encode(&mut w);
        // Frame bodies, encoded up front so the index can carry offsets.
        let mut bodies = Vec::with_capacity(self.frames.len());
        for f in &self.frames {
            let mut b = ByteWriter::new();
            for rec in &f.records {
                rec.encode(&mut b);
            }
            bodies.push(b.into_bytes());
        }
        // Frame index: count, then (t_start, t_end, nrecords, offset, size)
        // with offsets relative to the end of the index.
        w.put_u32(self.frames.len() as u32);
        let mut offset = 0u64;
        for (f, b) in self.frames.iter().zip(&bodies) {
            w.put_u64(f.t_start);
            w.put_u64(f.t_end);
            w.put_u32(f.records.len() as u32);
            w.put_u64(offset);
            w.put_u64(b.len() as u64);
            offset += b.len() as u64;
        }
        for b in &bodies {
            w.put_bytes(b);
        }
        w.into_bytes()
    }

    /// Parses a SLOG file.
    pub fn from_bytes(data: &[u8]) -> Result<SlogFile> {
        SlogFile::from_bytes_in(data, None)
    }

    /// Parses the header, the preview and the frame index, and decodes
    /// only the frames that overlap `window` (`[start, end)`, global
    /// ticks; `None`: all of them). The others keep their time span, so
    /// [`SlogFile::frame_at`] still finds them, and have no records: a
    /// reader that draws one window, or only the preview, pays for that
    /// (§4: display time independent of file size). Damage inside a frame
    /// that is not decoded goes unreported here — `ute check` reads
    /// everything.
    pub fn from_bytes_in(data: &[u8], window: Option<(u64, u64)>) -> Result<SlogFile> {
        let mut r = ByteReader::new(data);
        if r.get_bytes(8)? != MAGIC {
            return Err(UteError::corrupt("slog file: bad magic"));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(UteError::VersionMismatch {
                profile: VERSION,
                file: version,
            });
        }
        let threads = ThreadTable::decode(&mut r)?;
        let nmarkers = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nmarkers as usize, 6, r.remaining());
        let mut markers = Vec::with_capacity(cap);
        for _ in 0..nmarkers {
            let id = r.get_u32()?;
            markers.push((id, r.get_str()?));
        }
        let preview = Preview::decode(&mut r)?;
        let nframes = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nframes as usize, 36, r.remaining());
        let mut index = Vec::with_capacity(cap);
        for _ in 0..nframes {
            let t_start = r.get_u64()?;
            let t_end = r.get_u64()?;
            let n = r.get_u32()?;
            let offset = r.get_u64()?;
            let size = r.get_u64()?;
            index.push((t_start, t_end, n, offset, size));
        }
        let body_base = r.pos();
        let mut frames = Vec::with_capacity(cap);
        for (t_start, t_end, n, offset, size) in index {
            if window.is_some_and(|(from, to)| t_start >= to || t_end <= from) {
                frames.push(SlogFrame {
                    t_start,
                    t_end,
                    records: Vec::new(),
                });
                continue;
            }
            let mut fr = ByteReader::new(data);
            let at = body_base
                .checked_add(offset)
                .ok_or_else(|| UteError::corrupt("slog frame offset overflows"))?;
            let past = at
                .checked_add(size)
                .ok_or_else(|| UteError::corrupt("slog frame size overflows"))?;
            fr.seek(at)?;
            let mut records = Vec::with_capacity(ute_core::codec::clamped_capacity(
                n as usize,
                2,
                fr.remaining(),
            ));
            for _ in 0..n {
                records.push(SlogRecord::decode(&mut fr)?);
            }
            if fr.pos() != past {
                return Err(UteError::corrupt("slog frame size mismatch"));
            }
            frames.push(SlogFrame {
                t_start,
                t_end,
                records,
            });
        }
        Ok(SlogFile {
            threads,
            markers,
            preview,
            frames,
        })
    }

    /// Writes to disk.
    pub fn write_to(&self, path: &std::path::Path) -> Result<()> {
        use ute_core::error::PathContext;
        std::fs::write(path, self.to_bytes()).in_file(path)
    }

    /// Reads from disk.
    pub fn read_from(path: &std::path::Path) -> Result<SlogFile> {
        SlogFile::read_from_in(path, None)
    }

    /// [`SlogFile::from_bytes_in`] of a file on disk.
    pub fn read_from_in(path: &std::path::Path, window: Option<(u64, u64)>) -> Result<SlogFile> {
        use ute_core::error::PathContext;
        let data = ute_core::mmap::map_file(path).in_file(path)?;
        SlogFile::from_bytes_in(&data, window).in_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SlogState;
    use ute_core::bebits::BeBits;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::state::StateCode;
    use ute_format::thread_table::ThreadEntry;

    fn sample() -> SlogFile {
        let mut threads = ThreadTable::new();
        threads
            .register(ThreadEntry {
                task: TaskId(0),
                pid: Pid(1),
                system_tid: SystemThreadId(1),
                node: NodeId(0),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let mut preview = Preview::new(0, 300, 3);
        preview.add(StateCode::RUNNING, 0, 300);
        let state = |start: u64, dur: u64, pseudo: bool| {
            SlogRecord::State(SlogState {
                timeline: 0,
                state: StateCode::RUNNING,
                bebits: BeBits::Complete,
                pseudo,
                start,
                duration: dur,
                node: 0,
                cpu: 0,
                marker_id: 0,
            })
        };
        SlogFile {
            threads,
            markers: vec![(1, "Init".into())],
            preview,
            frames: vec![
                SlogFrame {
                    t_start: 0,
                    t_end: 100,
                    records: vec![state(0, 150, false)],
                },
                SlogFrame {
                    t_start: 100,
                    t_end: 200,
                    records: vec![state(0, 150, true), state(120, 30, false)],
                },
                SlogFrame {
                    t_start: 200,
                    t_end: 300,
                    records: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let bytes = f.to_bytes();
        let back = SlogFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn windowed_read_decodes_only_the_frames_it_touches() {
        let f = sample();
        let mut bytes = f.to_bytes();
        let back = SlogFile::from_bytes_in(&bytes, Some((100, 200))).unwrap();
        assert_eq!(back.preview, f.preview);
        assert_eq!(back.frames[1], f.frames[1]);
        assert!(back.frames[0].records.is_empty());
        assert_eq!(back.frame_at(50).unwrap().t_end, 100);
        // An empty window decodes nothing; one tick of a frame, that frame.
        let none = SlogFile::from_bytes_in(&bytes, Some((0, 0))).unwrap();
        assert_eq!(none.total_records(), 0);
        let first = SlogFile::from_bytes_in(&bytes, Some((99, 100))).unwrap();
        assert_eq!(first.frames[0], f.frames[0]);
        assert!(first.frames[1].records.is_empty());
        // Damage in the last frame body (frame 1's second record) is seen
        // only by a read that decodes it.
        let last = bytes.len() - 1;
        bytes.truncate(last);
        assert!(SlogFile::from_bytes(&bytes).is_err());
        assert!(SlogFile::from_bytes_in(&bytes, Some((100, 200))).is_err());
        assert!(SlogFile::from_bytes_in(&bytes, Some((0, 100))).is_ok());
    }

    #[test]
    fn frame_at_binary_searches() {
        let f = sample();
        assert_eq!(f.frame_at(0).unwrap().t_start, 0);
        assert_eq!(f.frame_at(99).unwrap().t_start, 0);
        assert_eq!(f.frame_at(100).unwrap().t_start, 100);
        assert_eq!(f.frame_at(299).unwrap().t_start, 200);
        assert!(f.frame_at(300).is_none());
    }

    #[test]
    fn pseudo_counting() {
        let f = sample();
        assert_eq!(f.frames[1].pseudo_count(), 1);
        assert_eq!(f.total_records(), 3);
    }

    #[test]
    fn timeline_lookup() {
        let f = sample();
        assert_eq!(f.timeline_of(NodeId(0), LogicalThreadId(0)), Some(0));
        assert_eq!(f.timeline_of(NodeId(1), LogicalThreadId(0)), None);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'Z';
        assert!(SlogFile::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        assert!(SlogFile::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
