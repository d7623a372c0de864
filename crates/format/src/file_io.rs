//! File-backed streaming access to interval files.
//!
//! [`crate::file::IntervalFileReader`] wants the whole file in memory;
//! that is fine for utilities that read everything anyway, but the whole
//! point of frames and frame directories (§2.3.3) is that a viewer can
//! work with files far larger than memory, touching only the directories
//! and the one frame it displays. [`FileIntervalReader`] does exactly
//! that over a [`std::fs::File`]: the header, thread table and marker
//! table are read once; every frame directory and frame is fetched with
//! a seek + bounded read.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use ute_core::codec::ByteReader;
use ute_core::error::{Result, UteError};

use crate::file::{HEADER_VERSION, MAGIC};
use crate::frame::{FrameDirectory, FrameEntry, DIR_HEADER_LEN, FRAME_ENTRY_LEN, NO_DIR};
use crate::profile::Profile;
use crate::record::Interval;
use crate::thread_table::ThreadTable;
use crate::view::{Record, RecordDecoder};

/// Positioned reads over a [`File`] with the codec's vocabulary.
struct FileCursor {
    file: File,
    /// File length at open: no read is sized past it, whatever a damaged
    /// directory claims.
    len: u64,
}

impl FileCursor {
    /// Fills `buf` with the `len` bytes at `offset`.
    fn read_into(&mut self, buf: &mut Vec<u8>, offset: u64, len: u64, what: &str) -> Result<()> {
        let short = || UteError::corrupt_at(format!("{what}: short read of {len} bytes"), offset);
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(short());
        }
        self.file.seek(SeekFrom::Start(offset))?;
        buf.resize(len as usize, 0);
        self.file.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                short()
            } else {
                UteError::Io(e)
            }
        })
    }

    fn read_at(&mut self, offset: u64, len: usize, what: &str) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_into(&mut buf, offset, len as u64, what)?;
        Ok(buf)
    }
}

/// The fixed header fields: (mask, node, thread table, marker table).
type ParsedHeader = (u32, u16, ThreadTable, Vec<(u32, String)>);

/// Streaming interval-file reader over an open file.
pub struct FileIntervalReader<'p> {
    cursor: FileCursor,
    decoder: RecordDecoder<'p>,
    /// The frame being walked; one buffer serves every frame.
    frame: Vec<u8>,
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

impl<'p> FileIntervalReader<'p> {
    /// Opens an interval file, reading only its header region.
    pub fn open(path: &Path, profile: &'p Profile) -> Result<FileIntervalReader<'p>> {
        use ute_core::error::PathContext;
        let file = File::open(path).in_file(path)?;
        let total = file.metadata().in_file(path)?.len();
        let mut cursor = FileCursor { file, len: total };
        // The header is variable-length (thread table + marker strings).
        // Read a generous prefix and parse it with the slice reader; grow
        // if it turns out to be longer.
        let mut prefix_len = 64 * 1024;
        loop {
            let len = prefix_len.min(total) as usize;
            let buf = cursor.read_at(0, len, "interval file header")?;
            let mut r = ByteReader::new(&buf);
            match Self::parse_header(&mut r) {
                Ok((mask, node, threads, markers)) => {
                    // first_dir pointer follows the marker table.
                    let first_dir = r.get_u64()?;
                    return Ok(FileIntervalReader {
                        cursor,
                        decoder: RecordDecoder::new(profile, mask, node),
                        frame: Vec::new(),
                        mask,
                        node,
                        threads,
                        markers,
                        first_dir,
                    });
                }
                Err(_) if (len as u64) < total => {
                    prefix_len *= 4; // header longer than the prefix: retry
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Length of the file in bytes, as of opening it.
    pub fn file_len(&self) -> u64 {
        self.cursor.len
    }

    fn parse_header(r: &mut ByteReader<'_>) -> Result<ParsedHeader> {
        if r.get_bytes(8)? != MAGIC {
            return Err(UteError::corrupt("interval file: bad magic"));
        }
        let _profile_version = r.get_u32()?;
        let header_version = r.get_u32()?;
        if header_version != HEADER_VERSION {
            return Err(UteError::corrupt(format!(
                "interval file: unsupported header version {header_version}"
            )));
        }
        let mask = r.get_u32()?;
        let node = r.get_u16()?;
        let threads = ThreadTable::decode(r)?;
        let nmarkers = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nmarkers as usize, 6, r.remaining());
        let mut markers = Vec::with_capacity(cap);
        for _ in 0..nmarkers {
            let id = r.get_u32()?;
            markers.push((id, r.get_str()?));
        }
        Ok((mask, node, threads, markers))
    }

    /// Reads the frame directory at `offset` ([`NO_DIR`] → the first)
    /// with two bounded reads: the fixed header, then the entries.
    pub fn read_frame_dir(&mut self, offset: u64) -> Result<FrameDirectory> {
        let at = if offset == NO_DIR {
            self.first_dir
        } else {
            offset
        };
        if at == NO_DIR {
            return Err(UteError::NotFound("interval file has no frames".into()));
        }
        let head = self
            .cursor
            .read_at(at, DIR_HEADER_LEN, "frame directory header")?;
        let mut r = ByteReader::new(&head);
        let size = r.get_u32()? as usize;
        let nframes = r.get_u32()? as usize;
        if size != DIR_HEADER_LEN + nframes * FRAME_ENTRY_LEN {
            return Err(UteError::corrupt_at("frame directory size mismatch", at));
        }
        let body = self.cursor.read_at(at, size, "frame directory")?;
        let mut r = ByteReader::new(&body);
        FrameDirectory::decode(&mut r)
    }

    /// Fetches one frame with a single bounded read and hands each of
    /// its records to `f`, viewed in place where its layout allows.
    pub fn for_each_record(&mut self, entry: &FrameEntry, f: impl FnMut(Record<'_>)) -> Result<()> {
        self.cursor
            .read_into(&mut self.frame, entry.offset, entry.size, "frame")?;
        self.decoder.walk_frame(&self.frame, 0, entry, f)
    }

    /// Decodes one frame's records.
    pub fn frame_intervals(&mut self, entry: &FrameEntry) -> Result<Vec<Interval>> {
        let cap =
            ute_core::codec::clamped_capacity(entry.nrecords as usize, 2, entry.size as usize);
        let mut out = Vec::with_capacity(cap);
        self.for_each_record(entry, |rec| out.push(rec.into_interval()))?;
        Ok(out)
    }

    /// Finds the frame containing (or next after) `t` by walking the
    /// directory chain — reading directories only.
    pub fn find_frame(&mut self, t: u64) -> Result<Option<FrameEntry>> {
        let mut at = self.first_dir;
        while at != NO_DIR {
            let dir = self.read_frame_dir(at)?;
            if let Some(e) = dir.find_frame(t) {
                return Ok(Some(*e));
            }
            at = dir.next;
        }
        Ok(None)
    }

    /// Total records, from directory metadata alone.
    pub fn total_records(&mut self) -> Result<u64> {
        let mut n = 0;
        let mut at = self.first_dir;
        while at != NO_DIR {
            let dir = self.read_frame_dir(at)?;
            n += dir.total_records();
            at = dir.next;
        }
        Ok(n)
    }

    /// Streams every record in order, frame by frame, calling `f` for
    /// each — the sequential `getInterval` loop without holding more than
    /// one frame in memory.
    pub fn for_each_interval(&mut self, mut f: impl FnMut(Interval)) -> Result<u64> {
        let mut n = 0;
        let mut at = self.first_dir;
        while at != NO_DIR {
            let dir = self.read_frame_dir(at)?;
            for entry in &dir.entries {
                for iv in self.frame_intervals(entry)? {
                    f(iv);
                    n += 1;
                }
            }
            at = dir.next;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
    use crate::profile::MASK_PER_NODE;
    use crate::record::IntervalType;
    use crate::state::StateCode;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};

    fn write_sample(path: &Path, n: u64) -> Profile {
        let p = Profile::standard();
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            2,
            &ThreadTable::new(),
            &[(1, "Phase".into())],
            FramePolicy::tiny(),
        );
        for i in 0..n {
            w.push(&Interval::basic(
                IntervalType::complete(StateCode::RUNNING),
                i * 10,
                8,
                CpuId(0),
                NodeId(2),
                LogicalThreadId(0),
            ))
            .unwrap();
        }
        std::fs::write(path, w.finish()).unwrap();
        p
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ute_fileio_{name}_{}.ivl", std::process::id()))
    }

    #[test]
    fn streaming_reader_agrees_with_in_memory_reader() {
        let path = tmp("agree");
        let profile = write_sample(&path, 123);
        let bytes = std::fs::read(&path).unwrap();
        let mem = IntervalFileReader::open(&bytes, &profile).unwrap();
        let mem_ivs: Vec<Interval> = mem.intervals().map(|x| x.unwrap()).collect();

        let mut f = FileIntervalReader::open(&path, &profile).unwrap();
        assert_eq!(f.mask, mem.mask);
        assert_eq!(f.node, mem.node);
        assert_eq!(f.markers, mem.markers);
        let mut streamed = Vec::new();
        let n = f.for_each_interval(|iv| streamed.push(iv)).unwrap();
        assert_eq!(n, 123);
        assert_eq!(streamed, mem_ivs);
        assert_eq!(f.total_records().unwrap(), 123);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_access_reads_one_frame() {
        let path = tmp("random");
        let profile = write_sample(&path, 200);
        let mut f = FileIntervalReader::open(&path, &profile).unwrap();
        let entry = f.find_frame(1_500).unwrap().unwrap();
        assert!(entry.contains_time(1_500));
        let ivs = f.frame_intervals(&entry).unwrap();
        assert_eq!(ivs.len(), entry.nrecords as usize);
        assert!(ivs.iter().any(|iv| iv.start <= 1_500 && 1_500 <= iv.end()));
        assert!(f.find_frame(10_000_000).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_truncated_files_fail_cleanly() {
        let profile = Profile::standard();
        assert!(FileIntervalReader::open(Path::new("/nonexistent/x.ivl"), &profile).is_err());
        let path = tmp("trunc");
        write_sample(&path, 50);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut f = FileIntervalReader::open(&path, &profile).unwrap();
        // Streaming over the truncated tail errors rather than panicking.
        assert!(f.for_each_interval(|_| {}).is_err());
        std::fs::remove_file(&path).ok();
    }
}
