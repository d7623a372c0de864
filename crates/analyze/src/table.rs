//! The columnar trace table.
//!
//! Pipit keeps a trace as a dataframe and derives everything else from
//! it; this module is the UTE equivalent. [`TraceTable`] holds one column
//! per record field in parallel `Vec`s, in file order (end-time order,
//! §3.1). It is loaded *through the frame directory*: [`load_table`]
//! walks the directory chain of an interval file and decodes only the
//! frames that overlap the requested time window, so a diagnostic over a
//! slice of a long run never touches most of the file.

use std::path::Path;

use ute_core::bebits::BeBits;
use ute_core::error::{PathContext, Result};
use ute_core::event::MessageEnd;
use ute_core::mmap::map_file;
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::state::StateCode;
use ute_format::RecordFields;

/// Column sentinel for "this record has no such field".
pub const NO_FIELD: u64 = u64::MAX;

/// A column-oriented, in-memory view of one interval file (or of any
/// record sequence), in end-time order.
#[derive(Debug, Default, Clone)]
pub struct TraceTable {
    /// State code of each record.
    pub state: Vec<u16>,
    /// Piece kind (complete / begin / continuation / end).
    pub bebits: Vec<BeBits>,
    /// Start timestamp, ticks.
    pub start: Vec<u64>,
    /// Duration, ticks.
    pub duration: Vec<u64>,
    /// Processor id.
    pub cpu: Vec<u16>,
    /// Node id.
    pub node: Vec<u16>,
    /// Logical thread id.
    pub thread: Vec<u16>,
    /// MPI rank ([`NO_FIELD`] when absent).
    pub rank: Vec<u64>,
    /// Peer rank of a point-to-point call ([`NO_FIELD`] when absent).
    pub peer: Vec<u64>,
    /// Job-wide `(sender rank, seq)` message sequence number (0 = none).
    pub seq: Vec<u64>,
    /// Message bytes (sent or received; 0 when absent).
    pub bytes: Vec<u64>,
    /// Marker id of a marker piece (0 = none).
    pub marker_id: Vec<u32>,
    /// Marker id → name table from the file header.
    pub markers: Vec<(u32, String)>,
}

/// Name indices of the extra fields the table keeps a column for,
/// resolved against the profile once per load rather than once per row.
struct ExtraColumns {
    rank: Option<u16>,
    peer: Option<u16>,
    seq: Option<u16>,
    sent: Option<u16>,
    recvd: Option<u16>,
    marker_id: Option<u16>,
}

impl ExtraColumns {
    fn resolve(profile: &Profile) -> ExtraColumns {
        ExtraColumns {
            rank: profile.field_name_index("rank"),
            peer: profile.field_name_index("peer"),
            seq: profile.field_name_index("seq"),
            sent: profile.field_name_index("msgSizeSent"),
            recvd: profile.field_name_index("msgSizeRecvd"),
            marker_id: profile.field_name_index("markerId"),
        }
    }
}

impl TraceTable {
    /// An empty table carrying a marker table.
    pub fn new(markers: Vec<(u32, String)>) -> TraceTable {
        TraceTable {
            markers,
            ..TraceTable::default()
        }
    }

    /// Makes room for `rows` more rows in every column.
    fn reserve(&mut self, rows: usize) {
        self.state.reserve(rows);
        self.bebits.reserve(rows);
        self.start.reserve(rows);
        self.duration.reserve(rows);
        self.cpu.reserve(rows);
        self.node.reserve(rows);
        self.thread.reserve(rows);
        self.rank.reserve(rows);
        self.peer.reserve(rows);
        self.seq.reserve(rows);
        self.bytes.reserve(rows);
        self.marker_id.reserve(rows);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// End timestamp of row `i`.
    #[inline]
    pub fn end(&self, i: usize) -> u64 {
        self.start[i].saturating_add(self.duration[i])
    }

    /// State code of row `i`.
    #[inline]
    pub fn state_code(&self, i: usize) -> StateCode {
        StateCode(self.state[i])
    }

    /// Row `i`'s message end ([`ute_core::event::MpiOp::message_end`]).
    pub(crate) fn message_end(&self, i: usize) -> Option<MessageEnd> {
        let some = |v: u64| (v != NO_FIELD).then_some(v);
        let (op, ends) = (self.state_code(i).as_mpi()?, self.bebits[i].ends_state());
        op.message_end(ends, some(self.rank[i]), some(self.peer[i]), self.seq[i])
    }

    /// Marker name for a marker id, if known.
    pub fn marker_name(&self, id: u32) -> Option<&str> {
        self.markers
            .iter()
            .find(|(mid, _)| *mid == id)
            .map(|(_, n)| n.as_str())
    }

    /// Appends one decoded record.
    pub fn push(&mut self, profile: &Profile, iv: &Interval) {
        self.push_row(&ExtraColumns::resolve(profile), iv);
    }

    /// The one place a row's columns are derived from a record's fields,
    /// decoded or read off a file in place.
    fn push_row(&mut self, cols: &ExtraColumns, rec: &impl RecordFields) {
        let uint = |idx: Option<u16>| rec.extra_uint(idx?);
        let itype = rec.itype();
        self.state.push(itype.state.0);
        self.bebits.push(itype.bebits);
        self.start.push(rec.start());
        self.duration.push(rec.duration());
        self.cpu.push(rec.cpu().raw());
        self.node.push(rec.node().raw());
        self.thread.push(rec.thread().raw());
        self.rank.push(uint(cols.rank).unwrap_or(NO_FIELD));
        // The converter writes `u32::MAX` for "no peer".
        let peer = uint(cols.peer).unwrap_or(NO_FIELD);
        self.peer.push(if peer == u32::MAX as u64 {
            NO_FIELD
        } else {
            peer
        });
        self.seq.push(uint(cols.seq).unwrap_or(0));
        let sent = uint(cols.sent).unwrap_or(0);
        let recvd = uint(cols.recvd).unwrap_or(0);
        self.bytes.push(sent.max(recvd));
        self.marker_id
            .push(uint(cols.marker_id).unwrap_or(0).min(u32::MAX as u64) as u32);
    }

    /// Builds a table from in-memory records (tests, benches, and the
    /// pipeline's own artifacts before they hit disk).
    pub fn from_intervals(
        profile: &Profile,
        intervals: &[Interval],
        markers: Vec<(u32, String)>,
    ) -> TraceTable {
        let mut t = TraceTable::new(markers);
        let cols = ExtraColumns::resolve(profile);
        for iv in intervals {
            t.push_row(&cols, iv);
        }
        t
    }

    /// Time span `(min start, max end)` of the loaded rows.
    pub fn span(&self) -> Option<(u64, u64)> {
        if self.is_empty() {
            return None;
        }
        let lo = self.start.iter().copied().min().unwrap_or(0);
        let hi = (0..self.len()).map(|i| self.end(i)).max().unwrap_or(0);
        Some((lo, hi))
    }
}

/// What to load from a file: everything, or a time window / node range.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadOptions {
    /// Keep only records overlapping `[t0, t1]` (ticks, inclusive).
    pub window: Option<(u64, u64)>,
    /// Keep only records of nodes in `[a, b]` (inclusive).
    pub nodes: Option<(u16, u16)>,
}

impl LoadOptions {
    /// Record-level filter: does a record spanning `[start, end]` on
    /// `node` belong in the table?
    pub fn admits(&self, start: u64, end: u64, node: u16) -> bool {
        if let Some((t0, t1)) = self.window {
            if end < t0 || start > t1 {
                return false;
            }
        }
        if let Some((a, b)) = self.nodes {
            if node < a || node > b {
                return false;
            }
        }
        true
    }
}

/// Loads an interval file into a [`TraceTable`] through its frame
/// directory chain.
///
/// The file is opened as a mapping ([`map_file`]) and read by the one
/// interval-file reader, so a windowed load touches the pages of the
/// directories and of the frames it decodes, and fails on exactly the
/// files `ute stats`, `ute check` and the fuzzer's walk fail on. A
/// frame whose `[start_time, end_time]` envelope misses the window is
/// skipped without decoding (its entry metadata alone proves no record
/// in it can overlap: `end_time` is the max record end, `start_time` the
/// min record start). The records of the surviving frames are read in
/// place ([`ute_format::Record`]), filtered on their time and node
/// fields, and the admitted ones pushed straight into the columns — no
/// `Interval` is built. Windowed loading stays *exactly* equivalent to
/// loading everything and filtering — a property the test suite checks.
pub fn load_table(path: &Path, profile: &Profile, opts: &LoadOptions) -> Result<TraceTable> {
    let _span = ute_obs::Span::enter("analyze", format!("load {}", path.display()));
    let bytes = map_file(path).in_file(path)?;
    load_from(&bytes, profile, opts).in_file(path)
}

fn load_from(bytes: &[u8], profile: &Profile, opts: &LoadOptions) -> Result<TraceTable> {
    let r = IntervalFileReader::open(bytes, profile)?;
    let mut table = TraceTable::new(r.markers.clone());
    let cols = ExtraColumns::resolve(profile);
    // The directory chain first: which frames overlap the window, and
    // how many rows they can hold at most, so the columns are sized once
    // instead of doubling their way up.
    let mut frames = Vec::new();
    let mut skipped = 0u64;
    for dir in r.directories() {
        for entry in dir?.entries {
            match opts.window {
                Some((t0, t1)) if entry.end_time < t0 || entry.start_time > t1 => skipped += 1,
                _ => frames.push(entry),
            }
        }
    }
    let read = frames.len() as u64;
    // A record is a length byte and a type word at least, whatever a
    // damaged entry counts.
    let rows: u64 = frames
        .iter()
        .map(|e| (e.nrecords as u64).min(e.size / 5))
        .sum();
    table.reserve(rows.min(bytes.len() as u64 / 5) as usize);
    for entry in &frames {
        r.frame_records(entry, |rec| {
            if opts.admits(rec.start(), rec.end(), rec.node().raw()) {
                table.push_row(&cols, &rec);
            }
        })?;
    }
    ute_obs::counter("analyze/frames_read").add(read);
    ute_obs::counter("analyze/frames_skipped").add(skipped);
    ute_obs::counter("analyze/rows").add(table.len() as u64);
    Ok(table)
}
