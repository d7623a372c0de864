//! # ute-format — the self-defining interval file format
//!
//! The heart of the framework (§2.3–§2.4): a *self-defining* trace format
//! designed around **intervals** (records with a duration, far friendlier
//! to visualization than point events) and around **frames** (so tools can
//! jump into the middle of a huge file without reading what precedes it).
//!
//! Two kinds of file exist:
//!
//! * the **description profile** ([`profile`]) — the meta-format: for each
//!   interval type, the list of field descriptions (data type, element
//!   length, vector bit, field selection attribute, name). "Once a utility
//!   reads the profile, it knows all field names and record names, along
//!   with field sizes, data types, etc."
//! * the **interval file** ([`mod@file`]) — a header (with the profile version
//!   it was written against and a field-selection mask), a thread table
//!   ([`thread_table`]), a marker-string table, and interval records
//!   ([`record`]) partitioned into frames linked by doubly-linked frame
//!   directories ([`frame`]).
//!
//! The reader API mirrors the paper's §2.4 utility library: read the
//! header, read the first frame directory, read the profile, then iterate
//! records with frames hidden ([`file::IntervalFileReader::record_bodies`])
//! and pull fields out by name ([`profile::Profile::get_item_by_name`]).
//!
//! There is one interval-file reader, and it reads a byte slice. A
//! command hands it a file as `ute_core::mmap::map_file` opened it, so
//! "jump into a specific frame without reading or processing any record
//! ahead of the frame" holds of the pages touched:
//! [`file::IntervalFileReader::directories`] reads the directory chain
//! and [`file::IntervalFileReader::frame_records`] one frame.

pub mod codecio;
pub mod datatype;
pub mod file;
pub mod frame;
pub mod plan;
pub mod profile;
pub mod record;
pub mod state;
pub mod thread_table;
mod transcode;
pub mod value;
pub mod view;

pub use datatype::FieldType;
pub use file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
pub use frame::{FrameDirectory, FrameEntry};
pub use plan::{PlanSet, RecordPlan};
pub use profile::{FieldSpec, Profile, RecordSpec};
pub use record::{Interval, IntervalType};
pub use state::StateCode;
pub use thread_table::{ThreadEntry, ThreadTable};
pub use value::Value;
pub use view::{widen_span, Record, RecordFields, RecordView, Retimed};
