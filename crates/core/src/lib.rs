//! # ute-core — shared vocabulary for the Unified Trace Environment
//!
//! This crate holds the types every other UTE crate speaks: entity
//! identifiers ([`ids`]), simulated time ([`time`]), trace event codes
//! ([`event`]), interval begin/end bits ([`bebits`]), the common error type
//! ([`error`]), a small little-endian byte codec ([`codec`]) used by the
//! raw-trace, interval, and SLOG file formats, the one worker pool
//! ([`pool`]) that `--jobs N` means in convert and merge alike, and the
//! one way a command gets an artifact's bytes ([`mmap`]: a read-only
//! mapping where the target has one, `fs::read` otherwise).
//!
//! The vocabulary follows the SC 2000 paper *"From Trace Generation to
//! Visualization: A Performance Framework for Distributed Parallel Systems"*
//! (Wu et al.): trace records are identified by a *hookword* carrying an
//! event type and record length; intervals carry two *bebits* distinguishing
//! complete / begin / continuation / end pieces; threads are identified per
//! node by a logical thread id (up to 512 per node).

pub mod bebits;
pub mod codec;
pub mod error;
pub mod event;
pub mod ids;
pub mod mmap;
pub mod pool;
pub mod time;

pub use bebits::BeBits;
pub use error::{Result, UteError};
pub use event::{EventCode, MessageEnd, Messages, MpiOp};
pub use ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
pub use time::{Duration, LocalTime, Time, TICKS_PER_SEC};
