//! # ute-rawtrace — the raw event trace substrate
//!
//! The paper uses "the native trace facility in the IBM SP systems ...
//! capable of capturing a sequential flow of time-stamped events to provide
//! a fine or coarse level of detail on system and user activities in a
//! single stream" (§2.0). This crate is that facility's stand-in:
//!
//! * [`hookword`] — the one-word record header identifying event type and
//!   record length (§2.1).
//! * [`record`] — raw event records (hookword + timestamp + payload) and
//!   the typed payloads cut by the wrappers: thread dispatch, global-clock
//!   samples, markers, and MPI call arguments.
//! * [`buffer`] — the per-node trace buffer with configurable size, event
//!   enable mask, delayed start, and flush accounting; records are
//!   encoded once, in place, into the bytes of the node's raw file.
//! * [`mod@file`] — the on-disk raw trace file, one per node; read from
//!   disk through [`map_raw_file`], so the view decoder runs on the
//!   mapping. The owned [`RawTraceFile`] is the decoding adapter for
//!   tests, examples and the benchmark.
//! * [`view`] — zero-copy decoding: validate record bounds once, then
//!   hand out borrowed [`RawEventView`]s instead of copying per record;
//!   salvage resync runs on the same views.
//! * [`facility`] — the per-node tracing handle the simulator (and a
//!   traced program) uses to cut records; it owns the message sequence
//!   numbers that let utilities match sends with receives.
//! * [`cost`] — the three-part cost model of cutting a record (§2.1).

pub mod buffer;
pub mod cost;
pub mod facility;
pub mod file;
pub mod hookword;
pub mod record;
pub mod view;

pub use buffer::{BufferMode, TraceBuffer, TraceOptions};
pub use facility::TraceFacility;
pub use file::{map_raw_file, RawTraceFile, RawTraceReader, SalvageReport};
pub use hookword::Hookword;
pub use record::{
    ClockPayload, DispatchPayload, MarkerDefPayload, MarkerPayload, MpiPayload, RawEvent,
};
pub use view::{decode_view, salvage_views, RawEventView, RawTraceView, SalvagedViews};
