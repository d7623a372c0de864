//! The per-node trace buffer.
//!
//! §2.1: "a mechanism is provided to specify a set of trace options, such
//! as the name prefix of the trace files, trace buffer size, and events to
//! be traced. By default tracing starts at the start of program execution.
//! The user can also delay trace generation until a later point to trace
//! only a portion of the code to substantially reduce the amount of trace
//! data."
//!
//! Records are encoded into a fixed-size in-memory buffer; when it fills,
//! the buffer either flushes to the backing store (the common mode) or
//! drops further records (single-buffer mode), with drops counted so the
//! loss is visible.
//!
//! Buffer and backing store are one byte vector laid out as the node's
//! raw file (header, flushed records, records in flight): a record is
//! encoded in place once, and a flush only moves the boundary between
//! flushed and in-flight bytes (DESIGN "Raw records are bytes").

use ute_core::codec::ByteWriter;
use ute_core::error::Result;
use ute_core::event::{EventClass, EventCode};
use ute_core::ids::NodeId;
use ute_core::time::{LocalTime, TICKS_PER_SEC};
use ute_faults::FaultPlan;

use crate::cost::{CostLedger, CostModel};
use crate::file::{put_header, HEADER_LEN};
use crate::hookword::FIXED_PREFIX;
use crate::record::put_record;

/// What happens when the trace buffer fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BufferMode {
    /// Flush the buffer to the backing store and keep tracing.
    #[default]
    Flush,
    /// Stop collecting: further records are dropped (and counted).
    StopWhenFull,
}

/// Trace options, per §2.1.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Name prefix of the trace files (one per node: `<prefix>.<node>.raw`).
    pub file_prefix: String,
    /// Trace buffer size in bytes.
    pub buffer_size: usize,
    /// Bitmask of enabled [`EventClass`]es (bit index = `class.bit()`).
    pub enabled_classes: u8,
    /// If set, records cut before this local time are discarded (delayed
    /// trace start).
    pub start_after: Option<LocalTime>,
    /// Behaviour on buffer full.
    pub mode: BufferMode,
    /// Modelled per-record costs.
    pub cost: CostModel,
    /// Optional fault-injection plan. Buffer-level faults (dropped
    /// flushes, clock jumps) are applied live while records are cut;
    /// byte-level faults are applied by whoever writes the file.
    pub faults: Option<FaultPlan>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            file_prefix: "trace".into(),
            buffer_size: 1 << 20,
            enabled_classes: 0xff,
            start_after: None,
            mode: BufferMode::Flush,
            cost: CostModel::default(),
            faults: None,
        }
    }
}

impl TraceOptions {
    /// Enables only the listed classes (Control is always kept enabled so
    /// trace start/stop bookkeeping survives).
    pub fn with_classes(mut self, classes: &[EventClass]) -> TraceOptions {
        let mut mask = 1u8 << EventClass::Control.bit();
        for c in classes {
            mask |= 1 << c.bit();
        }
        self.enabled_classes = mask;
        self
    }

    /// Whether a class is enabled.
    pub fn class_enabled(&self, class: EventClass) -> bool {
        self.enabled_classes & (1 << class.bit()) != 0
    }
}

/// The in-memory trace buffer and its flush/drop accounting.
#[derive(Debug)]
pub struct TraceBuffer {
    opts: TraceOptions,
    /// The node's raw file so far: header, flushed records, in-flight
    /// records.
    file: ByteWriter,
    /// End of the flushed records: the in-flight buffer starts here.
    flushed_to: u64,
    /// Records in `file`, and how many of them lie before `flushed_to`.
    records: u64,
    flushed_records: u64,
    /// Number of flushes performed.
    pub flush_count: u64,
    /// Records dropped (StopWhenFull mode, or cut before delayed start).
    pub dropped: u64,
    /// Tracing-overhead ledger.
    pub ledger: CostLedger,
    /// Whether tracing is currently on (between start and stop).
    active: bool,
    /// Records inserted so far (fault clock-jump indexing).
    inserted: u64,
    /// Flush indices to discard (injected dropped-flush faults).
    drop_flushes: Vec<u32>,
    /// Injected clock step: from record `after` on, timestamps move by
    /// `delta` ticks.
    clock_jump: Option<(u64, i64)>,
    /// Cached metric handles — the cut path runs once per simulated
    /// event, so each update must stay a single atomic add.
    obs_cut: &'static ute_obs::Counter,
    obs_wrapped: &'static ute_obs::Counter,
    obs_fills: &'static ute_obs::Counter,
    obs_flushes: &'static ute_obs::Counter,
    obs_dropped: &'static ute_obs::Counter,
    obs_bytes: &'static ute_obs::Counter,
}

impl TraceBuffer {
    /// Creates a buffer with the given options; tracing starts active
    /// unless a delayed start is configured. Fault plans are resolved
    /// for node 0 — use [`TraceBuffer::with_node`] when the plan must be
    /// narrowed to a specific node.
    pub fn new(opts: TraceOptions) -> TraceBuffer {
        TraceBuffer::with_node(opts, 0)
    }

    /// [`TraceBuffer::new`] for a specific node, whose id the file's
    /// header carries: buffer-level faults in `opts.faults` planned for
    /// other nodes are ignored.
    pub fn with_node(opts: TraceOptions, node: u16) -> TraceBuffer {
        let drop_flushes = opts
            .faults
            .as_ref()
            .map(|p| p.dropped_flushes(node))
            .unwrap_or_default();
        let clock_jump = opts.faults.as_ref().and_then(|p| p.clock_jump(node));
        let mut file = ByteWriter::with_capacity(HEADER_LEN + opts.buffer_size.min(1 << 16));
        put_header(&mut file, NodeId(node), TICKS_PER_SEC, 0);
        TraceBuffer {
            flushed_to: file.pos(),
            file,
            records: 0,
            flushed_records: 0,
            flush_count: 0,
            dropped: 0,
            ledger: CostLedger::default(),
            active: true,
            inserted: 0,
            drop_flushes,
            clock_jump,
            obs_cut: ute_obs::counter("rawtrace/records_cut"),
            obs_wrapped: ute_obs::counter("rawtrace/records_wrapped"),
            obs_fills: ute_obs::counter("rawtrace/buffer_fills"),
            obs_flushes: ute_obs::counter("rawtrace/flushes"),
            obs_dropped: ute_obs::counter("rawtrace/dropped"),
            obs_bytes: ute_obs::counter("rawtrace/bytes_flushed"),
            opts,
        }
    }

    /// Turns tracing off (records are dropped but still cost the enable
    /// test).
    pub fn stop(&mut self) {
        self.active = false;
    }

    /// Turns tracing back on.
    pub fn start(&mut self) {
        self.active = true;
    }

    /// Cuts a record, encoding it in place. Returns `true` if it was
    /// inserted, `false` if it was filtered (class disabled, before
    /// delayed start, tracing stopped, or buffer full in
    /// [`BufferMode::StopWhenFull`]).
    pub fn cut(
        &mut self,
        code: EventCode,
        timestamp: LocalTime,
        payload: &[u8],
        wrapped: bool,
    ) -> Result<bool> {
        if !self.active || !self.opts.class_enabled(code.class()) {
            self.ledger.charge_rejected(&self.opts.cost);
            return Ok(false);
        }
        if let Some(after) = self.opts.start_after {
            if timestamp < after {
                self.ledger.charge_rejected(&self.opts.cost);
                self.dropped += 1;
                self.obs_dropped.inc();
                return Ok(false);
            }
        }
        let need = (FIXED_PREFIX + payload.len()) as u64;
        if self.file.pos() - self.flushed_to + need > self.opts.buffer_size as u64 {
            self.obs_fills.inc();
            match self.opts.mode {
                BufferMode::Flush => self.flush(),
                BufferMode::StopWhenFull => {
                    self.ledger.charge_rejected(&self.opts.cost);
                    self.dropped += 1;
                    self.obs_dropped.inc();
                    return Ok(false);
                }
            }
        }
        // An injected clock jump steps the timestamp word as it is written.
        let timestamp = match self.clock_jump {
            Some((after, delta)) if self.inserted >= after => {
                LocalTime(timestamp.ticks().saturating_add_signed(delta))
            }
            _ => timestamp,
        };
        put_record(&mut self.file, code, timestamp, payload)?;
        self.records += 1;
        self.inserted += 1;
        self.ledger.charge_cut(&self.opts.cost, wrapped);
        self.obs_cut.inc();
        if wrapped {
            self.obs_wrapped.inc();
        }
        Ok(true)
    }

    /// Flushes the in-flight buffer to the backing store. An injected
    /// dropped-flush fault discards the buffer contents instead — a
    /// whole contiguous run of records silently lost, exactly what an
    /// asynchronous flush that never completed looks like on disk.
    pub fn flush(&mut self) {
        let pending = self.file.pos() - self.flushed_to;
        if pending > 0 {
            if self.drop_flushes.contains(&(self.flush_count as u32)) {
                ute_obs::counter("faults/flushes_dropped").inc();
                self.dropped += 1;
                self.file.truncate(self.flushed_to);
                self.records = self.flushed_records;
            } else {
                self.obs_bytes.add(pending);
                self.obs_flushes.inc();
                self.flushed_to = self.file.pos();
                self.flushed_records = self.records;
            }
            self.flush_count += 1;
        }
    }

    /// Flushes and returns the node's raw file: the header, carrying the
    /// count of records that survived, and every flushed record.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.file.patch_u64(HEADER_LEN as u64 - 8, self.records);
        self.file.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::RawTraceFile;
    use crate::record::RawEvent;

    /// A 16-byte Syscall record at `t`.
    fn cut(b: &mut TraceBuffer, t: u64, wrapped: bool) -> Result<bool> {
        b.cut(EventCode::Syscall, LocalTime(t), &[0; 4], wrapped)
    }

    fn decode_all(file: &[u8]) -> Vec<RawEvent> {
        RawTraceFile::from_bytes(file).unwrap().events
    }

    #[test]
    fn cut_and_finish_round_trip() {
        let mut b = TraceBuffer::new(TraceOptions::default());
        for t in 0..100 {
            assert!(cut(&mut b, t, false).unwrap());
        }
        let events = decode_all(&b.finish());
        assert_eq!(events.len(), 100);
        assert_eq!(events[7].timestamp, LocalTime(7));
    }

    #[test]
    fn small_buffer_flushes() {
        let opts = TraceOptions {
            buffer_size: 64, // fits 4 records of 16 bytes
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::new(opts);
        for t in 0..10 {
            assert!(cut(&mut b, t, false).unwrap());
        }
        assert!(
            b.flush_count >= 2,
            "expected flushes, got {}",
            b.flush_count
        );
        assert_eq!(decode_all(&b.finish()).len(), 10);
    }

    #[test]
    fn stop_when_full_drops_and_counts() {
        let opts = TraceOptions {
            buffer_size: 32, // 2 records
            mode: BufferMode::StopWhenFull,
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::new(opts);
        let mut inserted = 0;
        for t in 0..10 {
            if cut(&mut b, t, false).unwrap() {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 2);
        assert_eq!(b.dropped, 8);
        assert_eq!(decode_all(&b.finish()).len(), 2);
    }

    #[test]
    fn class_mask_filters() {
        let opts = TraceOptions::default().with_classes(&[EventClass::Mpi]);
        let mut b = TraceBuffer::new(opts);
        // Syscall is System class — disabled.
        assert!(!cut(&mut b, 1, false).unwrap());
        let mpi = EventCode::MpiBegin(ute_core::event::MpiOp::Send);
        assert!(b.cut(mpi, LocalTime(2), &[], true).unwrap());
        assert_eq!(b.ledger.records_cut, 1);
        assert_eq!(b.ledger.tests_rejected, 1);
    }

    #[test]
    fn delayed_start_discards_early_records() {
        let opts = TraceOptions {
            start_after: Some(LocalTime(50)),
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::new(opts);
        assert!(!cut(&mut b, 10, false).unwrap());
        assert!(cut(&mut b, 60, false).unwrap());
        assert_eq!(b.dropped, 1);
        let events = decode_all(&b.finish());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].timestamp, LocalTime(60));
    }

    #[test]
    fn stop_start_toggle() {
        let mut b = TraceBuffer::new(TraceOptions::default());
        assert!(cut(&mut b, 1, false).unwrap());
        b.stop();
        assert!(!cut(&mut b, 2, false).unwrap());
        b.start();
        assert!(cut(&mut b, 3, false).unwrap());
        assert_eq!(decode_all(&b.finish()).len(), 2);
    }

    #[test]
    fn dropped_flush_fault_loses_one_contiguous_run() {
        let opts = TraceOptions {
            buffer_size: 64, // 4 records of 16 bytes per flush
            faults: Some(ute_faults::FaultPlan::parse("3:dropflush@1").unwrap()),
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::with_node(opts, 3);
        for t in 0..12 {
            assert!(cut(&mut b, t, false).unwrap());
        }
        let events = decode_all(&b.finish());
        // Flush 1 (records 4..8) vanished; every survivor is intact.
        assert_eq!(events.len(), 8);
        let times: Vec<u64> = events.iter().map(|e| e.timestamp.ticks()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 8, 9, 10, 11]);
    }

    #[test]
    fn dropped_flush_fault_ignores_other_nodes() {
        let opts = TraceOptions {
            buffer_size: 64,
            faults: Some(ute_faults::FaultPlan::parse("3:dropflush@1").unwrap()),
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::with_node(opts, 2);
        for t in 0..12 {
            cut(&mut b, t, false).unwrap();
        }
        assert_eq!(decode_all(&b.finish()).len(), 12);
    }

    #[test]
    fn clock_jump_fault_steps_timestamps() {
        let opts = TraceOptions {
            faults: Some(ute_faults::FaultPlan::parse("0:clockjump@5+1000").unwrap()),
            ..TraceOptions::default()
        };
        let mut b = TraceBuffer::new(opts);
        for t in 0..10 {
            cut(&mut b, t, false).unwrap();
        }
        let events = decode_all(&b.finish());
        assert_eq!(events[4].timestamp, LocalTime(4));
        assert_eq!(events[5].timestamp, LocalTime(1005));
        assert_eq!(events[9].timestamp, LocalTime(1009));
    }

    #[test]
    fn overhead_ledger_charges_costs() {
        let mut b = TraceBuffer::new(TraceOptions::default());
        cut(&mut b, 1, false).unwrap();
        cut(&mut b, 2, true).unwrap();
        let m = CostModel::default();
        assert_eq!(b.ledger.total, m.cut() + m.cut_wrapped());
    }
}
