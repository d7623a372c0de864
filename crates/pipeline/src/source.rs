//! Channel plumbing between per-node workers and the merge consumer.
//!
//! Workers emit clock-adjusted records in batches over a bounded
//! channel; [`ChannelSource`] adapts the receiving end to the merge
//! crate's [`MergeSource`] trait so the k-way [`LoserTreeMerge`]
//! consumes a live stream exactly as it would an in-memory vector. What
//! travels is the [`ute_format::Retimed`] views the workers produce.
//! Batching keeps channel traffic to one handoff per few thousand
//! records — the batch size adapts upward whenever a send blocks on a
//! full channel — and the bounded capacity keeps memory flat while
//! letting the merge overlap upstream decoding.
//!
//! Both channel ends are backpressure-instrumented: a send that finds
//! the channel full counts into `pipeline/blocked_sends` and records
//! its wait in the `pipeline/send_wait_ns` log₂ histogram; a receive
//! that finds it empty does the same via `pipeline/blocked_recvs` /
//! `pipeline/recv_wait_ns`; and the live batches-in-flight total feeds
//! the `pipeline/queue_depth` gauge (`pipeline/queue_depth_max` keeps
//! the high-water mark). The `ute-profile` sampler turns these into
//! counter tracks, so "who is waiting on whom" is visible per tick in
//! the Chrome trace. Cost on the unblocked path: a couple of metric
//! updates per *batch* (1024–65536 records), noise next to the handoff.
//!
//! [`LoserTreeMerge`]: ute_merge::LoserTreeMerge

use std::sync::atomic::{AtomicI64, Ordering};

use crossbeam::channel::{Receiver, Sender, TryRecvError, TrySendError};
use ute_core::error::Result;
use ute_format::RecordFields;
use ute_merge::MergeSource;

use crate::pool::{Permit, Semaphore};

/// Starting records per channel batch. Small enough that the merge
/// consumer gets its first records quickly even on short streams.
pub const BATCH_RECORDS_MIN: usize = 1024;

/// Ceiling for the adaptive batch size.
pub const BATCH_RECORDS_MAX: usize = 65536;

/// Bounded channel capacity, in batches, per node stream.
pub const CHANNEL_BATCHES: usize = 8;

/// The sending side of a node's record stream: accumulates records
/// into batches and ships each batch with the CPU permit *released*, so
/// a send that blocks on a full channel never stalls the worker pool.
pub struct BatchSender<'a, T> {
    tx: Sender<Vec<T>>,
    batch: Vec<T>,
    sem: &'a Semaphore,
    permit: Option<Permit<'a>>,
    depth: &'a AtomicI64,
    /// Self-trace flow link for this worker→consumer handoff (0 = none);
    /// the producing end is recorded once, at the first batch shipped.
    link: u64,
    link_sent: bool,
    /// Adaptive flush threshold: starts at [`BATCH_RECORDS_MIN`] and
    /// doubles (to [`BATCH_RECORDS_MAX`]) each time a send finds the
    /// channel full — the backpressure signal the
    /// `pipeline/send_wait_ns` histogram also feeds. A producer that
    /// outruns its consumer amortizes more records per handoff; one that
    /// never blocks keeps batches small and latency low. Batch size only
    /// changes *when* records cross the channel, never their order, so
    /// the merged output stays byte-identical at any size.
    cap: usize,
}

impl<'a, T> BatchSender<'a, T> {
    /// Wraps a channel sender; `permit` is the worker's held CPU slot,
    /// `link` the pre-allocated self-trace flow id (0 disables).
    pub fn new(
        tx: Sender<Vec<T>>,
        sem: &'a Semaphore,
        permit: Permit<'a>,
        depth: &'a AtomicI64,
        link: u64,
    ) -> BatchSender<'a, T> {
        BatchSender {
            tx,
            batch: Vec::with_capacity(BATCH_RECORDS_MIN),
            sem,
            permit: Some(permit),
            depth,
            link,
            link_sent: false,
            cap: BATCH_RECORDS_MIN,
        }
    }

    /// Appends a record, flushing a full batch downstream.
    pub fn push(&mut self, iv: T) -> Result<()> {
        self.batch.push(iv);
        if self.batch.len() >= self.cap {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(self.cap));
        if !self.link_sent {
            self.link_sent = true;
            ute_obs::flow_begin(self.link);
        }
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        ute_obs::gauge("pipeline/queue_depth").set(depth as f64);
        ute_obs::gauge("pipeline/queue_depth_max").set_max(depth as f64);
        ute_obs::counter("pipeline/batches").add(1);
        // Fast path: space in the channel, keep the CPU permit.
        let batch = match self.tx.try_send(batch) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                // The merge consumer is gone — it failed and is
                // unwinding; its error is the one the caller surfaces.
                return Err(crate::consumer_gone());
            }
            Err(TrySendError::Full(batch)) => batch,
        };
        // Slow path: give up the CPU slot across the blocking send so a
        // parked producer never occupies the worker pool.
        self.permit = None;
        ute_obs::counter("pipeline/blocked_sends").inc();
        let wait = std::time::Instant::now();
        let sent = self.tx.send(batch);
        ute_obs::histogram("pipeline/send_wait_ns").record(wait.elapsed().as_nanos() as u64);
        if sent.is_err() {
            return Err(crate::consumer_gone());
        }
        // Backpressure: the consumer is behind, so amortize the next
        // handoff over a bigger batch.
        self.cap = (self.cap * 2).min(BATCH_RECORDS_MAX);
        ute_obs::gauge("pipeline/batch_records").set_max(self.cap as f64);
        self.permit = Some(self.sem.acquire());
        Ok(())
    }

    /// Flushes the final partial batch and closes the stream (the
    /// receiver sees end-of-stream once this sender drops).
    pub fn finish(mut self) -> Result<()> {
        self.flush()
    }
}

/// A [`MergeSource`] fed by a worker through a bounded channel. The
/// stream ends when the sender drops — whether after its final batch or
/// early on a worker error; the caller distinguishes the two by joining
/// the worker.
pub struct ChannelSource<'a, T> {
    rx: Receiver<Vec<T>>,
    batch: std::vec::IntoIter<T>,
    depth: &'a AtomicI64,
    /// Consuming end of the worker's flow link (0 = none); recorded
    /// once, at the first batch received.
    link: u64,
    link_seen: bool,
}

impl<'a, T> ChannelSource<'a, T> {
    /// Wraps the receiving end of a node's record stream; `link` is
    /// the same flow id the worker's [`BatchSender`] holds (0 disables).
    pub fn new(rx: Receiver<Vec<T>>, depth: &'a AtomicI64, link: u64) -> ChannelSource<'a, T> {
        ChannelSource {
            rx,
            batch: Vec::new().into_iter(),
            depth,
            link,
            link_seen: false,
        }
    }
}

impl<T: RecordFields> MergeSource for ChannelSource<'_, T> {
    type Item = T;

    fn next_item(&mut self) -> Option<T> {
        loop {
            if let Some(iv) = self.batch.next() {
                return Some(iv);
            }
            // Non-blocking first so only genuine waits — the merge ran
            // dry and the upstream workers are behind — are counted.
            let received = match self.rx.try_recv() {
                Ok(batch) => Ok(batch),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => {
                    ute_obs::counter("pipeline/blocked_recvs").inc();
                    let wait = std::time::Instant::now();
                    let got = self.rx.recv();
                    ute_obs::histogram("pipeline/recv_wait_ns")
                        .record(wait.elapsed().as_nanos() as u64);
                    got
                }
            };
            match received {
                Ok(batch) => {
                    if !self.link_seen {
                        self.link_seen = true;
                        ute_obs::flow_end(self.link);
                    }
                    let depth = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
                    ute_obs::gauge("pipeline/queue_depth").set(depth.max(0) as f64);
                    self.batch = batch.into_iter();
                }
                Err(_) => return None,
            }
        }
    }

    fn end_of(item: &T) -> u64 {
        item.end()
    }
}
