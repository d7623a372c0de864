//! Builds a SLOG file from a merged, globally-timed interval stream.
//!
//! Responsibilities (§4):
//!
//! * partition the run's time into equal-width frames;
//! * assign each state record to the frame containing its start, and add
//!   **pseudo copies** to every further frame it overlaps;
//! * match point-to-point sends with receives by (sender rank, sequence
//!   number) into **arrow records**, placing each arrow in the frame of
//!   its receive and pseudo copies in every earlier frame it crosses;
//! * accumulate the whole-run **preview** histogram.

use std::collections::HashMap;

use ute_core::error::{Result, UteError};
use ute_core::event::Messages;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::state::StateCode;
use ute_format::thread_table::ThreadTable;
use ute_format::{widen_span, RecordFields};

use crate::file::{SlogFile, SlogFrame};
use crate::preview::Preview;
use crate::record::{SlogArrow, SlogRecord, SlogState};

/// SLOG construction options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Number of time-partitioned frames.
    pub nframes: usize,
    /// Number of preview bins.
    pub preview_bins: u32,
    /// Whether to synthesize message arrows from matched send/recv pairs.
    pub arrows: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            nframes: 64,
            preview_bins: 128,
            arrows: true,
        }
    }
}

/// The SLOG builder.
pub struct SlogBuilder<'a> {
    profile: &'a Profile,
    opts: BuildOptions,
}

impl<'a> SlogBuilder<'a> {
    /// Creates a builder against the profile the intervals were decoded
    /// with.
    pub fn new(profile: &'a Profile, opts: BuildOptions) -> SlogBuilder<'a> {
        SlogBuilder { profile, opts }
    }

    /// Builds the SLOG file. `intervals` must be the merged stream
    /// (globally timed, end-ordered); `threads` and `markers` come from
    /// the merged interval file's header.
    pub fn build(
        &self,
        intervals: &[Interval],
        threads: &ThreadTable,
        markers: &[(u32, String)],
    ) -> Result<SlogFile> {
        self.build_from(intervals, threads, markers)
    }

    /// [`SlogBuilder::build`] over the merged stream in any form whose
    /// fields can be read.
    pub fn build_from<R: RecordFields>(
        &self,
        intervals: &[R],
        threads: &ThreadTable,
        markers: &[(u32, String)],
    ) -> Result<SlogFile> {
        let span = intervals.iter().fold(None, widen_span);
        let records = intervals.iter().map(Ok);
        self.build_stream(span, intervals.len() as u64, records, threads, markers)
    }

    /// Builds the SLOG file from the merged stream as it is read — the
    /// records are not gathered first. The frames are laid out before the
    /// first record arrives, so the caller states what the stream holds:
    /// `span` is the least start and greatest end of its records (ticks;
    /// `None` for none), `count` how many there are, or a bound (it names
    /// the build's span). The first error the stream yields is the build's.
    pub fn build_stream<R: RecordFields>(
        &self,
        span: Option<(u64, u64)>,
        count: u64,
        records: impl IntoIterator<Item = Result<R>>,
        threads: &ThreadTable,
        markers: &[(u32, String)],
    ) -> Result<SlogFile> {
        let _span = ute_obs::Span::enter("slog", format!("build slog ({count} intervals)"));
        // The five fields read below, resolved to name indices once.
        let field = |name: &str| self.profile.field_name_index(name);
        let (f_marker, f_seq, f_rank, f_peer, f_sent) = (
            field("markerId"),
            field("seq"),
            field("rank"),
            field("peer"),
            field("msgSizeSent"),
        );
        let nframes = self.opts.nframes.max(1);
        let span_start = span.map_or(0, |(start, _)| start);
        let span_end = span
            .map_or(span_start + 1, |(_, end)| end)
            .max(span_start + 1);
        // More frames than ticks would leave degenerate frames past the
        // span (empty or inverted): clamp so every frame is at least one
        // tick wide and the frames exactly tile [span_start, span_end).
        let nframes = nframes.min((span_end - span_start) as usize).max(1);
        let width = ((span_end - span_start) / nframes as u64).max(1);
        let mut frames: Vec<SlogFrame> = (0..nframes)
            .map(|i| SlogFrame {
                t_start: span_start + i as u64 * width,
                t_end: if i == nframes - 1 {
                    span_end
                } else {
                    span_start + (i as u64 + 1) * width
                },
                records: Vec::new(),
            })
            .collect();
        let frame_of = |t: u64| -> usize {
            (((t.max(span_start) - span_start) / width) as usize).min(nframes - 1)
        };

        let mut preview = Preview::new(span_start, span_end, self.opts.preview_bins.max(1));
        let timeline_index: HashMap<(u16, u16), u32> = threads
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.node.raw(), e.logical.raw()), i as u32))
            .collect();

        // Sends by message key, as (timeline, start, bytes), for arrows.
        let mut sends: Messages<(u32, u64, u64)> = Messages::default();
        let mut arrows: Vec<SlogArrow> = Vec::new();

        for iv in records {
            let iv = iv?;
            let uint = |f: Option<u16>| f.and_then(|idx| iv.extra_uint(idx));
            let (itype, start, duration) = (iv.itype(), iv.start(), iv.duration());
            // Clock records are bookkeeping, and salvage-mode GAP
            // pseudo-records name a node with no thread-table entries;
            // neither belongs on a timeline.
            if itype.state == StateCode::CLOCK || itype.state == StateCode::GAP {
                continue;
            }
            let (node, thread) = (iv.node(), iv.thread());
            let Some(&timeline) = timeline_index.get(&(node.raw(), thread.raw())) else {
                return Err(UteError::NotFound(format!(
                    "thread (node {node}, logical {thread}) missing from thread table"
                )));
            };
            preview.add(itype.state, start, duration);
            let rec = SlogState {
                timeline,
                state: itype.state,
                bebits: itype.bebits,
                pseudo: false,
                start,
                duration,
                node: node.raw(),
                cpu: iv.cpu().raw(),
                marker_id: uint(f_marker).unwrap_or(0) as u32,
            };
            let first = frame_of(start);
            let last = frame_of(iv.end().saturating_sub(1).max(start));
            frames[first].records.push(SlogRecord::State(rec));
            for f in &mut frames[first + 1..=last] {
                f.records.push(SlogRecord::State(SlogState {
                    pseudo: true,
                    ..rec
                }));
            }

            // Arrow matching on completed pieces that carry a sequence.
            if self.opts.arrows {
                let seq = uint(f_seq).unwrap_or(0);
                let end = (itype.state.as_mpi()).and_then(|op| {
                    op.message_end(itype.bebits.ends_state(), uint(f_rank), uint(f_peer), seq)
                });
                let send = || (timeline, start, uint(f_sent).unwrap_or(0));
                if let Some(&(src_timeline, send_time, bytes)) = sends.pair(end, send) {
                    arrows.push(SlogArrow {
                        pseudo: false,
                        src_timeline,
                        dst_timeline: timeline,
                        send_time,
                        recv_time: iv.end(),
                        bytes,
                        seq,
                    });
                }
            }
        }

        ute_obs::counter("slog/arrows_matched").add(arrows.len() as u64);

        // Place arrows: home frame = frame of the receive; pseudo copies
        // in every earlier frame the arrow crosses.
        for a in arrows {
            let home = frame_of(a.recv_time.saturating_sub(1).max(a.send_time));
            let first = frame_of(a.send_time);
            for (i, f) in frames.iter_mut().enumerate().take(home + 1).skip(first) {
                f.records.push(SlogRecord::Arrow(SlogArrow {
                    pseudo: i != home,
                    ..a
                }));
            }
        }

        ute_obs::counter("slog/frames_built").add(frames.len() as u64);
        ute_obs::counter("slog/records_out")
            .add(frames.iter().map(|f| f.records.len() as u64).sum::<u64>());
        Ok(SlogFile {
            threads: threads.clone(),
            markers: markers.to_vec(),
            preview,
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ute_core::event::MpiOp;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::record::IntervalType;
    use ute_format::thread_table::ThreadEntry;
    use ute_format::value::Value;

    fn threads2() -> ThreadTable {
        let mut t = ThreadTable::new();
        for (node, logical) in [(0u16, 0u16), (1, 0)] {
            t.register(ThreadEntry {
                task: TaskId(node as u32),
                pid: Pid(1),
                system_tid: SystemThreadId(node as u64),
                node: NodeId(node),
                logical: LogicalThreadId(logical),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        }
        t
    }

    fn running(p: &Profile, node: u16, start: u64, dur: u64) -> Interval {
        let _ = p;
        Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            start,
            dur,
            CpuId(0),
            NodeId(node),
            LogicalThreadId(0),
        )
    }

    fn send(
        p: &Profile,
        node: u16,
        start: u64,
        dur: u64,
        seq: u64,
        rank: u64,
        peer: u64,
    ) -> Interval {
        Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Send)),
            start,
            dur,
            CpuId(0),
            NodeId(node),
            LogicalThreadId(0),
        )
        .with_extra(p, "rank", Value::Uint(rank))
        .with_extra(p, "peer", Value::Uint(peer))
        .with_extra(p, "tag", Value::Uint(0))
        .with_extra(p, "msgSizeSent", Value::Uint(512))
        .with_extra(p, "seq", Value::Uint(seq))
        .with_extra(p, "address", Value::Uint(0))
    }

    fn recv(
        p: &Profile,
        node: u16,
        start: u64,
        dur: u64,
        seq: u64,
        rank: u64,
        peer: u64,
    ) -> Interval {
        Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Recv)),
            start,
            dur,
            CpuId(0),
            NodeId(node),
            LogicalThreadId(0),
        )
        .with_extra(p, "rank", Value::Uint(rank))
        .with_extra(p, "peer", Value::Uint(peer))
        .with_extra(p, "tag", Value::Uint(0))
        .with_extra(p, "msgSizeRecvd", Value::Uint(512))
        .with_extra(p, "seq", Value::Uint(seq))
        .with_extra(p, "address", Value::Uint(0))
    }

    #[test]
    fn frames_partition_time_and_spanning_states_get_pseudo_copies() {
        let p = Profile::standard();
        let ivs = vec![
            running(&p, 0, 0, 1000), // spans all frames
            running(&p, 1, 100, 50),
        ];
        let slog = SlogBuilder::new(
            &p,
            BuildOptions {
                nframes: 4,
                preview_bins: 8,
                arrows: false,
            },
        )
        .build(&ivs, &threads2(), &[])
        .unwrap();
        assert_eq!(slog.frames.len(), 4);
        // The long running state appears real in frame 0 and pseudo in 1-3.
        assert_eq!(slog.frames[0].pseudo_count(), 0);
        for f in &slog.frames[1..] {
            assert_eq!(f.pseudo_count(), 1, "frame [{}..{})", f.t_start, f.t_end);
        }
        // Frame lookup by time works end to end.
        let f = slog.frame_at(600).unwrap();
        assert!(f.records.iter().any(|r| r.is_pseudo()));
    }

    #[test]
    fn arrows_match_sends_to_recvs_across_frames() {
        let p = Profile::standard();
        // Send early (frame 0), recv late (frame 3): rank 0 → rank 1.
        let ivs = vec![
            send(&p, 0, 10, 20, 5, 0, 1),
            recv(&p, 1, 900, 50, 5, 1, 0),
            running(&p, 0, 0, 1000),
        ];
        let slog = SlogBuilder::new(
            &p,
            BuildOptions {
                nframes: 4,
                preview_bins: 8,
                arrows: true,
            },
        )
        .build(&ivs, &threads2(), &[])
        .unwrap();
        let arrows: Vec<&SlogArrow> = slog
            .frames
            .iter()
            .flat_map(|f| &f.records)
            .filter_map(|r| match r {
                SlogRecord::Arrow(a) => Some(a),
                _ => None,
            })
            .collect();
        // One real arrow in the recv's frame plus pseudo copies before it.
        let real: Vec<_> = arrows.iter().filter(|a| !a.pseudo).collect();
        assert_eq!(real.len(), 1);
        assert_eq!(real[0].send_time, 10);
        assert_eq!(real[0].recv_time, 950);
        assert_eq!(real[0].bytes, 512);
        assert!(arrows.len() > 1, "expected pseudo arrow copies");
        // The recv's frame contains the real arrow (§4's second challenge).
        let recv_frame = slog.frame_at(930).unwrap();
        assert!(recv_frame
            .records
            .iter()
            .any(|r| matches!(r, SlogRecord::Arrow(a) if !a.pseudo)));
    }

    #[test]
    fn preview_reflects_states() {
        let p = Profile::standard();
        let ivs = vec![running(&p, 0, 0, 400), send(&p, 1, 100, 100, 1, 1, 0)];
        let slog = SlogBuilder::new(&p, BuildOptions::default())
            .build(&ivs, &threads2(), &[])
            .unwrap();
        assert_eq!(slog.preview.counts[&StateCode::RUNNING.0], 1);
        let interesting: u64 = slog.preview.interesting_per_bin().iter().sum();
        assert_eq!(interesting, 100); // only the send is interesting
    }

    #[test]
    fn clock_records_are_dropped() {
        let p = Profile::standard();
        let clock = Interval::basic(
            IntervalType::complete(StateCode::CLOCK),
            50,
            0,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        )
        .with_extra(&p, "globalTime", Value::Uint(49));
        let ivs = vec![clock, running(&p, 0, 0, 100)];
        let slog = SlogBuilder::new(&p, BuildOptions::default())
            .build(&ivs, &threads2(), &[])
            .unwrap();
        // Only the Running state survives (as one real record plus its
        // pseudo copies in later frames); no CLOCK records at all.
        let real: Vec<_> = slog
            .frames
            .iter()
            .flat_map(|f| &f.records)
            .filter(|r| !r.is_pseudo())
            .collect();
        assert_eq!(real.len(), 1);
        assert!(slog
            .frames
            .iter()
            .flat_map(|f| &f.records)
            .all(|r| matches!(
                r,
                SlogRecord::State(s) if s.state == StateCode::RUNNING
            )));
    }

    #[test]
    fn unknown_thread_is_an_error() {
        let p = Profile::standard();
        let ivs = vec![running(&p, 7, 0, 10)];
        assert!(SlogBuilder::new(&p, BuildOptions::default())
            .build(&ivs, &threads2(), &[])
            .is_err());
    }

    #[test]
    fn empty_input_builds_empty_slog() {
        let p = Profile::standard();
        let slog = SlogBuilder::new(&p, BuildOptions::default())
            .build(&[], &threads2(), &[])
            .unwrap();
        assert_eq!(slog.total_records(), 0);
        let bytes = slog.to_bytes();
        assert_eq!(SlogFile::from_bytes(&bytes).unwrap(), slog);
    }
}
