//! View construction: from SLOG records to rows, bars and arrows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use ute_core::error::{Result, UteError};
use ute_format::state::StateCode;
use ute_slog::file::SlogFile;
use ute_slog::record::{SlogRecord, SlogState};

use crate::nest::connect_pieces;

/// Which time-space diagram to build (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// One timeline per thread, colored by activity.
    ThreadActivity,
    /// One timeline per processor, colored by activity.
    ProcessorActivity,
    /// One timeline per thread, colored by the processor it ran on.
    ThreadProcessor,
    /// One timeline per processor, colored by the thread running there.
    ProcessorThread,
    /// One timeline per record type, colored by node.
    TypeActivity,
}

/// View construction options.
#[derive(Debug, Clone, Copy)]
pub struct ViewConfig {
    /// Which diagram.
    pub kind: ViewKind,
    /// Optional time window; `None` = the whole run.
    pub window: Option<(u64, u64)>,
    /// Include pseudo records (needed for windowed views).
    pub include_pseudo: bool,
    /// Thread-activity only: connect pieces into nested states.
    pub connected: bool,
    /// Force this many CPU rows per node (so idle CPUs show as empty
    /// timelines, as in Figure 9); `None` = only CPUs seen in records.
    pub cpus_per_node: Option<u16>,
    /// Hide Running states (reduces clutter in activity views).
    pub hide_running: bool,
}

impl Default for ViewConfig {
    fn default() -> Self {
        ViewConfig {
            kind: ViewKind::ThreadActivity,
            window: None,
            include_pseudo: true,
            connected: false,
            cpus_per_node: None,
            hide_running: false,
        }
    }
}

/// One drawn bar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bar {
    /// Row index into [`View::rows`].
    pub row: usize,
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
    /// Legend key the bar is colored by: [`build_view`] makes one per
    /// legend entry and every bar of that key shares it.
    pub color: Arc<str>,
    /// Nesting depth (connected mode; 0 otherwise).
    pub depth: u8,
    /// Whether the bar came from a pseudo record or was clipped.
    pub pseudo: bool,
}

/// One drawn arrow (thread views only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrowLine {
    /// Source row.
    pub from_row: usize,
    /// Destination row.
    pub to_row: usize,
    /// Send time.
    pub t0: u64,
    /// Receive time.
    pub t1: u64,
    /// Whether this is a pseudo copy.
    pub pseudo: bool,
}

/// A built view, ready for a renderer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// What kind of diagram this is.
    pub kind: ViewKind,
    /// Row labels, top to bottom.
    pub rows: Vec<String>,
    /// The bars.
    pub bars: Vec<Bar>,
    /// The arrows.
    pub arrows: Vec<ArrowLine>,
    /// Rendered time window.
    pub t0: u64,
    /// End of the rendered time window.
    pub t1: u64,
    /// Legend: color keys in first-use order.
    pub legend: Vec<String>,
}

impl View {
    /// Per bar, the legend entry its key first appears at (`None` when
    /// the legend lacks it). Found once per distinct key: the bars
    /// [`build_view`] makes share one `Arc` per key, so the rest are a
    /// lookup by pointer.
    pub(crate) fn bar_legend(&self) -> Vec<Option<usize>> {
        let mut by_ptr = Ids::default();
        let first = |key: &str| self.legend.iter().position(|k| k == key);
        (self.bars.iter())
            .map(|b| by_ptr.get(b.color.as_ptr() as u64, || first(&b.color)))
            .collect()
    }
}

const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Dense indices for the integer ids a view looks up once per state.
/// The map keeps its default hasher, safe from ids a file crafts to
/// collide; a direct-mapped cache in front answers the ids that repeat.
struct Ids<T> {
    map: HashMap<u64, T>,
    cache: Vec<Option<(u64, T)>>,
}

impl<T: Copy> Default for Ids<T> {
    fn default() -> Self {
        Ids {
            map: HashMap::new(),
            cache: vec![None; 256],
        }
    }
}

impl<T: Copy> Ids<T> {
    /// The index of `id`, made by `new` the first time it is asked for.
    fn get(&mut self, id: u64, new: impl FnOnce() -> T) -> T {
        let slot = &mut self.cache[(id.wrapping_mul(MIX) >> 56) as usize];
        match *slot {
            Some((k, v)) if k == id => v,
            _ => {
                let v = *self.map.entry(id).or_insert_with(new);
                *slot = Some((id, v));
                v
            }
        }
    }
}

/// Legend keys in first-use order. A state's integer colour id finds its
/// entry; a new id names it once, and ids that name alike share it.
#[derive(Default)]
struct Legend {
    names: Vec<String>,
    keys: Vec<Arc<str>>,
    ids: Ids<usize>,
}

impl Legend {
    fn key(&mut self, id: u64, name: impl FnOnce() -> String) -> Arc<str> {
        let i = self.ids.get(id, || {
            let name = name();
            (self.names.iter().position(|n| *n == name)).unwrap_or_else(|| {
                self.keys.push(name.as_str().into());
                self.names.push(name);
                self.names.len() - 1
            })
        });
        self.keys[i].clone()
    }
}

fn thread_label(slog: &SlogFile, timeline: u32) -> String {
    match slog.threads.entries().get(timeline as usize) {
        Some(e) => format!(
            "n{} t{} ({}{})",
            e.node,
            e.logical,
            e.ttype,
            if e.task.raw() == u32::MAX {
                String::new()
            } else {
                format!(" rank {}", e.task)
            }
        ),
        None => format!("timeline {timeline}"),
    }
}

fn overlaps(s: &SlogState, w: (u64, u64)) -> bool {
    s.start < w.1 && s.end().max(s.start + 1) > w.0
}

/// Builds a view over the whole file or a window of it.
pub fn build_view(slog: &SlogFile, cfg: &ViewConfig) -> Result<View> {
    let span = (slog.preview.span_start, slog.preview.span_end);
    let window = cfg.window.unwrap_or(span);
    if window.0 >= window.1 {
        return Err(UteError::Invalid("empty view window".into()));
    }
    // Collect the states (and arrows) that overlap the window. When a
    // window is given, walk only the frames it touches — the §4
    // scalability property.
    let mut states: Vec<&SlogState> = Vec::new();
    let mut arrows_raw = Vec::new();
    let mut seen_arrows = HashSet::new();
    let frames = (slog.frames.iter()).filter(|f| f.t_start < window.1 && f.t_end > window.0);
    for f in frames {
        for rec in &f.records {
            match rec {
                SlogRecord::State(s) => {
                    if !cfg.include_pseudo && s.pseudo {
                        continue;
                    }
                    if cfg.hide_running && s.state == StateCode::RUNNING {
                        continue;
                    }
                    if overlaps(s, window) {
                        states.push(s);
                    }
                }
                SlogRecord::Arrow(a) => {
                    if a.send_time < window.1 && a.recv_time > window.0 {
                        let key = (a.src_timeline, a.seq, a.send_time);
                        if seen_arrows.insert(key) {
                            arrows_raw.push(*a);
                        }
                    }
                }
            }
        }
    }
    // The same state may appear in several frames (pseudo copies): keep
    // the first of each identity. Only states whose hashes meet in a
    // bitmap can be copies, so only those go through an exact set.
    let key = |s: &SlogState| {
        let id = (s.timeline as u64) << 32 | (s.state.0 as u64) << 8;
        (id | s.bebits.to_bits() as u64, s.start, s.duration)
    };
    let bits = (states.len() * 8).next_power_of_two().max(64);
    let bit = |s: &SlogState| {
        let (a, b, c) = key(s);
        let h = [b, c]
            .iter()
            .fold(a, |h, &x| (h ^ x).wrapping_mul(MIX).rotate_left(29));
        h as usize & (bits - 1)
    };
    let (mut once, mut twice) = (vec![0u64; bits / 64], vec![0u64; bits / 64]);
    for b in states.iter().map(|s| bit(s)) {
        twice[b / 64] |= once[b / 64] & 1 << (b % 64);
        once[b / 64] |= 1 << (b % 64);
    }
    let mut seen = HashSet::new();
    states.retain(|s| {
        let b = bit(s);
        twice[b / 64] & 1 << (b % 64) == 0 || seen.insert(key(s))
    });

    build_from_states(slog, cfg, window, states, arrows_raw)
}

/// Builds a view of exactly one frame — "Scalability in the time it takes
/// to display this frame (independence from the size of the SLOG file)
/// comes from the combination of this preview and the frame index" (§4).
pub fn frame_view(slog: &SlogFile, t: u64, cfg: &ViewConfig) -> Result<View> {
    let frame = slog
        .frame_at(t)
        .ok_or_else(|| UteError::NotFound(format!("no frame contains time {t}")))?;
    let mut cfg = *cfg;
    cfg.window = Some((frame.t_start, frame.t_end));
    build_view(slog, &cfg)
}

fn build_from_states(
    slog: &SlogFile,
    cfg: &ViewConfig,
    window: (u64, u64),
    states: Vec<&SlogState>,
    arrows_raw: Vec<ute_slog::record::SlogArrow>,
) -> Result<View> {
    let thread_rows = matches!(
        cfg.kind,
        ViewKind::ThreadActivity | ViewKind::ThreadProcessor
    );
    // Rows as (sort key, label), numbered in first-use order while bars
    // are made and put in key order at the end.
    let row_key = |s: &SlogState| -> u64 {
        match cfg.kind {
            ViewKind::ThreadActivity | ViewKind::ThreadProcessor => s.timeline as u64,
            ViewKind::ProcessorActivity | ViewKind::ProcessorThread => {
                (s.node as u64) << 32 | s.cpu as u64
            }
            ViewKind::TypeActivity => s.state.0 as u64,
        }
    };
    let mut rows: Vec<(u64, String)> = Vec::new();
    // Pre-seed rows so empty timelines still render.
    match cfg.kind {
        ViewKind::ThreadActivity | ViewKind::ThreadProcessor => {
            for (i, _) in slog.threads.entries().iter().enumerate() {
                rows.push((i as u64, thread_label(slog, i as u32)));
            }
        }
        ViewKind::ProcessorActivity | ViewKind::ProcessorThread => {
            if let Some(ncpu) = cfg.cpus_per_node {
                let nodes: std::collections::BTreeSet<u16> = slog
                    .threads
                    .entries()
                    .iter()
                    .map(|e| e.node.raw())
                    .collect();
                for node in nodes {
                    for cpu in 0..ncpu {
                        rows.push((
                            (node as u64) << 32 | cpu as u64,
                            format!("n{node} cpu{cpu}"),
                        ));
                    }
                }
            }
        }
        ViewKind::TypeActivity => {}
    }
    let mut row_of = Ids {
        map: (rows.iter().enumerate()).map(|(i, r)| (r.0, i)).collect(),
        ..Ids::default()
    };
    let mut row = |s: &SlogState| -> usize {
        row_of.get(row_key(s), || {
            rows.push((
                row_key(s),
                match cfg.kind {
                    ViewKind::ThreadActivity | ViewKind::ThreadProcessor => {
                        thread_label(slog, s.timeline)
                    }
                    ViewKind::ProcessorActivity | ViewKind::ProcessorThread => {
                        format!("n{} cpu{}", s.node, s.cpu)
                    }
                    ViewKind::TypeActivity => s.state.name(),
                },
            ));
            rows.len() - 1
        })
    };

    let activity = |state: StateCode, marker_id: u32| -> String {
        if state == StateCode::MARKER {
            let name = (slog.markers.iter().find(|(id, _)| *id == marker_id))
                .map_or("Marker", |(_, n)| n.as_str());
            format!("Marker:{name}")
        } else {
            state.name()
        }
    };
    let activity_id = |state: StateCode, marker_id: u32| -> u64 {
        if state == StateCode::MARKER {
            1 << 32 | marker_id as u64
        } else {
            state.0 as u64
        }
    };
    let mut legend = Legend::default();
    let mut bars = Vec::with_capacity(states.len());

    if cfg.connected && cfg.kind == ViewKind::ThreadActivity {
        // Group pieces per timeline and connect them.
        let mut per_row: BTreeMap<u32, Vec<SlogState>> = BTreeMap::new();
        for s in &states {
            per_row.entry(s.timeline).or_default().push(**s);
        }
        for pieces in per_row.values() {
            let row = row(&pieces[0]);
            for span in connect_pieces(pieces, window.0, window.1) {
                if cfg.hide_running && span.state == StateCode::RUNNING {
                    continue;
                }
                let id = activity_id(span.state, span.marker_id);
                bars.push(Bar {
                    row,
                    start: span.start.max(window.0),
                    end: span.end.min(window.1),
                    color: legend.key(id, || activity(span.state, span.marker_id)),
                    depth: span.depth,
                    pseudo: span.clipped,
                });
            }
        }
    } else {
        for s in &states {
            let color = match cfg.kind {
                ViewKind::ThreadActivity | ViewKind::ProcessorActivity => {
                    let id = activity_id(s.state, s.marker_id);
                    legend.key(id, || activity(s.state, s.marker_id))
                }
                ViewKind::ThreadProcessor => {
                    let id = (s.node as u64) << 16 | s.cpu as u64;
                    legend.key(id, || format!("n{} cpu{}", s.node, s.cpu))
                }
                ViewKind::ProcessorThread => {
                    legend.key(s.timeline.into(), || format!("t{}", s.timeline))
                }
                ViewKind::TypeActivity => legend.key(s.node.into(), || format!("node {}", s.node)),
            };
            bars.push(Bar {
                row: row(s),
                start: s.start.max(window.0),
                end: s.end().min(window.1).max(s.start.max(window.0)),
                color,
                depth: 0,
                pseudo: s.pseudo,
            });
        }
    }

    // Put the rows in key order and renumber what points at them.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_unstable_by_key(|&i| rows[i].0);
    let mut renumber = vec![0; rows.len()];
    for (to, &from) in order.iter().enumerate() {
        renumber[from] = to;
    }
    for b in &mut bars {
        b.row = renumber[b.row];
    }
    // Arrows only make sense on thread timelines.
    let arrows = (arrows_raw.iter().filter(|_| thread_rows))
        .filter_map(|a| {
            let from_row = renumber[*row_of.map.get(&(a.src_timeline as u64))?];
            let to_row = renumber[*row_of.map.get(&(a.dst_timeline as u64))?];
            Some(ArrowLine {
                from_row,
                to_row,
                t0: a.send_time.max(window.0),
                t1: a.recv_time.min(window.1),
                pseudo: a.pseudo,
            })
        })
        .collect();

    Ok(View {
        kind: cfg.kind,
        rows: order
            .iter()
            .map(|&i| std::mem::take(&mut rows[i].1))
            .collect(),
        bars,
        arrows,
        t0: window.0,
        t1: window.1,
        legend: legend.names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::bebits::BeBits;
    use ute_core::event::MpiOp;
    use ute_core::ids::{LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::thread_table::{ThreadEntry, ThreadTable};
    use ute_slog::file::SlogFrame;
    use ute_slog::preview::Preview;

    fn state(
        timeline: u32,
        st: StateCode,
        start: u64,
        dur: u64,
        cpu: u16,
        node: u16,
    ) -> SlogRecord {
        SlogRecord::State(SlogState {
            timeline,
            state: st,
            bebits: BeBits::Complete,
            pseudo: false,
            start,
            duration: dur,
            node,
            cpu,
            marker_id: 0,
        })
    }

    fn sample_slog() -> SlogFile {
        let mut threads = ThreadTable::new();
        for (node, logical, ttype) in [
            (0u16, 0u16, ThreadType::Mpi),
            (0, 1, ThreadType::User),
            (1, 0, ThreadType::Mpi),
        ] {
            threads
                .register(ThreadEntry {
                    task: TaskId(node as u32),
                    pid: Pid(1),
                    system_tid: SystemThreadId(logical as u64),
                    node: NodeId(node),
                    logical: LogicalThreadId(logical),
                    ttype,
                })
                .unwrap();
        }
        let mut preview = Preview::new(0, 1000, 10);
        preview.add(StateCode::RUNNING, 0, 1000);
        SlogFile {
            threads,
            markers: vec![],
            preview,
            frames: vec![
                SlogFrame {
                    t_start: 0,
                    t_end: 500,
                    records: vec![
                        state(0, StateCode::mpi(MpiOp::Send), 100, 50, 0, 0),
                        state(1, StateCode::RUNNING, 0, 400, 1, 0),
                        state(2, StateCode::mpi(MpiOp::Recv), 120, 200, 2, 1),
                        SlogRecord::Arrow(ute_slog::record::SlogArrow {
                            pseudo: false,
                            src_timeline: 0,
                            dst_timeline: 2,
                            send_time: 100,
                            recv_time: 320,
                            bytes: 64,
                            seq: 1,
                        }),
                    ],
                },
                SlogFrame {
                    t_start: 500,
                    t_end: 1000,
                    records: vec![state(0, StateCode::mpi(MpiOp::Barrier), 600, 100, 3, 0)],
                },
            ],
        }
    }

    #[test]
    fn thread_activity_has_one_row_per_thread() {
        let slog = sample_slog();
        let v = build_view(&slog, &ViewConfig::default()).unwrap();
        assert_eq!(v.rows.len(), 3);
        assert!(v.rows[0].contains("mpi"));
        assert_eq!(v.bars.len(), 4);
        assert_eq!(v.arrows.len(), 1);
        assert!(v.legend.contains(&"MPI_Send".to_string()));
    }

    #[test]
    fn processor_views_key_rows_by_cpu() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                kind: ViewKind::ProcessorActivity,
                ..ViewConfig::default()
            },
        )
        .unwrap();
        // CPUs seen: n0 cpu0, n0 cpu1, n0 cpu3, n1 cpu2.
        assert_eq!(v.rows.len(), 4);
        assert!(v.rows.contains(&"n0 cpu3".to_string()));
        assert!(v.arrows.is_empty(), "no arrows on processor timelines");
    }

    #[test]
    fn forced_cpu_rows_show_idle_processors() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                kind: ViewKind::ProcessorActivity,
                cpus_per_node: Some(8),
                ..ViewConfig::default()
            },
        )
        .unwrap();
        assert_eq!(v.rows.len(), 16); // 2 nodes × 8 CPUs, mostly idle
    }

    #[test]
    fn thread_processor_view_colors_by_cpu() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                kind: ViewKind::ThreadProcessor,
                ..ViewConfig::default()
            },
        )
        .unwrap();
        assert!(v.legend.iter().any(|c| c == "n0 cpu0"));
        assert!(v.legend.iter().any(|c| c == "n1 cpu2"));
    }

    #[test]
    fn processor_thread_view_colors_by_thread() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                kind: ViewKind::ProcessorThread,
                ..ViewConfig::default()
            },
        )
        .unwrap();
        assert!(v.legend.iter().any(|c| c == "t0"));
    }

    #[test]
    fn type_view_rows_are_states() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                kind: ViewKind::TypeActivity,
                ..ViewConfig::default()
            },
        )
        .unwrap();
        assert!(v.rows.contains(&"MPI_Send".to_string()));
        assert!(v.legend.contains(&"node 0".to_string()));
    }

    #[test]
    fn windowing_filters_and_clips() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                window: Some((550, 800)),
                ..ViewConfig::default()
            },
        )
        .unwrap();
        // Only the barrier overlaps.
        assert_eq!(v.bars.len(), 1);
        assert_eq!(v.bars[0].start, 600);
        assert_eq!(v.bars[0].end, 700);
        assert!(build_view(
            &slog,
            &ViewConfig {
                window: Some((5, 5)),
                ..ViewConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn frame_view_uses_frame_bounds() {
        let slog = sample_slog();
        let v = frame_view(&slog, 700, &ViewConfig::default()).unwrap();
        assert_eq!((v.t0, v.t1), (500, 1000));
        assert_eq!(v.bars.len(), 1);
        assert!(frame_view(&slog, 99_999, &ViewConfig::default()).is_err());
    }

    #[test]
    fn hide_running_drops_running_bars() {
        let slog = sample_slog();
        let v = build_view(
            &slog,
            &ViewConfig {
                hide_running: true,
                ..ViewConfig::default()
            },
        )
        .unwrap();
        assert!(v.bars.iter().all(|b| &*b.color != "Running"));
        assert_eq!(v.bars.len(), 3);
    }
}
