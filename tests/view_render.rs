//! The view renderers against their reference: `svg::render` and
//! `ascii::render` write each bar straight into one buffer, with numbers
//! through an integer fast path, and must print byte for byte what the
//! plain `format!` renderers below print. Those renderers are kept here
//! as the oracle only. Also: the fast number paths against `format!`
//! over bands around every rounding tie they guard, and golden snapshots
//! of the processor-activity, connected and `--hide-running` views.

use std::sync::Arc;

use proptest::prelude::*;
use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::format::profile::Profile;
use ute::merge::{slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::slog::file::SlogFile;
use ute::view::model::{build_view, ArrowLine, Bar, View, ViewConfig, ViewKind};
use ute::view::svg::{push_secs, push_tenths, SvgOptions};
use ute::view::{ascii, svg};

/// The `format!` renderers: the oracle the shipped ones are held to.
mod reference {
    use std::collections::HashMap;

    use ute::view::model::View;
    use ute::view::svg::SvgOptions;

    const PALETTE: [&str; 12] = [
        "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#999999",
        "#7F3C8D", "#11A579", "#3969AC", "#80BA5A",
    ];

    fn esc(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
    }

    pub fn svg(view: &View, opts: &SvgOptions) -> String {
        let span = (view.t1 - view.t0).max(1) as f64;
        let x_of = |t: u64| -> f64 {
            opts.label_width as f64 + (t.saturating_sub(view.t0)) as f64 / span * opts.width as f64
        };
        let color_of = |key: &str| -> &str {
            let idx = view.legend.iter().position(|k| k == key).unwrap_or(0);
            PALETTE[idx % PALETTE.len()]
        };
        let rows_h = view.rows.len() as u32 * opts.row_height;
        let legend_rows = view.legend.len().div_ceil(4) as u32;
        let total_w = opts.label_width + opts.width + 20;
        let total_h = 30 + rows_h + 30 + legend_rows * 16 + 10;
        let mut svg = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{total_w}\" height=\"{total_h}\" \
             font-family=\"monospace\">\n\
             <text x=\"4\" y=\"16\" font-size=\"13\">{:?} view, {:.3}s – {:.3}s</text>\n",
            view.kind,
            view.t0 as f64 / 1e9,
            view.t1 as f64 / 1e9,
        );
        for (i, label) in view.rows.iter().enumerate() {
            let y = 30 + i as u32 * opts.row_height;
            svg.push_str(&format!(
                "<text x=\"4\" y=\"{}\" font-size=\"10\">{}</text>\n",
                y + opts.row_height / 2 + 3,
                esc(label)
            ));
            svg.push_str(&format!(
                "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#eee\"/>\n",
                opts.label_width,
                y + opts.row_height / 2,
                opts.label_width + opts.width,
                y + opts.row_height / 2
            ));
        }
        let mut bars = view.bars.clone();
        bars.sort_by_key(|b| b.depth);
        for b in &bars {
            let y = 30 + b.row as u32 * opts.row_height;
            let inset = (b.depth as u32 * 3).min(opts.row_height / 2 - 2);
            let x0 = x_of(b.start);
            let x1 = x_of(b.end).max(x0 + 0.5);
            svg.push_str(&format!(
                "<rect x=\"{:.1}\" y=\"{}\" width=\"{:.1}\" height=\"{}\" fill=\"{}\"{}>\
                 <title>{}</title></rect>\n",
                x0,
                y + 2 + inset,
                x1 - x0,
                opts.row_height - 4 - 2 * inset,
                color_of(&b.color),
                if b.pseudo { " opacity=\"0.55\"" } else { "" },
                esc(&format!(
                    "{} [{:.6}s – {:.6}s]",
                    b.color,
                    b.start as f64 / 1e9,
                    b.end as f64 / 1e9
                )),
            ));
        }
        for a in &view.arrows {
            let y0 = 30 + a.from_row as u32 * opts.row_height + opts.row_height / 2;
            let y1 = 30 + a.to_row as u32 * opts.row_height + opts.row_height / 2;
            svg.push_str(&format!(
                "<line x1=\"{:.1}\" y1=\"{y0}\" x2=\"{:.1}\" y2=\"{y1}\" stroke=\"black\" \
                 stroke-width=\"1\"{} marker-end=\"url(#arrow)\"/>\n",
                x_of(a.t0),
                x_of(a.t1),
                if a.pseudo {
                    " stroke-dasharray=\"4 2\""
                } else {
                    ""
                }
            ));
        }
        svg.push_str(
            "<defs><marker id=\"arrow\" markerWidth=\"8\" markerHeight=\"8\" refX=\"6\" refY=\"3\" \
             orient=\"auto\"><path d=\"M0,0 L6,3 L0,6 z\"/></marker></defs>\n",
        );
        let ly = 30 + rows_h + 20;
        for (i, key) in view.legend.iter().enumerate() {
            let x = 10 + (i % 4) as u32 * (total_w / 4);
            let y = ly + (i / 4) as u32 * 16;
            svg.push_str(&format!(
                "<rect x=\"{x}\" y=\"{y}\" width=\"10\" height=\"10\" fill=\"{}\"/>\
                 <text x=\"{}\" y=\"{}\" font-size=\"10\">{}</text>\n",
                color_of(key),
                x + 14,
                y + 9,
                esc(key)
            ));
        }
        svg.push_str("</svg>\n");
        svg
    }

    const FILLS: [char; 16] = [
        'S', 'R', 'B', 'A', 'W', 'M', 'C', 'I', 'o', 'x', '%', '&', '$', '?', '~', '^',
    ];

    pub fn ascii(view: &View, width: usize) -> String {
        let width = width.max(10);
        let span = (view.t1 - view.t0).max(1);
        let col_of = |t: u64| -> usize {
            (((t.saturating_sub(view.t0)) as u128 * width as u128 / span as u128) as usize)
                .min(width - 1)
        };
        let fill_of: HashMap<&str, char> = view
            .legend
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_str(), FILLS[i % FILLS.len()]))
            .collect();

        let label_w = view.rows.iter().map(|r| r.len()).max().unwrap_or(0).min(28);
        let mut grid = vec![vec![' '; width]; view.rows.len()];
        let mut bars = view.bars.clone();
        bars.sort_by_key(|b| b.depth);
        for b in &bars {
            let c0 = col_of(b.start);
            let c1 = col_of(b.end.max(b.start)).max(c0);
            let ch = fill_of.get(&*b.color).copied().unwrap_or('#');
            for cell in &mut grid[b.row][c0..=c1] {
                *cell = ch;
            }
        }
        for a in &view.arrows {
            let c0 = col_of(a.t0);
            let c1 = col_of(a.t1);
            grid[a.from_row][c0] = '\\';
            grid[a.to_row][c1] = '/';
        }

        let mut out = String::new();
        for (label, row) in view.rows.iter().zip(&grid) {
            let mut l = label.clone();
            l.truncate(label_w);
            out.push_str(&format!("{l:>label_w$} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:>label_w$} +{}\n", "", "-".repeat(width)));
        let t0 = format!("{:.3}s", view.t0 as f64 / 1e9);
        let t1 = format!("{:.3}s", view.t1 as f64 / 1e9);
        out.push_str(&format!(
            "{:>label_w$}  {t0:<w2$}{t1}\n",
            "",
            w2 = width.saturating_sub(8),
        ));
        out.push_str("legend:");
        for k in &view.legend {
            out.push_str(&format!(" [{}]={}", fill_of[k.as_str()], k));
        }
        out.push('\n');
        out
    }
}

/// Marsaglia's xorshift64, for views drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

const LABELS: [&str; 6] = [
    "n0 t0 (mpi rank 0)",
    "n1 cpu3",
    "row <&> one",
    "a & b > c",
    "MPI_Send",
    "Marker:<Evolution>",
];
const KEYS: [&str; 8] = [
    "Running",
    "MPI_Send",
    "Marker:a<b>&c",
    "n0 cpu1",
    "t7",
    "node 2",
    "<&>",
    "",
];

/// A window and a tick inside or past it that lands on a rendering edge
/// case: a µs tie (`ns % 1000 == 500`), a time at or past 2^53, a pixel on
/// or within 1e-9 of a tie of its tenths, or anywhere.
fn tick(r: &mut Rng, t0: u64, span: u64) -> u64 {
    match r.below(6) {
        0 => (t0 + r.below(span + 2)) / 1000 * 1000 + 500 + r.below(3) - 1,
        1 => (1 << 53) + r.below(5000) - 2500,
        // Pixel = 180 + d / span * 900: a tenths tie where d * 9000 / span
        // is an odd multiple of a half.
        2 => (t0 + (span * (2 * r.below(20) + 1)) / 18_000 + r.below(3)).saturating_sub(1),
        3 => t0 + span,
        4 => t0 + r.below(span + 1),
        _ => r.next() >> r.below(64),
    }
}

fn random_view(seed: u64) -> (View, SvgOptions, usize) {
    let mut r = Rng(seed | 1);
    let kind = *r.pick(&[
        ViewKind::ThreadActivity,
        ViewKind::ProcessorActivity,
        ViewKind::ThreadProcessor,
        ViewKind::ProcessorThread,
        ViewKind::TypeActivity,
    ]);
    // One-tick windows, tie-making spans (pixels at .x5 / .25 steps, and
    // 1e-9 px per tick), and windows near 2^53.
    let (any_span, any_t0, late_t0) = (r.next() >> 20, r.below(1 << 40), r.below(1 << 20));
    let span = *r.pick(&[1, 2, 1800, 3600, 18_000, 900_000_000_000, any_span]);
    let t0 = *r.pick(&[0, any_t0, (1 << 53) - late_t0]);
    let rows: Vec<String> = (0..1 + r.below(5))
        .map(|_| r.pick(&LABELS).to_string())
        .collect();
    let mut legend: Vec<String> = Vec::new();
    for _ in 0..r.below(7) {
        let k = r.pick(&KEYS).to_string();
        // Keys are distinct as `build_view` makes them, now and then not.
        if !legend.contains(&k) || r.below(8) == 0 {
            legend.push(k);
        }
    }
    let shared: Vec<Arc<str>> = legend.iter().map(|k| Arc::from(k.as_str())).collect();
    let bars = (0..r.below(40))
        .map(|_| {
            let color = match (r.below(4), shared.is_empty()) {
                (0 | 1, false) => r.pick(&shared).clone(),
                (2, false) => Arc::from(r.pick(&legend).as_str()),
                _ => Arc::from(*r.pick(&KEYS)),
            };
            let start = tick(&mut r, t0, span);
            let end = if r.below(4) == 0 {
                start
            } else {
                tick(&mut r, t0, span)
            };
            Bar {
                row: r.below(rows.len() as u64) as usize,
                start,
                end,
                color,
                depth: r.below(4) as u8,
                pseudo: r.below(3) == 0,
            }
        })
        .collect();
    let arrows = (0..r.below(4))
        .map(|_| ArrowLine {
            from_row: r.below(rows.len() as u64) as usize,
            to_row: r.below(rows.len() as u64) as usize,
            t0: tick(&mut r, t0, span),
            t1: tick(&mut r, t0, span),
            pseudo: r.below(2) == 0,
        })
        .collect();
    let opts = if r.below(2) == 0 {
        SvgOptions::default()
    } else {
        SvgOptions {
            width: 1 + r.below(2000) as u32,
            row_height: 4 + r.below(30) as u32,
            label_width: r.below(300) as u32,
        }
    };
    let any_width = 1 + r.below(300) as usize;
    let width = *r.pick(&[1, 10, 37, 100, any_width]);
    let view = View {
        kind,
        rows,
        bars,
        arrows,
        t0,
        t1: t0 + span,
        legend,
    };
    (view, opts, width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn renderers_print_what_the_reference_prints(seed in any::<u64>()) {
        let (view, opts, width) = random_view(seed);
        prop_assert_eq!(svg::render(&view, &opts), reference::svg(&view, &opts));
        prop_assert_eq!(ascii::render(&view, width), reference::ascii(&view, width));
    }
}

fn tenths(v: f64) -> String {
    let mut s = String::new();
    push_tenths(&mut s, v);
    s
}

fn secs(ns: u64) -> String {
    let mut s = String::new();
    push_secs(&mut s, ns);
    s
}

#[test]
fn tenths_match_format_around_every_tie() {
    let check = |v: f64| assert_eq!(tenths(v), format!("{v:.1}"), "{v:e}");
    // Every tie n + 0.5 tenths below 2048 px, then every 997th up to the
    // 2^20 px the fast path keeps to: the nearest doubles, 8 ulps either
    // side, and the edges of the 1e-6 band the fast path leaves alone.
    let ties = (0..20_480u64).chain((20_480..10_485_760).step_by(997));
    for n in ties.chain(10_485_750..10_485_770) {
        let tie = (n as f64 + 0.5) / 10.0;
        let mut v = tie;
        for _ in 0..8 {
            v = v.next_down();
        }
        for _ in 0..17 {
            check(v);
            v = v.next_up();
        }
        for d in [1e-9, 1e-7, 0.99e-7, 1.01e-7, 1e-5, 0.04] {
            check(tie + d);
            check(tie - d);
        }
        check(n as f64 / 10.0);
    }
    for v in [
        0.0,
        -0.0,
        1e-300,
        0.05,
        0.25,
        1_048_575.95,
        1_048_576.0,
        1e300,
    ] {
        check(v);
        check(-v);
    }
    for v in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ] {
        check(v);
    }
}

#[test]
fn seconds_match_format_around_every_tie() {
    let check = |ns: u64| assert_eq!(secs(ns), format!("{:.6}", ns as f64 / 1e9), "{ns}");
    // Every µs tie below 2 ms and a spread of them up to 2^53 ns, ±40 ns
    // around each, and ±2 µs around 2^53 where the fast path stops.
    let mut ties: Vec<u64> = (0..2000).collect();
    let mut k = 2000u64;
    while k < (1 << 53) / 1000 {
        ties.extend([k, k + 1, k * 3 / 2]);
        k = k * 5 / 4;
    }
    ties.extend(((1 << 53) / 1000 - 3)..((1 << 53) / 1000 + 3));
    for k in ties {
        for ns in (k * 1000 + 460)..=(k * 1000 + 540) {
            check(ns);
        }
        check(k * 1000);
        check(k * 1000 + 999);
    }
    for ns in ((1 << 53) - 2000)..((1 << 53) + 2000) {
        check(ns);
    }
    check(u64::MAX);
}

fn flash_slog() -> SlogFile {
    let w = ute::workloads::flash::workload(ute::workloads::flash::FlashParams {
        iters_per_phase: 3,
        ..Default::default()
    });
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let copts = ConvertOptions::default();
    let converted =
        convert_job_pooled(&result.raw_files, &result.threads, &profile, &copts, 2).unwrap();
    let files: Vec<&[u8]> = converted.iter().map(|c| &c.interval_file[..]).collect();
    let build = BuildOptions {
        nframes: 24,
        preview_bins: 48,
        arrows: true,
    };
    slogmerge(&files, &profile, &MergeOptions::default(), build)
        .unwrap()
        .0
}

/// Renders of FLASH views beside `tests/views.rs`'s default thread view:
/// the processor-activity view, the connected thread view and the thread
/// view with Running hidden, each checked against the reference too.
/// Rewrite the baselines with `UPDATE_SNAPSHOTS=1`.
#[test]
fn flash_view_snapshots_of_every_mode() {
    let slog = flash_slog();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let modes = [
        ("flash_cpu", ViewKind::ProcessorActivity, false, false),
        ("flash_connected", ViewKind::ThreadActivity, true, false),
        ("flash_hide_running", ViewKind::ThreadActivity, false, true),
    ];
    for (stem, kind, connected, hide_running) in modes {
        let cfg = ViewConfig {
            kind,
            connected,
            hide_running,
            ..ViewConfig::default()
        };
        let view = build_view(&slog, &cfg).unwrap();
        let opts = SvgOptions::default();
        let renders = [
            (
                "txt",
                ascii::render(&view, 100),
                reference::ascii(&view, 100),
            ),
            (
                "svg",
                svg::render(&view, &opts),
                reference::svg(&view, &opts),
            ),
        ];
        for (ext, got, reference) in renders {
            assert!(got == reference, "{stem}.{ext} differs from the reference");
            let path = dir.join(format!("{stem}.{ext}"));
            if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
                std::fs::write(&path, &got).unwrap();
            }
            let want = std::fs::read_to_string(&path).unwrap();
            assert!(got == want, "{} drifted", path.display());
        }
    }
}
