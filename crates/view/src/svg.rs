//! SVG rendering of views, for documents and reports.

use crate::model::View;

/// A small qualitative palette (colorblind-friendly Okabe–Ito plus a few
/// extras), cycled across legend keys.
const PALETTE: [&str; 12] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#999999",
    "#7F3C8D", "#11A579", "#3969AC", "#80BA5A",
];

/// SVG rendering options.
#[derive(Debug, Clone, Copy)]
pub struct SvgOptions {
    /// Drawable width of the timeline area, pixels.
    pub width: u32,
    /// Height of one timeline row, pixels.
    pub row_height: u32,
    /// Left margin for row labels, pixels.
    pub label_width: u32,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 900,
            row_height: 18,
            label_width: 180,
        }
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_esc(&mut out, s);
    out
}

fn push_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
}

/// Appends `int`, then a point and the `decimals` low digits of `frac`
/// (none, point included, for 0): `push_fixed(out, 12, 34, 3)` appends
/// `12.034`.
fn push_fixed(out: &mut String, mut int: u64, mut frac: u64, decimals: usize) {
    let mut buf = [b'.'; 28];
    let mut i = buf.len();
    for _ in 0..decimals {
        i -= 1;
        buf[i] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    i -= usize::from(decimals > 0);
    loop {
        i -= 1;
        buf[i] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

/// Appends `v` as `format!("{v:.1}")` does. Below 2^20, `10 v` is within
/// 2^-30 of exact, so where its fraction lies more than 1e-6 from one
/// half it rounds to the tenths `{:.1}` prints; every other value goes
/// through `format!`.
pub fn push_tenths(out: &mut String, v: f64) {
    let t = v * 10.0;
    let frac = t - (t as u64) as f64;
    if v.is_sign_positive() && v < 1_048_576.0 && (frac - 0.5).abs() > 1e-6 {
        let n = t as u64 + u64::from(frac > 0.5);
        push_fixed(out, n / 10, n % 10, 1);
    } else {
        out.push_str(&format!("{v:.1}"));
    }
}

/// Appends `ns` in seconds as `format!("{:.6}", ns as f64 / 1e9)` does.
/// Below 2^53 ns the quotient is within 2^-30 s of exact, and `ns` lies
/// at least 1 ns from a tie of the sixth decimal unless it ends in 500:
/// outside those, `ns` rounded to whole µs is what `{:.6}` prints.
pub fn push_secs(out: &mut String, ns: u64) {
    if ns % 1000 == 500 || ns >= 1 << 53 {
        out.push_str(&format!("{:.6}", ns as f64 / 1e9));
    } else {
        let us = ns / 1000 + u64::from(ns % 1000 > 500);
        push_fixed(out, us / 1_000_000, us % 1_000_000, 6);
    }
}

/// Renders the view as a standalone SVG document with a legend.
pub fn render(view: &View, opts: &SvgOptions) -> String {
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
    // A line takes ~120 bytes besides its key; size the buffer once.
    let lines = view.rows.len() * 2 + view.bars.len() + view.arrows.len() + view.legend.len();
    let key_bytes: usize = view.bars.iter().map(|b| b.color.len()).sum();
    let mut svg = String::with_capacity(1024 + 160 * lines + 2 * key_bytes);
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{total_w}\" height=\"{total_h}\" \
         font-family=\"monospace\">\n\
         <text x=\"4\" y=\"16\" font-size=\"13\">{:?} view, {:.3}s – {:.3}s</text>\n",
        view.kind,
        view.t0 as f64 / 1e9,
        view.t1 as f64 / 1e9,
    ));
    // Row labels and baselines.
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
    // Bars: outer (shallow) first so nesting draws on top, inset by depth.
    let slots = view.bar_legend();
    let keys: Vec<String> = view.legend.iter().map(|k| esc(k)).collect();
    let mut order: Vec<usize> = (0..view.bars.len()).collect();
    order.sort_by_key(|&i| view.bars[i].depth);
    for i in order {
        let b = &view.bars[i];
        let y = 30 + b.row as u32 * opts.row_height;
        let inset = (b.depth as u32 * 3).min(opts.row_height / 2 - 2);
        let x0 = x_of(b.start);
        let x1 = x_of(b.end).max(x0 + 0.5);
        svg.push_str("<rect x=\"");
        push_tenths(&mut svg, x0);
        svg.push_str("\" y=\"");
        push_fixed(&mut svg, (y + 2 + inset).into(), 0, 0);
        svg.push_str("\" width=\"");
        push_tenths(&mut svg, x1 - x0);
        svg.push_str("\" height=\"");
        push_fixed(&mut svg, (opts.row_height - 4 - 2 * inset).into(), 0, 0);
        svg.push_str("\" fill=\"");
        svg.push_str(PALETTE[slots[i].unwrap_or(0) % PALETTE.len()]);
        svg.push_str(if b.pseudo {
            "\" opacity=\"0.55\"><title>"
        } else {
            "\"><title>"
        });
        match slots[i] {
            Some(k) => svg.push_str(&keys[k]),
            None => push_esc(&mut svg, &b.color),
        }
        svg.push_str(" [");
        push_secs(&mut svg, b.start);
        svg.push_str("s – ");
        push_secs(&mut svg, b.end);
        svg.push_str("s]</title></rect>\n");
    }
    // Arrows.
    for a in &view.arrows {
        let y0 = 30 + a.from_row as u32 * opts.row_height + opts.row_height / 2;
        let y1 = 30 + a.to_row as u32 * opts.row_height + opts.row_height / 2;
        svg.push_str("<line x1=\"");
        push_tenths(&mut svg, x_of(a.t0));
        svg.push_str("\" y1=\"");
        push_fixed(&mut svg, y0.into(), 0, 0);
        svg.push_str("\" x2=\"");
        push_tenths(&mut svg, x_of(a.t1));
        svg.push_str("\" y2=\"");
        push_fixed(&mut svg, y1.into(), 0, 0);
        svg.push_str("\" stroke=\"black\" stroke-width=\"1\"");
        if a.pseudo {
            svg.push_str(" stroke-dasharray=\"4 2\"");
        }
        svg.push_str(" marker-end=\"url(#arrow)\"/>\n");
    }
    svg.push_str(
        "<defs><marker id=\"arrow\" markerWidth=\"8\" markerHeight=\"8\" refX=\"6\" refY=\"3\" \
         orient=\"auto\"><path d=\"M0,0 L6,3 L0,6 z\"/></marker></defs>\n",
    );
    // Legend.
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
            keys[i]
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArrowLine, Bar, ViewKind};

    fn view() -> View {
        View {
            kind: ViewKind::ThreadActivity,
            rows: vec!["row <0>".into(), "row1".into()],
            bars: vec![
                Bar {
                    row: 0,
                    start: 0,
                    end: 100,
                    color: "Running".into(),
                    depth: 0,
                    pseudo: false,
                },
                Bar {
                    row: 1,
                    start: 50,
                    end: 80,
                    color: "MPI_Send".into(),
                    depth: 0,
                    pseudo: true,
                },
            ],
            arrows: vec![ArrowLine {
                from_row: 0,
                to_row: 1,
                t0: 10,
                t1: 70,
                pseudo: true,
            }],
            t0: 0,
            t1: 100,
            legend: vec!["Running".into(), "MPI_Send".into()],
        }
    }

    #[test]
    fn svg_structure() {
        let s = render(&view(), &SvgOptions::default());
        assert!(s.starts_with("<svg"));
        assert!(s.ends_with("</svg>\n"));
        assert_eq!(s.matches("<rect").count(), 2 + 2); // bars + legend swatches
        assert!(s.contains("stroke-dasharray"), "pseudo arrow dashed");
        assert!(s.contains("opacity=\"0.55\""), "pseudo bar translucent");
        assert!(s.contains("&lt;0&gt;"), "labels escaped");
    }

    #[test]
    fn distinct_legend_keys_get_distinct_colors() {
        let s = render(&view(), &SvgOptions::default());
        assert!(s.contains(PALETTE[0]));
        assert!(s.contains(PALETTE[1]));
    }
}
