//! ASCII rendering of views, for terminals and tests.

use std::collections::HashMap;

use crate::model::View;

/// Per-legend-key fill characters, cycled.
const FILLS: [char; 16] = [
    'S', 'R', 'B', 'A', 'W', 'M', 'C', 'I', 'o', 'x', '%', '&', '$', '?', '~', '^',
];

/// Renders the view as text: one line per row, `width` time columns,
/// a time axis, and a legend mapping fill characters to state names.
pub fn render(view: &View, width: usize) -> String {
    let width = width.max(10);
    let span = (view.t1 - view.t0).max(1);
    let col_of = |t: u64| -> usize {
        (((t.saturating_sub(view.t0)) as u128 * width as u128 / span as u128) as usize)
            .min(width - 1)
    };
    // A key fills with the character of its last legend entry; each bar
    // finds its key's entry once per distinct key.
    let last: HashMap<&str, usize> = (view.legend.iter().enumerate())
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let fills: Vec<char> = (view.legend.iter())
        .map(|k| FILLS[last[k.as_str()] % FILLS.len()])
        .collect();
    let slots = view.bar_legend();

    let label_w = view.rows.iter().map(|r| r.len()).max().unwrap_or(0).min(28);
    let mut grid = vec![vec![' '; width]; view.rows.len()];
    // Paint shallow (outer) bars first so nested states overwrite them.
    let mut order: Vec<usize> = (0..view.bars.len()).collect();
    order.sort_by_key(|&i| view.bars[i].depth);
    for i in order {
        let b = &view.bars[i];
        let c0 = col_of(b.start);
        let c1 = col_of(b.end.max(b.start)).max(c0);
        let ch = slots[i].map_or('#', |k| fills[k]);
        for cell in &mut grid[b.row][c0..=c1] {
            *cell = ch;
        }
    }
    // Arrows: mark send (`\`) and receive (`/`) endpoints.
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
    for (k, fill) in view.legend.iter().zip(&fills) {
        out.push_str(&format!(" [{fill}]={k}"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArrowLine, Bar, ViewKind};

    fn view() -> View {
        View {
            kind: ViewKind::ThreadActivity,
            rows: vec!["n0 t0".into(), "n0 t1".into()],
            bars: vec![
                Bar {
                    row: 0,
                    start: 0,
                    end: 500,
                    color: "Running".into(),
                    depth: 0,
                    pseudo: false,
                },
                Bar {
                    row: 0,
                    start: 100,
                    end: 300,
                    color: "MPI_Send".into(),
                    depth: 1,
                    pseudo: false,
                },
                Bar {
                    row: 1,
                    start: 500,
                    end: 1000,
                    color: "MPI_Recv".into(),
                    depth: 0,
                    pseudo: false,
                },
            ],
            arrows: vec![ArrowLine {
                from_row: 0,
                to_row: 1,
                t0: 100,
                t1: 900,
                pseudo: false,
            }],
            t0: 0,
            t1: 1000,
            legend: vec!["Running".into(), "MPI_Send".into(), "MPI_Recv".into()],
        }
    }

    #[test]
    fn renders_rows_axis_and_legend() {
        let s = render(&view(), 50);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // 2 rows + axis + times + legend
        assert!(lines[0].starts_with("n0 t0 |"));
        assert!(lines[4].starts_with("legend:"));
        assert!(lines[4].contains("MPI_Send"));
    }

    #[test]
    fn nested_bars_overwrite_outer() {
        let s = render(&view(), 100);
        let row0: Vec<char> = s.lines().next().unwrap().chars().collect();
        // Column ~15 (150/1000 of 100 cols) is inside the nested Send.
        let bar_area: String = row0[8..].iter().collect();
        assert!(bar_area.contains('S'), "nested send painted: {bar_area}");
        assert!(bar_area.contains('R'), "outer running visible: {bar_area}");
    }

    #[test]
    fn arrows_mark_endpoints() {
        let s = render(&view(), 100);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains('\\'));
        assert!(lines[1].contains('/'));
    }

    #[test]
    fn degenerate_width_clamped() {
        let s = render(&view(), 1);
        assert!(!s.is_empty());
    }
}
