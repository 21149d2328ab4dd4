//! Minimal SVG rendering of [`FigureTable`]s as grouped bar charts —
//! no dependencies, just enough to eyeball a figure next to the paper's.
//!
//! ```no_run
//! use domino_sim::figures::{fig02, Scale, Sweep};
//! use domino_sim::svg::render_bar_chart;
//!
//! let table = fig02(&mut Sweep::new(Scale::small()));
//! std::fs::write("fig02.svg", render_bar_chart(&table)).unwrap();
//! ```

use crate::report::FigureTable;

/// Series colours (colour-blind-safe qualitative palette).
const PALETTE: [&str; 8] = [
    "#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB", "#222255",
];

/// Geometry of the rendered chart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    width: f64,
    height: f64,
    margin_left: f64,
    margin_bottom: f64,
    margin_top: f64,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the table as a grouped bar chart (rows on the x-axis, one bar
/// per column within each group). `NaN` cells are skipped.
pub fn render_bar_chart(table: &FigureTable) -> String {
    let layout = Layout {
        width: 80.0 + table.rows.len() as f64 * (table.columns.len() as f64 * 14.0 + 18.0),
        height: 360.0,
        margin_left: 56.0,
        margin_bottom: 90.0,
        margin_top: 42.0,
    };
    let max_value = table
        .values
        .iter()
        .flatten()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let plot_h = layout.height - layout.margin_bottom - layout.margin_top;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"11\">\n",
        w = layout.width.ceil(),
        h = layout.height
    ));
    out.push_str(&format!(
        "<text x=\"{}\" y=\"20\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
        layout.margin_left,
        esc(&table.title)
    ));
    // Y axis with 5 gridlines.
    for k in 0..=5 {
        let frac = k as f64 / 5.0;
        let y = layout.margin_top + plot_h * (1.0 - frac);
        let label = if table.percent {
            format!("{:.0}%", max_value * frac * 100.0)
        } else {
            format!("{:.2}", max_value * frac)
        };
        out.push_str(&format!(
            "<line x1=\"{x1}\" y1=\"{y:.1}\" x2=\"{x2}\" y2=\"{y:.1}\" \
             stroke=\"#dddddd\"/>\n<text x=\"{tx}\" y=\"{ty:.1}\" \
             text-anchor=\"end\">{label}</text>\n",
            x1 = layout.margin_left,
            x2 = layout.width - 8.0,
            tx = layout.margin_left - 6.0,
            ty = y + 4.0,
        ));
    }
    // Bars.
    let group_w = table.columns.len() as f64 * 14.0;
    for (r, (label, row)) in table.rows.iter().zip(&table.values).enumerate() {
        let gx = layout.margin_left + 8.0 + r as f64 * (group_w + 18.0);
        for (c, &v) in row.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            let h = (v / max_value).clamp(0.0, 1.0) * plot_h;
            let x = gx + c as f64 * 14.0;
            let y = layout.margin_top + plot_h - h;
            out.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"12\" height=\"{h:.1}\" \
                 fill=\"{}\"><title>{}: {} = {v:.4}</title></rect>\n",
                PALETTE[c % PALETTE.len()],
                esc(label),
                esc(&table.columns[c]),
            ));
        }
        // Rotated row label.
        let lx = gx + group_w / 2.0;
        let ly = layout.margin_top + plot_h + 10.0;
        out.push_str(&format!(
            "<text x=\"{lx:.1}\" y=\"{ly:.1}\" text-anchor=\"end\" \
             transform=\"rotate(-40 {lx:.1} {ly:.1})\">{}</text>\n",
            esc(label)
        ));
    }
    // Legend.
    let mut lx = layout.margin_left;
    let ly = layout.height - 12.0;
    for (c, col) in table.columns.iter().enumerate() {
        out.push_str(&format!(
            "<rect x=\"{lx:.1}\" y=\"{y:.1}\" width=\"10\" height=\"10\" fill=\"{}\"/>\n\
             <text x=\"{tx:.1}\" y=\"{ty:.1}\">{}</text>\n",
            PALETTE[c % PALETTE.len()],
            esc(col),
            y = ly - 9.0,
            tx = lx + 14.0,
            ty = ly,
        ));
        lx += 14.0 + 7.0 * col.len() as f64 + 18.0;
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        let mut t = FigureTable::new("Test figure", "w", vec!["A".into(), "B".into()]);
        t.percent = true;
        t.push_row("alpha", vec![0.25, 0.5]);
        t.push_row("beta", vec![0.75, f64::NAN]);
        t
    }

    #[test]
    fn renders_wellformed_svg() {
        let svg = render_bar_chart(&sample());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        // Three bars (NaN skipped), two legend swatches.
        assert_eq!(svg.matches("<rect").count(), 3 + 2);
        assert!(svg.contains("Test figure"));
        assert!(svg.contains("alpha"));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut t = FigureTable::new("a <b> & c", "w", vec!["x".into()]);
        t.push_row("r<1>", vec![1.0]);
        let svg = render_bar_chart(&t);
        assert!(svg.contains("a &lt;b&gt; &amp; c"));
        assert!(svg.contains("r&lt;1&gt;"));
        assert!(!svg.contains("r<1>"));
    }

    #[test]
    fn empty_table_still_renders() {
        let t = FigureTable::new("empty", "w", vec!["x".into()]);
        let svg = render_bar_chart(&t);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn bar_heights_scale_with_values() {
        let svg = render_bar_chart(&sample());
        // Max value 0.75 gets the full plot height; 0.25 a third of it.
        let heights: Vec<f64> = svg
            .lines()
            .filter(|l| l.contains("<rect") && l.contains("<title>"))
            .map(|l| {
                let h = l.split("height=\"").nth(1).unwrap();
                h.split('"').next().unwrap().parse().unwrap()
            })
            .collect();
        let max = heights.iter().copied().fold(0.0f64, f64::max);
        let min = heights.iter().copied().fold(f64::MAX, f64::min);
        assert!((min / max - 1.0 / 3.0).abs() < 0.01, "{min} vs {max}");
    }
}
