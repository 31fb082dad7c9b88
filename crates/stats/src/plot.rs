//! Terminal scatter plots for sweep series.
//!
//! The figure entries print the paper's plots directly into the terminal:
//! an axes box, one glyph per series, shared x/y scaling. This is
//! deliberately simple — no anti-aliasing, no unicode braille — so output
//! is stable across terminals and byte-comparable between runs.

use crate::series::Series;
use std::fmt::Write as _;

/// Glyphs assigned to series in order.
const GLYPHS: [char; 8] = ['o', 'x', '+', '*', '#', '@', '%', '&'];

/// Renders a fixed-size ASCII scatter plot of the series.
///
/// `width`/`height` are the plot area in characters (axes excluded); both
/// are clamped to at least 8. Returns a multi-line string ending with a
/// legend.
pub fn scatter(series: &[Series], width: usize, height: usize) -> String {
    let width = width.max(8);
    let height = height.max(8);
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| (p.x, p.y)))
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if points.is_empty() {
        return "(no data)\n".to_string();
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    // Zero-origin y (latency plots), padded ranges.
    y_lo = y_lo.min(0.0);
    if (x_hi - x_lo).abs() < f64::EPSILON {
        // A lone x sits mid-axis in a window as wide as its magnitude, so
        // the tick labels stay on the data's scale (1.0 wide at x = 0).
        let half = if x_lo == 0.0 { 0.5 } else { x_lo.abs() / 2.0 };
        x_lo -= half;
        x_hi += half;
    }
    if (y_hi - y_lo).abs() < f64::EPSILON {
        y_hi = y_lo + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for p in &s.points {
            if !(p.x.is_finite() && p.y.is_finite()) {
                continue;
            }
            let cx = ((p.x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            let cy = ((p.y - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    let y_label_width = 10;
    for (r, row) in grid.iter().enumerate() {
        // y tick labels at top, middle, bottom.
        let y_here = y_hi - (y_hi - y_lo) * r as f64 / (height - 1) as f64;
        if r == 0 || r == height / 2 || r == height - 1 {
            let _ = write!(out, "{:>width$.2} |", y_here, width = y_label_width);
        } else {
            let _ = write!(out, "{:>width$} |", "", width = y_label_width);
        }
        out.extend(row.iter());
        out.push('\n');
    }
    let _ = write!(out, "{:>width$} +", "", width = y_label_width);
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let _ = writeln!(
        out,
        "{:>width$}  {:<lw$.3e}{:>rw$.3e}",
        "",
        x_lo,
        x_hi,
        width = y_label_width,
        lw = width / 2,
        rw = width - width / 2
    );
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(label: &str, pts: &[(f64, f64)]) -> Series {
        let mut out = Series::new(label);
        for &(x, y) in pts {
            out.push(x, y);
        }
        out
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(scatter(&[], 20, 10), "(no data)\n");
        assert_eq!(scatter(&[Series::new("e")], 20, 10), "(no data)\n");
    }

    #[test]
    fn plots_contain_glyphs_and_legend() {
        let a = s("rising", &[(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]);
        let b = s("flat", &[(0.0, 5.0), (2.0, 5.0)]);
        let text = scatter(&[a, b], 30, 12);
        assert!(text.contains('o'));
        assert!(text.contains('x'));
        assert!(text.contains("o rising"));
        assert!(text.contains("x flat"));
        // Axes are drawn.
        assert!(text.contains('+'));
        assert!(text.contains('|'));
    }

    #[test]
    fn monotone_series_descends_down_the_grid() {
        let a = s("up", &[(0.0, 0.0), (1.0, 100.0)]);
        let text = scatter(&[a], 20, 10);
        let rows: Vec<&str> = text.lines().collect();
        // The max point sits on the top plot row, the min near the bottom.
        assert!(rows[0].contains('o'));
    }

    #[test]
    fn clamps_tiny_dimensions() {
        let a = s("p", &[(0.0, 1.0)]);
        let text = scatter(&[a], 1, 1);
        assert!(text.lines().count() >= 8);
    }

    #[test]
    fn single_point_is_plotted() {
        let a = s("p", &[(5.0, 5.0)]);
        let text = scatter(&[a], 16, 8);
        assert!(text.matches('o').count() >= 1);
    }

    #[test]
    fn single_x_axis_keeps_the_data_scale() {
        // One rate, two series: the axis spans [λ/2, 3λ/2], not [λ, λ + 1],
        // and the points sit mid-plot.
        let a = s("a", &[(1e-3, 50.0)]);
        let b = s("b", &[(1e-3, 100.0)]);
        let text = scatter(&[a, b], 16, 8);
        let axis = text.lines().find(|l| l.contains("e-")).unwrap();
        assert!(
            axis.contains("5.000e-4") && axis.contains("1.500e-3"),
            "{axis}"
        );
        let column = |glyph: char| {
            let row = text.lines().find(|l| l.contains(glyph)).unwrap();
            row.find(glyph).unwrap() - row.find('|').unwrap() - 1
        };
        assert_eq!(column('o'), 8);
        assert_eq!(column('x'), 8);
    }
}
