//! ASCII line plots for terminal figure output.
//!
//! The paper's figures are line charts (delivered fraction vs attacker
//! fraction). The bench presets print both a CSV of the series and an
//! ASCII rendering so the shape is visible directly in a terminal log.

use crate::metrics::Series;

/// Configuration for [`render`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlotConfig {
    /// Plot body width in characters.
    pub width: usize,
    /// Plot body height in rows.
    pub height: usize,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Optional fixed y range (otherwise auto-scaled to the data).
    pub y_range: Option<(f64, f64)>,
}

impl Default for PlotConfig {
    fn default() -> Self {
        PlotConfig {
            width: 64,
            height: 20,
            x_label: "x".to_string(),
            y_label: "y".to_string(),
            y_range: None,
        }
    }
}

const MARKS: &[char] = &['*', '+', 'o', 'x', '#', '@'];

/// Render one or more series as an ASCII chart with a legend.
///
/// Curves are drawn with distinct marker characters; later series overwrite
/// earlier ones where they collide.
///
/// ```
/// use netsim::metrics::Series;
/// use netsim::plot::{render, PlotConfig};
/// let mut s = Series::new("demo");
/// s.push(0.0, 0.0);
/// s.push(1.0, 1.0);
/// let chart = render(&[s], &PlotConfig::default());
/// assert!(chart.contains("demo"));
/// ```
pub fn render(series: &[Series], cfg: &PlotConfig) -> String {
    let (w, h) = (cfg.width.max(8), cfg.height.max(4));
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return "(no data)\n".to_string();
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, _) in &pts {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
    }
    let (y_lo, y_hi) = cfg.y_range.unwrap_or_else(|| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, y) in &pts {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        (lo, hi)
    });
    let x_span = if (x_hi - x_lo).abs() < f64::EPSILON {
        1.0
    } else {
        x_hi - x_lo
    };
    let y_span = if (y_hi - y_lo).abs() < f64::EPSILON {
        1.0
    } else {
        y_hi - y_lo
    };

    let mut grid = vec![vec![' '; w]; h];
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        // Sample each column against the interpolated curve so lines are
        // continuous even with sparse points.
        for (col, x) in (0..w).map(|c| (c, x_lo + x_span * c as f64 / (w - 1) as f64)) {
            if let Some(y) = s.interpolate(x) {
                let fy = ((y - y_lo) / y_span).clamp(0.0, 1.0);
                let row = ((1.0 - fy) * (h - 1) as f64).round() as usize;
                grid[row][col] = mark;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{} ({:.3} .. {:.3})\n", cfg.y_label, y_lo, y_hi));
    for (ri, row) in grid.iter().enumerate() {
        let label = if ri == 0 {
            format!("{y_hi:7.3} |")
        } else if ri == h - 1 {
            format!("{y_lo:7.3} |")
        } else {
            "        |".to_string()
        };
        out.push_str(&label);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str("        +");
    out.push_str(&"-".repeat(w));
    out.push('\n');
    out.push_str(&format!(
        "         {:<w$}\n",
        format!("{} ({:.3} .. {:.3})", cfg.x_label, x_lo, x_hi),
        w = w
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", MARKS[si % MARKS.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(label: &str, pts: &[(f64, f64)]) -> Series {
        let mut s = Series::new(label);
        for &(x, y) in pts {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn empty_plot() {
        let out = render(&[], &PlotConfig::default());
        assert_eq!(out, "(no data)\n");
    }

    #[test]
    fn legend_contains_labels() {
        let s1 = line("alpha", &[(0.0, 0.0), (1.0, 1.0)]);
        let s2 = line("beta", &[(0.0, 1.0), (1.0, 0.0)]);
        let out = render(&[s1, s2], &PlotConfig::default());
        assert!(out.contains("* alpha"));
        assert!(out.contains("+ beta"));
    }

    #[test]
    fn plot_dimensions() {
        let s = line("d", &[(0.0, 0.0), (1.0, 1.0)]);
        let cfg = PlotConfig {
            width: 40,
            height: 10,
            ..PlotConfig::default()
        };
        let out = render(&[s], &cfg);
        // height rows + y header + axis + x label + 1 legend line
        assert_eq!(out.lines().count(), 10 + 4);
    }

    #[test]
    fn increasing_series_marks_corners() {
        let s = line("up", &[(0.0, 0.0), (1.0, 1.0)]);
        let cfg = PlotConfig {
            width: 20,
            height: 5,
            y_range: Some((0.0, 1.0)),
            ..PlotConfig::default()
        };
        let out = render(&[s], &cfg);
        let rows: Vec<&str> = out.lines().skip(1).take(5).collect();
        // Top row should have a mark near the right, bottom near the left.
        assert!(rows[0].trim_end().ends_with('*'));
        assert!(rows[4].contains('*'));
    }

    #[test]
    fn constant_series_is_flat() {
        let s = line("flat", &[(0.0, 0.5), (1.0, 0.5)]);
        let cfg = PlotConfig {
            width: 16,
            height: 5,
            y_range: Some((0.0, 1.0)),
            ..PlotConfig::default()
        };
        let out = render(&[s], &cfg);
        let rows: Vec<&str> = out.lines().skip(1).take(5).collect();
        let starred: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.contains('*'))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starred, vec![2], "flat mid curve occupies the middle row");
    }
}
