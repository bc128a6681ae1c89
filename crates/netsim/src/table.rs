//! Aligned text tables and CSV output.
//!
//! The figure-regeneration presets print the same rows/series the paper
//! reports; this module renders them as aligned terminal tables and as CSV
//! for downstream plotting.

/// A simple column-aligned text table builder.
///
/// ```
/// use netsim::table::Table;
/// let mut t = Table::new(vec!["Parameter", "Value"]);
/// t.row(vec!["Number of Nodes".into(), "250".into()]);
/// let s = t.render();
/// assert!(s.contains("Number of Nodes"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: Vec<impl Into<String>>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns, a header underline and `|` separators.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str(" | ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 3 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as RFC-4180-ish CSV (quotes cells containing `,`, `"` or
    /// newlines).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format an `f64` with `places` decimal places (helper for table rows).
pub fn fmt_f(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

/// Format an optional crossover fraction as `"0.22"` or `"-"` (never
/// crosses).
pub fn fmt_crossover(x: Option<f64>) -> String {
    match x {
        Some(v) => fmt_f(v, 3),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "long header"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     | long header"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxx | 1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["x", "note"]);
        t.row(vec!["1".into(), "plain".into()]);
        t.row(vec!["2".into(), "has,comma".into()]);
        t.row(vec!["3".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("x,note"));
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["h"]);
        assert!(t.is_empty());
        t.row(vec!["v".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f(0.12345, 3), "0.123");
        assert_eq!(fmt_crossover(Some(0.2199)), "0.220");
        assert_eq!(fmt_crossover(None), "-");
    }
}
