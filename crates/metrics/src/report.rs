//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are pre-formatted strings).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let _ = writeln!(out, "  {}", rule.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  "));
        }
        out
    }
}

/// Format a float with sensible precision for latency tables.
pub fn fmt_ms(value: Option<f64>) -> String {
    match value {
        Some(v) if v >= 100.0 => format!("{v:.0}"),
        Some(v) if v >= 10.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    }
}

/// Format a percentage.
pub fn fmt_pct(value: f64) -> String {
    format!("{value:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["x", "longer"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "3".into()]);
        let rendered = t.render();
        assert!(rendered.contains("## Demo"));
        assert!(rendered.contains("  1"));
        assert!(rendered.lines().count() >= 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Some(123.456)), "123");
        assert_eq!(fmt_ms(Some(12.345)), "12.3");
        assert_eq!(fmt_ms(Some(1.234)), "1.23");
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_pct(12.34), "12.3%");
    }
}
