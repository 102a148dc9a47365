//! Plain-text table and CSV formatting for experiment binaries.
//!
//! Every `figN`/`tableN` binary in `taichi-bench` prints both a human
//! readable aligned table (stdout) and machine readable CSV rows so the
//! paper's figures can be regenerated from the same run.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count should match the header.
    pub fn row(&mut self, cells: &[String]) {
        debug_assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(0);
                let _ = write!(line, "{cell:>w$}");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the CSV form (header + rows), RFC-4180-style quoting for
    /// cells containing commas or quotes.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a fraction as a signed percentage with two decimals,
/// e.g. `-0.72%`.
pub fn pct(frac: f64) -> String {
    format!("{:+.2}%", frac * 100.0)
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats nanoseconds as a value in microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e3)
}

/// Formats nanoseconds as a value in milliseconds with two decimals.
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Formats a float with thousands separators, e.g. `1_234_567`.
pub fn grouped(v: f64) -> String {
    let neg = v < 0.0;
    let whole = v.abs().round() as u64;
    let s = whole.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    if neg {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name"));
        assert!(s.contains("long-name"));
        // Both data rows align on the same column width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0123), "+1.23%");
        assert_eq!(pct(-0.0072), "-0.72%");
        assert_eq!(ratio(3.456), "3.46x");
        assert_eq!(us(2_500), "2.50");
        assert_eq!(ms(3_500_000), "3.50");
        assert_eq!(grouped(1_234_567.0), "1_234_567");
        assert_eq!(grouped(-1_000.4), "-1_000");
        assert_eq!(grouped(999.0), "999");
    }
}
