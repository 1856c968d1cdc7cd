//! Experiment report rendering: plain-text tables for humans.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of `&str`.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Table {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                let pad = w - c.chars().count();
                s.push_str(c);
                s.push_str(&" ".repeat(pad));
                s.push_str(" | ");
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a number of bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2} %", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row_str(&["1", "2"]).row_str(&["333", "4"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| 333 | 4"));
    }

    #[test]
    fn helpers() {
        assert_eq!(gib(1 << 30), "1.0 GiB");
        assert_eq!(pct(0.0764), "7.64 %");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_row_panics() {
        Table::new("x", &["a"]).row_str(&["1", "2"]);
    }
}
