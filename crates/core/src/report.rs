//! Plain-text table rendering for the experiment harnesses (the benches
//! print each paper table/figure as aligned rows).

/// A simple right-padded text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[c])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats seconds in engineering style (`ms`/`µs` as appropriate).
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} µs", seconds * 1e6)
    }
}

/// Formats a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["p", "time"]);
        t.row(&["8".into(), "1.5 ms".into()]);
        t.row(&["1024".into(), "0.2 ms".into()]);
        let s = t.to_string();
        assert!(s.contains("   p"), "{s}");
        assert!(s.contains("1024  0.2 ms"), "{s}");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }
}
