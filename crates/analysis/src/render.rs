//! ASCII rendering for tables and series.

/// A simple aligned ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; shorter rows are padded with empty cells.
    pub fn row<S: ToString>(&mut self, cells: &[S]) {
        let mut row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(widths.len()) {
                let pad = widths[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Render a unit-interval series (e.g. "fraction still vulnerable") as a
/// sparkline using eighth-block characters.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|v| {
            let clamped = v.clamp(0.0, 1.0);
            BLOCKS[(clamped * 8.0).round() as usize]
        })
        .collect()
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(numerator: u64, denominator: u64) -> String {
    if denominator == 0 {
        return "0.0%".to_string();
    }
    format!("{:.1}%", 100.0 * numerator as f64 / denominator as f64)
}

/// Thousands separator for counts.
pub fn grouped(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["App", "Hosts"]);
        t.row(&["WordPress", "1462625"]);
        t.row(&["Grav", "4"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Column "Hosts" starts at the same offset everywhere.
        let header_pos = lines[1].find("Hosts").unwrap();
        let row_pos = lines[3].find("1462625").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(&["1"]);
        assert_eq!(t.rows[0].len(), 3);
        let _ = t.render();
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 0.5, 1.0, 2.0, -1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[2], '█');
        assert_eq!(chars[3], '█', "clamped above");
        assert_eq!(chars[4], ' ', "clamped below");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "0.0%");
        assert_eq!(grouped(1462625), "1,462,625");
        assert_eq!(grouped(42), "42");
        assert_eq!(grouped(1000), "1,000");
    }
}
