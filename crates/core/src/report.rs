//! Plain-text table rendering for the table/figure regenerators.

use crate::scenario::UseCase;
use std::fmt;

/// A simple monospace table with a header row.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than the header.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.header.len(),
            "row has {} cells, header has {}",
            row.len(),
            self.header.len()
        );
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        if let Some(t) = &self.title {
            writeln!(f, "{t}")?;
        }
        let line = "-".repeat(total);
        writeln!(f, "{line}")?;
        write!(f, "|")?;
        for (h, w) in self.header.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        writeln!(f, "{line}")?;
        for row in &self.rows {
            write!(f, "|")?;
            for (c, w) in row.iter().zip(&widths) {
                write!(f, " {c:<w$} |")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "{line}")?;
        Ok(())
    }
}

/// Renders Table II: each use case and the abusive functionality its
/// intrusion model carries.
pub fn render_table2(use_cases: &[Box<dyn UseCase>]) -> String {
    let mut table = TextTable::new(["Use Case", "Abusive Functionality"])
        .title("TABLE II: use cases and their abusive functionality");
    for uc in use_cases {
        let label = uc.intrusion_model().abusive_functionality.label();
        table.row([uc.name(), label]);
    }
    table.to_string()
}

/// The check mark used in Table III for a correctly induced property.
pub const CHECK: &str = "\u{2713}";
/// The shield used in Table III for a handled erroneous state.
pub const SHIELD: &str = "\u{1F6E1}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Use Case", "Err. State", "Sec. Viol."]).title("TABLE");
        t.row(["XSA-212-crash", CHECK, CHECK]);
        t.row(["XSA-182-test", CHECK, SHIELD]);
        let s = t.to_string();
        assert!(s.starts_with("TABLE\n"));
        assert!(s.contains("| XSA-212-crash |"));
        assert!(s.contains(CHECK));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only"]);
        let s = t.to_string();
        assert!(s.contains("| only |"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn rejects_long_rows() {
        let mut t = TextTable::new(["a"]);
        t.row(["1", "2"]);
    }
}
