//! The uniform result model: named columns × typed cells, with per-row
//! sweep provenance.
//!
//! Every figure's data is one or more [`Table`]s, from the driver that
//! builds it to the document read back from disk: a
//! [`crate::output::TableDoc`] is a `Table` plus the run's
//! [`crate::RunMeta`], and a parsed one holds the rendered cells as
//! [`Cell::Str`]. A table renders to CSV (the greppable stdout format
//! and the `.csv` artifact) and, with its meta, to the JSON table
//! document ([`crate::output::table_json`]), which additionally records
//! each row's **sweep point index** so sharded outputs can be merged
//! with full validation. Both renderings are pure functions of the cell
//! values, so output is deterministic.
//!
//! Drivers do not call the provenance methods below themselves:
//! [`crate::RepTableBuilder`] does, from the [`crate::Swept`] the runner
//! returned. Row provenance follows two rules, enforced at push time:
//!
//! 1. **Constant rows precede sweep rows.** A *constant* row
//!    ([`Table::push`]) is computed outside any sweep and is therefore
//!    identical in every shard; a *sweep* row ([`Table::push_indexed`])
//!    belongs to one sweep point. Interleaving them would make the
//!    merged row order ambiguous.
//! 2. **Sweep rows arrive in non-decreasing point order.** The runner
//!    hands results back in owned-point order, so this holds naturally;
//!    enforcing it keeps the unsharded rendering equal to the canonical
//!    merge order (constants, then points ascending).

use crate::json::{Bad, FromJson, Json};
use crate::sweep::SweepRef;
use std::fmt;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form label.
    Str(String),
    /// Unsigned integer.
    U64(u64),
    /// Float, rendered with shortest round-trip formatting.
    F64(f64),
    /// Boolean.
    Bool(bool),
}

/// Float formatted to 4 decimals (the figure drivers' house style).
pub fn f(x: f64) -> Cell {
    Cell::Str(format!("{x:.4}"))
}

/// Float formatted to 2 decimals.
pub fn f2(x: f64) -> Cell {
    Cell::Str(format!("{x:.2}"))
}

/// Float formatted to 3 decimals.
pub fn f3(x: f64) -> Cell {
    Cell::Str(format!("{x:.3}"))
}

/// Float formatted to 0 decimals (integral quantities whose replicate
/// mean may still be fractional render via [`f2`] instead).
pub fn f0(x: f64) -> Cell {
    Cell::Str(format!("{x:.0}"))
}

impl fmt::Display for Cell {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(s) => out.write_str(s),
            Cell::U64(v) => write!(out, "{v}"),
            Cell::F64(v) => write!(out, "{v}"),
            Cell::Bool(v) => write!(out, "{v}"),
        }
    }
}

/// A cell as a table document holds it: its rendered string.
impl FromJson for Cell {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        String::from_json(j).map(Cell::Str)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Str(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Str(s)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::U64(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::U64(v as u64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::F64(v)
    }
}
impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

/// A named table with a fixed column set and per-row sweep provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name: the file stem under `results/<figure>/`.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
    /// Per-row provenance, parallel to `rows`: the global sweep point
    /// index that produced the row, or `None` for constant rows.
    pub row_points: Vec<Option<usize>>,
    /// Total point count of the sweep behind the indexed rows, across
    /// all shards (`None` when the table has no sweep rows).
    pub sweep_points: Option<usize>,
    /// Global indices of the sweep points this run actually executed
    /// (its shard's share), ascending. A point may legitimately produce
    /// zero rows, so completeness is validated against this list, not
    /// against the rows.
    pub points_run: Vec<usize>,
}

impl Table {
    /// New empty table.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            row_points: Vec::new(),
            sweep_points: None,
            points_run: Vec::new(),
        }
    }

    /// Declare the sweep this table's indexed rows come from: total
    /// point count plus the points this run owns (see [`SweepRef`]).
    pub fn for_sweep(mut self, sweep: &SweepRef) -> Self {
        self.sweep_points = Some(sweep.points);
        self.points_run = sweep.owned.clone();
        self
    }

    /// Append a constant row (identical in every shard).
    ///
    /// # Panics
    /// Panics when the cell count does not match the column count, or
    /// when an indexed row was already pushed (constant rows must
    /// precede sweep rows — see the module docs).
    pub fn push(&mut self, row: Vec<Cell>) {
        assert!(
            self.row_points.iter().all(Option::is_none),
            "table {}: constant rows must precede sweep-indexed rows",
            self.name
        );
        self.check_arity(&row);
        self.rows.push(row);
        self.row_points.push(None);
    }

    /// Append a row produced by sweep point `point` (global index).
    ///
    /// # Panics
    /// Panics on cell-count mismatch, on a point index beyond the
    /// declared sweep, or when `point` is smaller than the last indexed
    /// row's point (sweep rows must arrive in point order).
    pub fn push_indexed(&mut self, point: usize, row: Vec<Cell>) {
        self.check_arity(&row);
        if let Some(n) = self.sweep_points {
            assert!(
                point < n,
                "table {}: point {point} out of range for a {n}-point sweep",
                self.name
            );
        }
        if let Some(&Some(last)) = self.row_points.iter().rev().find(|p| p.is_some()) {
            assert!(
                point >= last,
                "table {}: point {point} pushed after point {last} (sweep rows must \
                 arrive in point order)",
                self.name
            );
        }
        self.rows.push(row);
        self.row_points.push(Some(point));
    }

    fn check_arity(&self, row: &[Cell]) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table {}: row has {} cells, expected {}",
            self.name,
            row.len(),
            self.columns.len()
        );
    }

    /// The first point this table names that lies outside its sweep, as
    /// `(field, index, point)` with `field` one of `points_run` /
    /// `row_points`. `None` when every point is inside, or when no
    /// sweep size is recorded. The document parser and the shard merge
    /// both ask here.
    pub(crate) fn point_outside_sweep(&self) -> Option<(&'static str, usize, usize)> {
        let n = self.sweep_points?;
        let run = self.points_run.iter().map(|&p| ("points_run", Some(p)));
        let rows = self.row_points.iter().map(|&p| ("row_points", p));
        (run.enumerate().chain(rows.enumerate()))
            .find_map(|(i, (field, p))| p.filter(|&p| p >= n).map(|p| (field, i, p)))
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV (header line + one line per row, `\n` terminated,
    /// header and data fields quoted alike).
    /// Provenance is metadata, not data: it appears in the JSON artifact
    /// only, so sharded and unsharded runs render identical CSV rows.
    pub fn to_csv(&self) -> String {
        let line = |fields: Vec<String>| fields.join(",") + "\n";
        let mut s = line(self.columns.iter().map(|c| csv_escape(c)).collect());
        for row in &self.rows {
            let cells = row.iter().map(|cell| csv_escape(&cell.to_string()));
            s += &line(cells.collect());
        }
        s
    }
}

/// Quote a CSV field when it contains separators, quotes or line ends
/// (a reader drops an unquoted `\r` as CRLF mangling).
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut t = Table::new("demo", &["a", "b", "c"]);
        t.push(vec![Cell::from("x,y"), Cell::from(3u64), f(0.5)]);
        t.push(vec![Cell::from("plain"), Cell::from(4u64), Cell::F64(1.25)]);
        assert_eq!(t.to_csv(), "a,b,c\n\"x,y\",3,0.5000\nplain,4,1.25\n");
    }

    #[test]
    fn a_header_and_its_cells_read_back_as_written() {
        let mut t = Table::new("demo", &["a\"b", "c,d"]);
        t.push(vec![Cell::from(1u64), Cell::from("x\ry")]);
        let csv = t.to_csv();
        assert_eq!(csv, "\"a\"\"b\",\"c,d\"\n1,\"x\ry\"\n");
        let parsed = crate::golden::parse_csv(&csv).unwrap();
        assert_eq!(parsed, [vec!["a\"b", "c,d"], vec!["1", "x\ry"]]);
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec![Cell::from(1u64)]);
    }

    #[test]
    fn provenance_bookkeeping() {
        let sweep = SweepRef {
            points: 4,
            owned: vec![1, 3],
        };
        let mut t = Table::new("demo", &["x"]).for_sweep(&sweep);
        t.push(vec![Cell::from("const")]);
        t.push_indexed(1, vec![Cell::from("a")]);
        t.push_indexed(3, vec![Cell::from("b")]);
        t.push_indexed(3, vec![Cell::from("c")]);
        assert_eq!(t.row_points, [None, Some(1), Some(3), Some(3)]);
        assert_eq!(t.sweep_points, Some(4));
        assert_eq!(t.points_run, [1, 3]);
    }

    #[test]
    #[should_panic(expected = "constant rows must precede")]
    fn constant_after_indexed_rejected() {
        let mut t = Table::new("demo", &["x"]);
        t.push_indexed(0, vec![Cell::from(1u64)]);
        t.push(vec![Cell::from(2u64)]);
    }

    #[test]
    #[should_panic(expected = "sweep rows must")]
    fn decreasing_point_rejected() {
        let mut t = Table::new("demo", &["x"]);
        t.push_indexed(2, vec![Cell::from(1u64)]);
        t.push_indexed(1, vec![Cell::from(2u64)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_beyond_sweep_rejected() {
        let sweep = SweepRef {
            points: 2,
            owned: vec![0, 1],
        };
        let mut t = Table::new("demo", &["x"]).for_sweep(&sweep);
        t.push_indexed(2, vec![Cell::from(1u64)]);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f(1.0 / 3.0).to_string(), "0.3333");
        assert_eq!(f2(1.0 / 3.0).to_string(), "0.33");
        assert_eq!(f3(1.0 / 3.0).to_string(), "0.333");
        assert_eq!(f0(647.6).to_string(), "648");
    }
}
