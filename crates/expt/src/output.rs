//! The table document, the run identity, where result files go, and
//! the self-validating shard merge.
//!
//! A [`TableDoc`] is a [`Table`] plus the [`RunMeta`] (driver,
//! [`RunFlags`], shard) of the run that produced it; its JSON rendering
//! carries the rows and their provenance: the sweep's total point
//! count, the point indices this run executed, and each row's point
//! index. Unsharded runs write `results/<figure>/<table>.csv` and that
//! document as `<table>.json`; sharded runs (`--shard i/n`) write only
//! the document, under `results/<figure>/shards/`. [`result_path`] is
//! the one function that names those files.
//!
//! [`RunFlags`] is the one declaration of a run's identity, `(scale,
//! seed, replicates)`. Both `opera run` and `opera orchestrate` read it
//! from a command line through [`RunFlags::take_arg`]; table documents
//! and golden manifests embed it and read it through `RunFlags::read`
//! (so `"scale": "huge"` is a parse error), and shard merge, the orchestrator's check of an
//! existing tree and stale-bless detection all compare it with
//! [`RunFlags::first_difference`].
//!
//! [`merge_shard_docs`] reassembles the unsharded table from shard
//! documents and *validates* what used to be a caller contract: every
//! point index present exactly once across shards, no duplicates, no
//! point in the wrong shard, matching schema and flags, and identical
//! constant rows. Each failure is one message naming the table and the
//! broken invariant, so a dropped or duplicated shard is named, not
//! scrambled into the output.

use crate::json::{self, quoted, Fields};
use crate::table::{Cell, Table};
use crate::{Args, ExptArgs, Scale};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Subdirectory of `results/<figure>/` holding per-shard table
/// documents.
pub(crate) const SHARD_DIR: &str = "shards";

/// Format tag written into every table document.
const DOC_FORMAT: u64 = 2;

/// The identity of a run: the flags that decide *what* it computes.
/// Two documents belong to the same run exactly when these agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFlags {
    /// Scale the run used.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// Replicates per sweep point.
    pub replicates: usize,
}

/// One flag on which two [`RunFlags`] disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagDiff {
    /// Which flag.
    pub flag: &'static str,
    /// Its rendered value on the side being checked.
    pub got: String,
    /// Its rendered value on the reference side.
    pub want: String,
}

impl RunFlags {
    /// The identity of a run started with `args`.
    pub fn of(args: &ExptArgs) -> RunFlags {
        RunFlags {
            scale: args.scale,
            seed: args.seed,
            replicates: args.replicates,
        }
    }

    /// Read `arg`, just taken from `args`, into `self` if it is one of
    /// the identity's flags — `--quick`, `--full`, `--seed S`,
    /// `--replicates R` — and say whether it was: the one reader of
    /// those flags, for `opera run` and `opera orchestrate` alike.
    /// `--quick` beats `--full` in either order (CI passes `--quick`
    /// unconditionally).
    pub fn take_arg(&mut self, arg: &str, args: &mut Args) -> Result<bool, String> {
        match arg {
            "--quick" => self.scale = Scale::Quick,
            "--full" if self.scale != Scale::Quick => self.scale = Scale::Full,
            "--full" => {}
            "--seed" => self.seed = args.parsed(arg)?,
            "--replicates" => self.replicates = args.at_least_one(arg)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Driver arguments that reproduce this run bit-for-bit (everything
    /// outside the identity keeps its default).
    pub fn expt_args(&self) -> ExptArgs {
        ExptArgs {
            scale: self.scale,
            seed: self.seed,
            replicates: self.replicates,
            ..ExptArgs::default()
        }
    }

    /// Read the three flag fields of a document.
    pub(crate) fn read(f: &mut Fields<'_>) -> Result<RunFlags, String> {
        Ok(RunFlags {
            scale: f.req("scale")?,
            seed: f.req("seed")?,
            replicates: f.req("replicates")?,
        })
    }

    /// The first flag on which `self` differs from `want`, if any.
    pub fn first_difference(&self, want: &RunFlags) -> Option<FlagDiff> {
        let shown = |f: &RunFlags| {
            [
                ("scale", f.scale.to_string()),
                ("seed", f.seed.to_string()),
                ("replicates", f.replicates.to_string()),
            ]
        };
        std::iter::zip(shown(self), shown(want))
            .find(|(got, want)| got != want)
            .map(|((flag, got), (_, want))| FlagDiff { flag, got, want })
    }
}

/// Run provenance stamped into every table document: which driver
/// produced it, under which flags, and which shard it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Driver (experiment) name.
    pub driver: String,
    /// The run's identity — the flag set shards must agree on.
    pub flags: RunFlags,
    /// The `(i, n)` shard, if the run was sharded.
    pub shard: Option<(usize, usize)>,
}

impl RunMeta {
    /// The meta describing one driver invocation.
    pub fn new(driver: &str, args: &ExptArgs) -> Self {
        RunMeta {
            driver: driver.to_string(),
            flags: RunFlags::of(args),
            shard: args.shard,
        }
    }
}

/// Render one table as a JSON table document.
///
/// Cells are recorded as their **rendered strings** — exactly the text
/// the CSV writer emits — so a merged document reproduces the unsharded
/// CSV byte-for-byte (typed JSON numbers would lose `NaN` cells and
/// 64-bit integer precision).
pub fn table_json(t: &Table, meta: &RunMeta) -> String {
    let opt = |n: Option<usize>| n.map_or("null".to_string(), |n| n.to_string());
    let mut s = format!("{{\n  \"format\": {DOC_FORMAT}");
    s += &format!(",\n  \"driver\": {}", quoted(&meta.driver));
    s += &format!(",\n  \"table\": {}", quoted(&t.name));
    s += &format!(",\n  \"scale\": {}", quoted(&meta.flags.scale.to_string()));
    s += &format!(",\n  \"seed\": {}", meta.flags.seed);
    s += &format!(",\n  \"replicates\": {}", meta.flags.replicates);
    match meta.shard {
        Some((i, n)) => s += &format!(",\n  \"shard\": [{i}, {n}]"),
        None => s += ",\n  \"shard\": null",
    }
    s += &format!(",\n  \"sweep_points\": {}", opt(t.sweep_points));
    s += &format!(
        ",\n  \"points_run\": [{}]",
        list(&t.points_run, usize::to_string)
    );
    s += &format!(",\n  \"columns\": [{}]", list(&t.columns, |c| quoted(c)));
    s += &format!(
        ",\n  \"row_points\": [{}]",
        list(&t.row_points, |&p| opt(p))
    );
    s += ",\n  \"rows\": [";
    for (ri, row) in t.rows.iter().enumerate() {
        let sep = if ri > 0 { "," } else { "" };
        s += &format!(
            "{sep}\n    [{}]",
            list(row, |cell| quoted(&cell.to_string()))
        );
    }
    if !t.rows.is_empty() {
        s += "\n  ";
    }
    s + "]\n}\n"
}

/// `items`, each rendered by `show`, joined as the inside of an inline
/// JSON array.
pub(crate) fn list<T>(items: &[T], show: impl Fn(&T) -> String) -> String {
    items.iter().map(show).collect::<Vec<_>>().join(", ")
}

/// A table document: one table as one (possibly sharded) run produced
/// it, with that run's provenance. Read back from disk, the table's
/// cells are the rendered strings ([`Cell::Str`]), which render to the
/// same CSV and JSON bytes as the typed cells they were written from.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDoc {
    /// Driver, run flags and shard.
    pub meta: RunMeta,
    /// The table: name, columns, rows and their sweep provenance.
    pub table: Table,
}

impl TableDoc {
    /// Parse a table document from its JSON text. Beyond shape, the
    /// provenance must be possible: with a sweep size recorded, every
    /// point named is inside the sweep and `points_run` is strictly
    /// ascending.
    pub fn parse(text: &str) -> Result<TableDoc, String> {
        json::decode("table document", text, |f| {
            f.format(DOC_FORMAT)?;
            let meta = RunMeta {
                driver: f.req("driver")?,
                flags: RunFlags::read(f)?,
                shard: f.req("shard")?,
            };
            let t = Table {
                name: f.req("table")?,
                sweep_points: f.req("sweep_points")?,
                points_run: f.req("points_run")?,
                columns: f.req("columns")?,
                row_points: f.req("row_points")?,
                rows: f.req("rows")?,
            };
            let (rows, points, cols) = (t.rows.len(), t.row_points.len(), t.columns.len());
            if rows != points {
                return Err(f.bad("rows", format!("{rows} row(s) but {points} \"row_points\"")));
            }
            if let Some(i) = t.rows.iter().position(|r| r.len() != cols) {
                let cells = t.rows[i].len();
                return Err(f.bad(
                    &format!("rows[{i}]"),
                    format!("{cells} cell(s), expected {cols}"),
                ));
            }
            if let (Some(n), Some((field, i, p))) = (t.sweep_points, t.point_outside_sweep()) {
                let what = format!("point {p} outside the {n}-point sweep");
                return Err(f.bad(&format!("{field}[{i}]"), what));
            }
            if let Some(i) = t.points_run.windows(2).position(|w| w[0] >= w[1]) {
                let (prev, p) = (t.points_run[i], t.points_run[i + 1]);
                return Err(f.bad(
                    &format!("points_run[{}]", i + 1),
                    format!("point {p} after point {prev} (want strictly ascending)"),
                ));
            }
            Ok(TableDoc { meta, table: t })
        })
    }

    /// Render the document's rows as CSV ([`Table::to_csv`]).
    pub fn to_csv(&self) -> String {
        self.table.to_csv()
    }

    /// Render as JSON text ([`table_json`]).
    pub fn render(&self) -> String {
        table_json(&self.table, &self.meta)
    }
}

/// Merge shard documents of one table back into the unsharded document,
/// or refuse them with one message, `<table>: <invariant>`, naming what
/// broke with both values where there are two.
///
/// Validates, in order: schema (driver / table / columns), run flags
/// (scale / seed / replicates / sweep size), shard consistency, point
/// ownership (`point % n == i`), completeness (**every point index
/// present exactly once across shards** — a dropped shard surfaces as
/// `missing point index`, a duplicated one as `duplicate point index`),
/// one document of every shard `0..n` (a dropped document of a constant
/// table, or of a shard that owns no point, is `missing shard`), and
/// constant-row identity.
/// The merged row order is the canonical unsharded order: constant rows
/// first, then sweep rows by ascending point index, each point's rows
/// in its shard's emission order — so the merged CSV is byte-identical
/// to a `--threads 1` unsharded run.
pub fn merge_shard_docs(docs: &[TableDoc]) -> Result<TableDoc, String> {
    let first = docs.first().ok_or("no shard documents to merge")?;
    merge(first, docs).map_err(|what| format!("{}: {what}", first.table.name))
}

/// [`merge_shard_docs`] of `docs`, `first` among them: a refusal names
/// the invariant, and the caller the table.
fn merge(first: &TableDoc, docs: &[TableDoc]) -> Result<TableDoc, String> {
    // Schema and flag agreement.
    for d in docs {
        let schema = |field, got: &str, want: &str| {
            Err(format!(
                "shard schema mismatch on {field}: got `{got}` want `{want}`"
            ))
        };
        if d.meta.driver != first.meta.driver {
            return schema("driver", &d.meta.driver, &first.meta.driver);
        }
        if d.table.name != first.table.name {
            return schema("table", &d.table.name, &first.table.name);
        }
        if d.table.columns != first.table.columns {
            let (got, want) = (d.table.columns.join(","), first.table.columns.join(","));
            return schema("columns", &got, &want);
        }
        let flag = |flag, got: String, want: String| {
            Err(format!(
                "shard flag mismatch on {flag}: got `{got}` want `{want}` \
                 (shards must come from one run configuration)"
            ))
        };
        if let Some(d) = d.meta.flags.first_difference(&first.meta.flags) {
            return flag(d.flag, d.got, d.want);
        }
        if d.table.sweep_points != first.table.sweep_points {
            let shown = |t: &Table| format!("{:?}", t.sweep_points);
            return flag("sweep_points", shown(&d.table), shown(&first.table));
        }
    }

    // Single unsharded document: nothing to reassemble.
    if docs.len() == 1 && first.meta.shard.is_none() {
        return Ok(first.clone());
    }

    // Shard consistency; `shards[di]` is document `di`'s shard index.
    let not_sharded = "unsharded document in a multi-shard merge";
    let (_, n) = first.meta.shard.ok_or(not_sharded)?;
    let mut shards = Vec::with_capacity(docs.len());
    for d in docs {
        let (i, dn) = d.meta.shard.ok_or(not_sharded)?;
        if dn != n {
            return Err(format!(
                "shard count mismatch: got {dn}-way shard, want {n}-way"
            ));
        }
        if i >= n {
            return Err(format!("invalid shard index {i} for a {n}-way sharding"));
        }
        shards.push(i);
    }

    let unsharded = RunMeta {
        shard: None,
        ..first.meta.clone()
    };
    let Some(sweep_points) = first.table.sweep_points else {
        // No sweep behind this table: every shard computed the same
        // constant rows. Validate identity and pass one through.
        if docs
            .iter()
            .any(|d| d.table.row_points.iter().any(Option::is_some))
        {
            return Err("sweep rows present but no sweep point count recorded".into());
        }
        check_shards(&shards, n)?;
        check_constants(docs)?;
        return Ok(TableDoc {
            meta: unsharded,
            table: first.table.clone(),
        });
    };

    // Point ownership and completeness, from the executed-point lists:
    // a point may produce zero rows, so rows alone cannot prove a shard
    // ran. `owner[p]` is the doc index that executed point `p`; it holds
    // the points the documents claim, never `sweep_points` slots — that
    // number is whatever a document says it is.
    let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
    for (di, (d, &shard)) in docs.iter().zip(&shards).enumerate() {
        let misassigned = |p| {
            Err(format!(
                "point index {p} claimed by shard {shard}, which does not own it"
            ))
        };
        if let Some((_, _, p)) = d.table.point_outside_sweep() {
            return misassigned(p);
        }
        for &p in &d.table.points_run {
            if p % n != shard {
                return misassigned(p);
            }
            if owner.insert(p, di).is_some() {
                return Err(format!(
                    "duplicate point index {p} across shards (shard submitted twice?)"
                ));
            }
        }
        // Every row's point must be among the points the shard ran.
        if let Some(&p) =
            (d.table.row_points.iter().flatten()).find(|&&p| owner.get(&p) != Some(&di))
        {
            return misassigned(p);
        }
    }
    // The claimed points are distinct and ascending, so the first one
    // that is not its own rank is preceded by an absent point.
    let absent = (owner.keys().zip(0..))
        .find_map(|(&p, rank)| (p != rank).then_some(rank))
        .or((owner.len() < sweep_points).then_some(owner.len()));
    if let Some(p) = absent {
        let shard = p % n;
        return Err(format!("missing point index {p} (shard {shard} dropped?)"));
    }

    check_shards(&shards, n)?;
    check_constants(docs)?;

    // Reassemble: constants (validated identical) first, then points in
    // ascending global order, each in its owning shard's emission order.
    let mut merged = Table {
        name: first.table.name.clone(),
        columns: first.table.columns.clone(),
        rows: Vec::new(),
        row_points: Vec::new(),
        sweep_points: Some(sweep_points),
        points_run: (0..sweep_points).collect(),
    };
    let constants = rows_at(&first.table, None).map(|row| (None, row));
    let swept = owner
        .iter()
        .flat_map(|(&p, &di)| rows_at(&docs[di].table, Some(p)).map(move |row| (Some(p), row)));
    for (point, row) in constants.chain(swept) {
        merged.rows.push(row.clone());
        merged.row_points.push(point);
    }
    Ok(TableDoc {
        meta: unsharded,
        table: merged,
    })
}

/// The rows of `t` that sweep point `point` produced (`None`: its
/// constant rows), in order.
fn rows_at(t: &Table, point: Option<usize>) -> impl Iterator<Item = &Vec<Cell>> {
    std::iter::zip(&t.rows, &t.row_points)
        .filter(move |(_, p)| **p == point)
        .map(|(row, _)| row)
}

/// Validate that `shards`, the documents' shard indices, each `< n`,
/// hold every shard exactly once.
fn check_shards(shards: &[usize], n: usize) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    if let Some(shard) = shards.iter().find(|&&i| !seen.insert(i)) {
        return Err(format!(
            "shard {shard} has more than one document (submitted twice?)"
        ));
    }
    // The first absent shard is at most `shards.len()`: `n` is whatever a
    // document says it is, and nothing here is sized by it.
    match (0..n).find(|i| !seen.contains(i)) {
        Some(shard) => Err(format!("missing shard {shard} (its document dropped?)")),
        None => Ok(()),
    }
}

/// Validate that every document's constant (non-sweep) rows are
/// identical, in order, cell by cell.
fn check_constants(docs: &[TableDoc]) -> Result<(), String> {
    let constants = |d: &TableDoc| -> Vec<Vec<String>> {
        rows_at(&d.table, None)
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect()
    };
    let differs = |row, got: String, want: String| {
        Err(format!(
            "constant row {row} differs between shards: got `{got}` want `{want}`"
        ))
    };
    let want = constants(&docs[0]);
    for d in &docs[1..] {
        let got = constants(d);
        if got.len() != want.len() {
            let count = |rows: &[Vec<String>]| format!("{} constant row(s)", rows.len());
            return differs(0, count(&got), count(&want));
        }
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            return differs(i + 1, got[i].join(","), want[i].join(","));
        }
    }
    Ok(())
}

/// One of a table's result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultFile {
    /// The CSV. Only an unsharded run or a merge writes one.
    Csv,
    /// The table document of an unsharded run or a merge (`None`), or
    /// of shard `(i, n)`.
    Doc(Option<(usize, usize)>),
}

/// Where `file` of table `table` lives under `dir`, its driver's
/// results directory (`results/<figure>/`): `<table>.csv` and
/// `<table>.json` beside each other, a shard's document at
/// `shards/<table>.shard<i>of<n>.json`. The one place the layout of a
/// results tree is spelt.
pub fn result_path(dir: &Path, table: &str, file: ResultFile) -> PathBuf {
    let name = match file {
        ResultFile::Csv => format!("{table}.csv"),
        ResultFile::Doc(None) => format!("{table}.json"),
        ResultFile::Doc(Some((i, n))) => format!("{table}.shard{i}of{n}.json"),
    };
    result_dir(dir, file).join(name)
}

/// The directory under `dir` that [`result_path`] places `file` in.
fn result_dir(dir: &Path, file: ResultFile) -> PathBuf {
    match file {
        ResultFile::Doc(Some(_)) => dir.join(SHARD_DIR),
        ResultFile::Csv | ResultFile::Doc(None) => dir.to_path_buf(),
    }
}

/// The suffix of a file being written: [`staged`].
pub(crate) const STAGED: &str = ".tmp";

/// Where `path` is written before it is renamed into place:
/// `<path>.tmp`, *appended* so a leftover staged file never matches a
/// `.json` / `.csv` filter, and marks a shard document's job unfinished.
pub(crate) fn staged(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(STAGED);
    PathBuf::from(tmp)
}

/// Write every table's result files under `dir`, creating directories
/// as needed: the one writer of a results tree (`opera run`, and every
/// file `opera orchestrate` writes). Unsharded runs write `<table>.csv`
/// plus the `<table>.json` table document; sharded runs write only
/// `shards/<table>.shard<i>of<n>.json`, ready for [`merge_shard_docs`].
/// Returns the written paths in table order. A call commits all its
/// files or none: each is first written in full to `<path>.tmp`, then
/// all are renamed into place, so a killed run leaves no half-written
/// file, and a staged one marks the write unfinished.
pub fn write_tables(dir: &Path, tables: &[Table], meta: &RunMeta) -> io::Result<Vec<PathBuf>> {
    if !tables.is_empty() {
        fs::create_dir_all(result_dir(dir, ResultFile::Doc(meta.shard)))?;
    }
    let mut paths = Vec::with_capacity(tables.len() * 2);
    for t in tables {
        let doc = result_path(dir, &t.name, ResultFile::Doc(meta.shard));
        if meta.shard.is_none() {
            let csv = result_path(dir, &t.name, ResultFile::Csv);
            fs::write(staged(&csv), t.to_csv())?;
            paths.push(csv);
        }
        fs::write(staged(&doc), table_json(t, meta))?;
        paths.push(doc);
    }
    for path in &paths {
        fs::rename(staged(path), path)?;
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepRef;
    use crate::table::Cell;
    use crate::testutil::{tmp_dir, QUICK};

    fn meta(shard: Option<(usize, usize)>) -> RunMeta {
        crate::testutil::meta("drv", shard)
    }

    /// A 5-point sweep sharded 2 ways, with one constant row and two
    /// rows per point.
    fn sharded_docs() -> Vec<TableDoc> {
        (0..2usize)
            .map(|i| {
                let sweep = SweepRef {
                    points: 5,
                    owned: (0..5).filter(|p| p % 2 == i).collect(),
                };
                let mut t = Table::new("series", &["p", "sub"]).for_sweep(&sweep);
                t.push(vec![Cell::from("const"), Cell::from(0u64)]);
                for &p in &sweep.owned {
                    for sub in 0..2u64 {
                        t.push_indexed(p, vec![Cell::from(p), Cell::from(sub)]);
                    }
                }
                TableDoc {
                    meta: meta(Some((i, 2))),
                    table: t,
                }
            })
            .collect()
    }

    fn unsharded_csv() -> String {
        let sweep = SweepRef {
            points: 5,
            owned: (0..5).collect(),
        };
        let mut t = Table::new("series", &["p", "sub"]).for_sweep(&sweep);
        t.push(vec![Cell::from("const"), Cell::from(0u64)]);
        for p in 0..5usize {
            for sub in 0..2u64 {
                t.push_indexed(p, vec![Cell::from(p), Cell::from(sub)]);
            }
        }
        t.to_csv()
    }

    #[test]
    fn doc_round_trips_through_json() {
        let sweep = SweepRef {
            points: 3,
            owned: vec![0, 1, 2],
        };
        let mut t = Table::new("demo", &["label", "v"]).for_sweep(&sweep);
        t.push(vec![Cell::from("a\"b,c"), Cell::F64(f64::NAN)]);
        t.push_indexed(0, vec![Cell::from("x"), Cell::F64(0.5)]);
        let m = meta(Some((0, 1)));
        let text = table_json(&t, &m);
        let doc = TableDoc::parse(&text).unwrap();
        // Rendered cells preserve NaN and both renderings exactly.
        assert_eq!(doc.table.rows[0][1], Cell::from("NaN"));
        assert_eq!(doc.to_csv(), t.to_csv());
        assert_eq!(doc.render(), text);
        assert_eq!((&doc.meta, &doc.table.points_run), (&m, &t.points_run));
        // render() is parse's inverse.
        assert_eq!(TableDoc::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn merge_restores_unsharded_order_with_multirow_points() {
        let merged = merge_shard_docs(&sharded_docs()).unwrap();
        assert_eq!(merged.to_csv(), unsharded_csv());
        assert_eq!(merged.meta.shard, None);
        assert_eq!(merged.table.points_run, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_shard_is_a_missing_point_index() {
        let docs = sharded_docs();
        assert_eq!(
            merge_shard_docs(&docs[..1]).unwrap_err(),
            "series: missing point index 1 (shard 1 dropped?)"
        );
    }

    #[test]
    fn duplicated_shard_is_a_duplicate_point_index() {
        let docs = sharded_docs();
        let dup = vec![docs[0].clone(), docs[1].clone(), docs[0].clone()];
        assert_eq!(
            merge_shard_docs(&dup).unwrap_err(),
            "series: duplicate point index 0 across shards (shard submitted twice?)"
        );
    }

    /// `sharded_docs` with `edit` applied to its second document, merged.
    fn refusal(edit: impl FnOnce(&mut TableDoc)) -> String {
        let mut docs = sharded_docs();
        edit(&mut docs[1]);
        merge_shard_docs(&docs).unwrap_err()
    }

    #[test]
    fn nothing_to_merge_is_named() {
        assert_eq!(
            merge_shard_docs(&[]).unwrap_err(),
            "no shard documents to merge"
        );
    }

    #[test]
    fn schema_and_flag_mismatches_are_named() {
        assert_eq!(
            refusal(|d| d.meta.driver = "other".into()),
            "series: shard schema mismatch on driver: got `other` want `drv`"
        );
        assert_eq!(
            refusal(|d| d.table.name = "other".into()),
            "series: shard schema mismatch on table: got `other` want `series`"
        );
        assert_eq!(
            refusal(|d| d.table.columns[1] = "other".into()),
            "series: shard schema mismatch on columns: got `p,other` want `p,sub`"
        );
        // Shards of different runs must not merge; which flags count is
        // `flag_differences_are_named_first_to_last`.
        assert_eq!(
            refusal(|d| d.meta.flags.seed = 7),
            "series: shard flag mismatch on seed: got `7` want `0` \
             (shards must come from one run configuration)"
        );
        assert_eq!(
            refusal(|d| d.table.sweep_points = Some(9)),
            "series: shard flag mismatch on sweep_points: got `Some(9)` want `Some(5)` \
             (shards must come from one run configuration)"
        );
        // An out-of-range shard index is named as such.
        assert_eq!(
            refusal(|d| {
                d.meta.shard = Some((5, 2));
                d.table.points_run.clear();
                d.table.rows.truncate(1);
                d.table.row_points.truncate(1);
            }),
            "series: invalid shard index 5 for a 2-way sharding"
        );
        assert_eq!(
            refusal(|d| d.meta.shard = None),
            "series: unsharded document in a multi-shard merge"
        );
        assert_eq!(
            refusal(|d| d.meta.shard = Some((1, 3))),
            "series: shard count mismatch: got 3-way shard, want 2-way"
        );
    }

    #[test]
    fn misassigned_point_and_constant_drift_are_named() {
        // Shard 1 claims point 2 (owned by shard 0).
        assert_eq!(
            refusal(|d| d.table.points_run.push(2)),
            "series: point index 2 claimed by shard 1, which does not own it"
        );
        assert_eq!(
            refusal(|d| d.table.rows[0][0] = "drifted".into()),
            "series: constant row 1 differs between shards: got `drifted,0` want `const,0`"
        );
        assert_eq!(
            refusal(|d| {
                d.table
                    .rows
                    .insert(0, vec![Cell::from("x"), Cell::from("y")]);
                d.table.row_points.insert(0, None);
            }),
            "series: constant row 0 differs between shards: \
             got `2 constant row(s)` want `1 constant row(s)`"
        );
    }

    #[test]
    fn a_joined_row_that_reads_the_same_is_still_a_drift() {
        // `a,b | c` and `a | b,c` join to the same text; the cells differ.
        let doc = |i, cells: [&str; 2]| {
            let mut t = Table::new("config", &["x", "y"]);
            t.push(cells.iter().map(|&c| Cell::from(c)).collect());
            TableDoc {
                meta: meta(Some((i, 2))),
                table: t,
            }
        };
        assert_eq!(
            merge_shard_docs(&[doc(0, ["a,b", "c"]), doc(1, ["a", "b,c"])]).unwrap_err(),
            "config: constant row 1 differs between shards: got `a,b,c` want `a,b,c`"
        );
    }

    #[test]
    fn a_point_outside_the_sweep_is_misassigned_in_memory_too() {
        // `TableDoc::parse` refuses such a document; one built in memory
        // meets the same bound in the merge. Point 5 is shard 1's by
        // `5 % 2`, and fills rank 5, so only the bound can refuse it.
        let outside =
            |p| format!("series: point index {p} claimed by shard 1, which does not own it");
        assert_eq!(refusal(|d| d.table.points_run.push(5)), outside(5));
        let row_at_7 = |d: &mut TableDoc| *d.table.row_points.last_mut().unwrap() = Some(7);
        assert_eq!(refusal(row_at_7), outside(7));
    }

    #[test]
    fn zero_row_points_still_validate() {
        // A shard that ran its points but produced no rows for them is
        // complete; dropping it from points_run is what must fail.
        let mut docs = sharded_docs();
        // Keep the constant row, drop the sweep rows.
        docs[1].table.rows.truncate(1);
        docs[1].table.row_points.truncate(1);
        assert!(merge_shard_docs(&docs).is_ok());
        docs[1].table.points_run.clear();
        assert_eq!(
            merge_shard_docs(&docs).unwrap_err(),
            "series: missing point index 1 (shard 1 dropped?)"
        );
    }

    /// Shard `i` of 3 of a constant table, `config`.
    fn config_doc(i: usize) -> TableDoc {
        let mut t = Table::new("config", &["k"]);
        t.push(vec![Cell::from(12u64)]);
        TableDoc {
            meta: meta(Some((i, 3))),
            table: t,
        }
    }

    #[test]
    fn constant_tables_merge_by_identity() {
        let docs: Vec<TableDoc> = (0..3).map(config_doc).collect();
        let merged = merge_shard_docs(&docs).unwrap();
        assert_eq!(merged.to_csv(), docs[0].to_csv());
        // Single unsharded doc passes through.
        let solo = TableDoc {
            meta: meta(None),
            ..config_doc(0)
        };
        assert_eq!(merge_shard_docs(std::slice::from_ref(&solo)).unwrap(), solo);
    }

    #[test]
    fn a_constant_table_with_a_sweep_row_is_refused() {
        // No sweep size recorded, yet a row names a point: nothing can
        // place that row, so the merge refuses rather than guess.
        let mut docs: Vec<TableDoc> = (0..3).map(config_doc).collect();
        docs[2].table.rows.push(vec![Cell::from(13u64)]);
        docs[2].table.row_points.push(Some(0));
        assert_eq!(
            merge_shard_docs(&docs).unwrap_err(),
            "config: sweep rows present but no sweep point count recorded"
        );
    }

    #[test]
    fn every_shard_of_a_table_must_be_there_once() {
        // A constant table's rows are the same in every shard, so
        // nothing but the shard indices shows a dropped document.
        let doc = config_doc;
        let missing = |shard| format!("config: missing shard {shard} (its document dropped?)");
        assert_eq!(merge_shard_docs(&[doc(0), doc(2)]).unwrap_err(), missing(1));
        assert_eq!(merge_shard_docs(&[doc(1), doc(0)]).unwrap_err(), missing(2));
        assert_eq!(merge_shard_docs(&[doc(1), doc(2)]).unwrap_err(), missing(0));
        assert_eq!(
            merge_shard_docs(&[doc(2), doc(1), doc(1)]).unwrap_err(),
            "config: shard 1 has more than one document (submitted twice?)"
        );
        // A sweep table's shard that owns no point (5 points over 6
        // shards) leaves no point index to miss.
        let sweep_doc = |i| {
            let owned: Vec<usize> = (0..5).filter(|p| p % 6 == i).collect();
            let sweep = SweepRef { points: 5, owned };
            let mut t = Table::new("series", &["p"]).for_sweep(&sweep);
            for &p in &sweep.owned {
                t.push_indexed(p, vec![Cell::from(p)]);
            }
            TableDoc {
                meta: meta(Some((i, 6))),
                table: t,
            }
        };
        let docs: Vec<TableDoc> = (0..5).map(sweep_doc).collect();
        assert_eq!(
            merge_shard_docs(&docs).unwrap_err(),
            "series: missing shard 5 (its document dropped?)"
        );
    }

    /// The one comparison behind the shard merge's `FlagMismatch`, the
    /// orchestrator's other-run refusal and the golden stale-bless drift.
    #[test]
    fn flag_differences_are_named_first_to_last() {
        let with = |edit: fn(&mut RunFlags)| {
            let mut f = QUICK;
            edit(&mut f);
            f
        };
        assert_eq!(QUICK.first_difference(&QUICK), None);
        for (got, flag, got_v, want_v) in [
            (with(|f| f.scale = Scale::Full), "scale", "full", "quick"),
            (
                with(|f| f.seed = u64::MAX),
                "seed",
                "18446744073709551615",
                "0",
            ),
            (with(|f| f.replicates = 5), "replicates", "5", "3"),
            // Several differ: the first in (scale, seed, replicates)
            // order is the one named.
            (
                with(|f| {
                    f.seed = 7;
                    f.replicates = 12;
                }),
                "seed",
                "7",
                "0",
            ),
        ] {
            let d = got.first_difference(&QUICK).expect(flag);
            assert_eq!(
                (d.flag, d.got.as_str(), d.want.as_str()),
                (flag, got_v, want_v)
            );
        }
        // The round trip through the CLI type is lossless.
        let odd = with(|f| {
            f.scale = Scale::Default;
            f.replicates = 8;
        });
        assert_eq!(RunFlags::of(&odd.expt_args()), odd);
    }

    #[test]
    fn parse_errors_name_document_path_and_problem() {
        let good = sharded_docs()[0].render();
        let err = |text: String| TableDoc::parse(&text).unwrap_err();
        assert_eq!(
            err(good.replace("\"quick\"", "\"huge\"")),
            "table document: scale: unknown scale \"huge\" (want quick/default/full)"
        );
        assert_eq!(
            err(good.replace("\"format\": 2", "\"format\": 1")),
            "table document: format: unsupported format 1 (this build reads format 2)"
        );
        assert_eq!(
            err(good.replace("[\"0\", \"1\"]", "[\"0\", 1]")),
            "table document: rows[2][1]: expected a string"
        );
        assert_eq!(
            err(good.replace("[\"0\", \"1\"]", "[\"0\"]")),
            "table document: rows[2]: 1 cell(s), expected 2"
        );
        assert_eq!(
            err(good.replace("\"seed\": 0,", "")),
            "table document: seed: missing (keys present: columns, driver, format, \
             points_run, replicates, row_points, rows, scale, shard, sweep_points, table)"
        );
        assert_eq!(err("[]".into()), "table document: expected an object");
    }

    #[test]
    fn writes_csv_and_doc_unsharded_and_doc_only_sharded() {
        let dir = tmp_dir("write");
        let mut t = Table::new("series", &["x", "y"]);
        t.push(vec![Cell::from(1u64), Cell::from(2u64)]);
        let paths = write_tables(&dir, std::slice::from_ref(&t), &meta(None)).unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(fs::read_to_string(&paths[0]).unwrap(), "x,y\n1,2\n");
        let doc = TableDoc::parse(&fs::read_to_string(&paths[1]).unwrap()).unwrap();
        assert_eq!(doc.table.rows, [[Cell::from("1"), Cell::from("2")]]);
        // Overwrite is idempotent.
        let again = write_tables(&dir, std::slice::from_ref(&t), &meta(None)).unwrap();
        assert_eq!(paths, again);
        // Sharded: document only, under shards/.
        let spaths = write_tables(&dir, std::slice::from_ref(&t), &meta(Some((1, 4)))).unwrap();
        assert_eq!(spaths.len(), 1);
        assert!(spaths[0].ends_with("shards/series.shard1of4.json"));
        assert!(spaths[0].exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_call_commits_all_its_files_or_none() {
        let dir = tmp_dir("write-commit");
        let table = |name: &str| {
            let mut t = Table::new(name, &["x"]);
            t.push(vec![Cell::from(1u64)]);
            t
        };
        let both = [table("a"), table("b")];
        write_tables(&dir, &both, &meta(Some((1, 2)))).unwrap();
        let mut written: Vec<String> = fs::read_dir(dir.join(SHARD_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(
            written,
            ["a.shard1of2.json", "b.shard1of2.json"],
            "no staged file left"
        );
        // A second table that cannot be written: the first is left
        // staged, and nothing is renamed into place.
        let other = tmp_dir("write-none");
        let err = write_tables(&other, &[table("a"), table("no/dir")], &meta(None));
        assert!(err.is_err());
        assert!(!other.join("a.csv").exists() && !other.join("a.json").exists());
        assert!(staged(&other.join("a.json")).exists());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&other).unwrap();
    }
}
